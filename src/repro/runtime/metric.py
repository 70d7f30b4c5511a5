"""The distance-metric abstraction of the query runtime.

The paper's six obstructed query types are the classical Euclidean
queries with ``d_E`` replaced by the obstructed distance ``d_O`` — and
the pruning in every algorithm rests on one fact, ``d_E <= d_O``
(Euclidean lower bound).  :class:`DistanceOracle` captures exactly the
operations the shared query skeletons (:mod:`repro.runtime.queries`)
need; :class:`EuclideanMetric` and :class:`ObstructedMetric` are the
two implementations, which makes the ``euclidean`` query functions and
the ``core`` obstructed ones parameterizations of the *same* code.

A metric's ``field(q)`` answers many ``distance(p, q)`` evaluations
against a fixed ``q`` cheaply (ONN's inner loop); ``range_refine``
turns a Euclidean candidate superset into the exact in-range result
(OR's elimination step), ``range_refine_many`` does it for every seed
of an ODJ at once.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.core.distance import ObstacleSource
from repro.geometry.point import Point


@runtime_checkable
class DistanceField(Protocol):
    """Distances from one fixed source point to arbitrary targets."""

    def distance_to(self, p: Point, *, bound: float = inf) -> float:
        """Distance from the field's source to ``p``; may return any
        value above ``bound`` once the true distance is known to
        exceed it."""

    def batch_eval(
        self, points: "list[Point]", *, bound: float = inf
    ) -> list[float]:
        """Distances to every point of ``points`` (same per-candidate
        semantics as :meth:`distance_to`, amortizing shared state —
        one revalidation, one provisional field — over the batch)."""


@runtime_checkable
class DistanceOracle(Protocol):
    """The metric interface shared by every query skeleton."""

    def distance(self, p: Point, q: Point, *, bound: float = inf) -> float:
        """The metric distance ``d(p, q)`` (exact up to ``bound``)."""

    def lower_bound(self, p: Point, q: Point) -> float:
        """A cheap lower bound on ``distance(p, q)`` (here: ``d_E``)."""

    def field(self, q: Point, *, radius: float = 0.0) -> DistanceField:
        """A reusable distance field rooted at ``q``."""

    def range_refine(
        self, q: Point, e: float, candidates: Iterable[Point]
    ) -> list[tuple[Point, float]]:
        """Exact ``(p, d(p, q))`` pairs for the candidates within ``e``.

        ``candidates`` is a superset of the answer obtained by the
        Euclidean lower-bound filter."""

    def range_refine_many(
        self,
        seeds: Sequence[Point],
        e: float,
        partners: Mapping[Point, Iterable[Point]],
    ) -> list[list[tuple[Point, float]]]:
        """Per seed ``q`` of ``seeds``, what ``range_refine(q, e,
        partners[q])`` returns — handed every seed up front, as a
        distance join has them (Fig. 10), so a metric can batch the
        work they share."""


class _EuclideanField:
    """Trivial field: the metric distance is closed-form."""

    __slots__ = ("_q",)

    def __init__(self, q: Point) -> None:
        self._q = q

    def distance_to(self, p: Point, *, bound: float = inf) -> float:
        return self._q.distance(p)

    def batch_eval(
        self, points: "list[Point]", *, bound: float = inf
    ) -> list[float]:
        q = self._q
        return [q.distance(p) for p in points]


class EuclideanMetric:
    """``d(p, q) = d_E(p, q)`` — the degenerate, obstacle-free oracle.

    Plugged into the shared skeletons it reproduces the classical
    algorithms exactly: the lower bound equals the distance, so every
    refinement loop terminates after the seed phase.
    """

    def distance(self, p: Point, q: Point, *, bound: float = inf) -> float:
        """The Euclidean distance (``bound`` is irrelevant: exact is free)."""
        return p.distance(q)

    def lower_bound(self, p: Point, q: Point) -> float:
        """Euclidean distance — the bound is tight."""
        return p.distance(q)

    def field(self, q: Point, *, radius: float = 0.0) -> _EuclideanField:
        """A closed-form field rooted at ``q``."""
        return _EuclideanField(q)

    def range_refine(
        self, q: Point, e: float, candidates: Iterable[Point]
    ) -> list[tuple[Point, float]]:
        """Candidates are already the answer; sort by distance."""
        pairs = sorted((q.distance(p), p) for p in candidates)
        return [(p, d) for d, p in pairs if d <= e]

    def range_refine_many(
        self,
        seeds: Sequence[Point],
        e: float,
        partners: Mapping[Point, Iterable[Point]],
    ) -> list[list[tuple[Point, float]]]:
        """Seeds share nothing: one :meth:`range_refine` each."""
        return [self.range_refine(q, e, partners[q]) for q in seeds]


class ObstructedMetric:
    """``d(p, q) = d_O(p, q)`` over a shared :class:`QueryContext`.

    All graph construction, caching, and Fig. 8 iteration live in the
    context; the metric is the adapter that exposes them through the
    :class:`DistanceOracle` interface the query skeletons consume.
    """

    def __init__(self, context: "QueryContext") -> None:
        self.context = context

    @classmethod
    def over(cls, source: ObstacleSource, **kwargs: object) -> "ObstructedMetric":
        """A metric with a fresh private context over ``source``."""
        from repro.runtime.context import QueryContext

        return cls(QueryContext(source, **kwargs))  # type: ignore[arg-type]

    def distance(self, p: Point, q: Point, *, bound: float = inf) -> float:
        """Obstructed distance via the context's cached graphs (Fig. 8)."""
        return self.context.distance(p, q, bound=bound)

    def lower_bound(self, p: Point, q: Point) -> float:
        """``d_E`` — the paper's Euclidean lower-bound property."""
        return p.distance(q)

    def field(self, q: Point, *, radius: float = 0.0) -> DistanceField:
        """A :class:`~repro.core.distance.SourceDistanceField` over the
        cached graph for ``q``."""
        return self.context.field_for(q, radius)

    def range_refine(
        self, q: Point, e: float, candidates: Iterable[Point]
    ) -> list[tuple[Point, float]]:
        """Fig. 5's elimination: one batched distance field rooted at
        ``q``, covering radius ``e`` — :meth:`range_refine_many` with
        one seed."""
        return self.range_refine_many([q], e, {q: candidates})[0]

    def range_refine_many(
        self,
        seeds: Sequence[Point],
        e: float,
        partners: Mapping[Point, Iterable[Point]],
    ) -> list[list[tuple[Point, float]]]:
        """Per seed, one batched distance field rooted at it, covering
        radius ``e`` — the graphs of all the seeds swept together
        (:meth:`QueryContext.refine_many
        <repro.runtime.context.QueryContext.refine_many>`).

        Each candidate's distance is the last-leg minimisation over its
        visible anchors — exact because a shortest path never turns at
        a free point, so it leaves the candidate straight toward some
        graph node — evaluated in one :meth:`DistanceField.batch_eval`
        call per seed.  Unlike Fig. 5's own formulation (one bounded
        expansion with every candidate inserted as a transient
        entity), candidates never enter the cached graph, so the
        field's provisional Dijkstra is reusable across calls at the
        same centre.
        """
        uniq = [list(dict.fromkeys(partners[q])) for q in seeds]
        dists = self.context.refine_many(seeds, e, uniq)
        return [
            [(p, d) for p, d in zip(points, found) if d <= e]
            for points, found in zip(uniq, dists)
        ]


def resolve_metric(
    obstacle_source: ObstacleSource,
    context: "QueryContext | None" = None,
    *,
    cache_size: int = 64,
) -> ObstructedMetric:
    """The obstructed metric for a query entry point.

    With an explicit ``context`` the caller shares state across
    queries; otherwise a private context is created (the seed
    behaviour: independent queries).
    """
    if context is not None:
        return ObstructedMetric(context)
    return ObstructedMetric.over(obstacle_source, cache_size=cache_size)
