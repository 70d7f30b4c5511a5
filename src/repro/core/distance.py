"""Obstructed distance computation (paper Fig. 8).

The local visibility graph initially contains only the obstacles within
the Euclidean range ``d_E(p, q)``; the provisional shortest path may
however be crossed by obstacles just outside that range.  The algorithm
therefore alternates a shortest-path computation with an obstacle range
retrieval of radius equal to the current distance, until no new
obstacle appears — the distance can only grow between iterations, so
the fixpoint is the true obstructed distance.

The stateful helper here is a building block of the shared query
runtime (:mod:`repro.runtime`): :class:`SourceDistanceField` evaluates
many candidates against one fixed source, and is the one engine every
query evaluates distances with — a point-to-point distance
(:meth:`repro.runtime.context.QueryContext.distance`) is the field
rooted at one endpoint, read at the other.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Protocol, Sequence

from repro.geometry.point import Point
from repro.model import Obstacle
from repro.visibility.csr import CSRGraph, frozen
from repro.visibility.graph import VisibilityGraph

# benchmarks/e2e/e2e_trace.py wraps this name (a `visibility.dijkstra` wrap point).
shortest_path_dist = None


class ObstacleSource(Protocol):
    """Anything that can produce the obstacles intersecting a disk."""

    def obstacles_in_range(self, center: Point, radius: float) -> list[Obstacle]:
        """Obstacles intersecting the closed disk ``(center, radius)``;
        a :class:`~repro.euclidean.range.Retrieval` adds its clear radius."""


class SourceDistanceField:
    """Obstructed distances from one fixed source over a growing graph.

    ONN evaluates many candidates against the *same* query point.
    Straight legs come first: a candidate the source sees past the
    graph's obstacles is at its Euclidean distance (booked as
    ``straight_legs``), and no edge is read.  Only a hidden candidate
    reads the graph's freeze — which connects it — and a complete
    distance field from the source over its arrays
    (:mod:`repro.visibility.csr`): its graph distance is ``min over its
    visible nodes v of field[v] + |v - candidate|`` (any shortest path
    leaves the candidate through a visible node), found memo, probe,
    anchors (:meth:`~repro.visibility.csr.CSRGraph.last_leg`), the
    source skipped.  A straight leg, or a probe's lower bound, past the
    caller's ``bound`` is returned untested.  The source need not be a
    node — the field then roots at the nodes the source sees, at their
    straight legs — so the graph is only read, never given a free
    point.  The freeze and the field are retaken whenever the graph's
    structure revision moves — whether the obstacles were added by this
    field's own Fig. 8 enlargement or by another user of a shared,
    cached graph.

    ``grow`` is the enlargement step: it receives the current
    provisional distance and returns ``True`` when new obstacles
    entered the graph.  :meth:`QueryContext.field_for
    <repro.runtime.context.QueryContext.field_for>` passes the cached
    graph's coverage-aware expansion, so already-covered radii skip the
    obstacle retrieval entirely, and a call with radius 0 revalidates
    the graph against dynamic obstacle updates.
    """

    def __init__(
        self,
        graph: VisibilityGraph,
        source_point: Point,
        *,
        grow: Callable[[float], bool],
        stats: "object | None" = None,
    ) -> None:
        self._graph = graph
        self._q = source_point
        self._grow = grow
        self._stats = stats
        #: Pinned per structure revision (:meth:`_pin`): the freeze and
        #: the field rooted at the source.
        self._revision = -1
        self._csr: "CSRGraph | None" = None
        self._dist = None

    @property
    def graph(self) -> VisibilityGraph:
        """The underlying (growing) local visibility graph."""
        return self._graph

    def distance_to(self, p: Point, *, bound: float = inf) -> float:
        """The obstructed distance from the source to ``p`` (Fig. 8).

        With a finite ``bound``, iteration stops as soon as the
        provisional lower bound exceeds it: the distance over the known
        obstacles is a lower bound on the true one, so a caller that
        discards results beyond ``bound`` cannot tell the difference.
        """
        # Revalidate the graph before evaluating: a dynamic obstacle
        # update since the last call must not let a stale provisional
        # short-circuit via the bound check.
        self._grow(0.0)
        return self._fixpoint(p, bound, None)

    def batch_eval(
        self,
        points: "list[Point]",
        *,
        bound: float = inf,
        sight: "Sequence[bool] | None" = None,
    ) -> list[float]:
        """Distances from the source to every point in ``points``.

        One revalidation, one traced span, and one shared provisional
        field serve the whole batch — the range-refinement and
        nearest-seed paths hand their entire candidate set here instead
        of looping ``distance_to``.  Semantics per candidate are
        exactly :meth:`distance_to` (including the Fig. 8 enlargement
        fixpoint and the ``bound`` early exit).  ``sight`` (parallel to
        ``points``): straight-leg verdicts a distance join's run decided
        over the graph as it is, good until its obstacle set moves.
        """
        from repro.obs.trace import TRACER

        points = list(points)
        with TRACER.span("field.batch_eval", size=len(points)):
            if self._grow(0.0) or sight is None:
                sight = [None] * len(points)
            out = [self._fixpoint(p, bound, seen) for p, seen in zip(points, sight)]
        TRACER.count("field.batch_eval")
        if self._stats is not None:
            self._stats.field_batch_evals += 1
        return out

    def _fixpoint(
        self, p: Point, bound: float, seen: "bool | None", *, exact: bool = False
    ) -> float:
        """Fig. 8's loop for one point (``seen``: a decided verdict).
        ``exact`` (a point-to-point distance): ``bound`` only stops the
        loop, every value is the graph's own, none a lower bound."""
        cut = inf if exact else bound
        while True:
            d, straight = self._provisional(p, cut, seen)
            if d > bound or not self._grow(d):
                if straight and self._stats is not None:
                    self._stats.straight_legs += 1
                return d
            seen = None

    def _pin(self) -> None:
        """Take the graph's current freeze and the field rooted at the
        source over it (both memoized on the graph, so a warm repeat
        query at this centre costs two dict lookups)."""
        graph = self._graph
        csr = self._csr = frozen(graph, stats=self._stats)
        self._revision = graph.structure_revision
        self._dist = csr.field(self._q, graph)

    def _provisional(
        self, p: Point, bound: float, seen: "bool | None"
    ) -> tuple[float, bool]:
        """``p``'s distance over the graph as it is, and whether it is
        the straight leg."""
        q = self._q
        if p == q:
            return 0.0, False
        straight = q.distance(p)
        if straight > bound:
            return straight, False  # untested, a value the caller discards
        graph = self._graph
        if graph.sees(q, p) if seen is None else seen:
            return straight, True
        if graph.structure_revision != self._revision:
            self._pin()
        d = self._csr.last_leg(
            self._dist, p, graph, bound=bound, stats=self._stats, hidden=q
        )
        # Past a corner a hair off segment ``qp`` the legs' float sum
        # may round below ``|qp|``; no path is shorter than the segment.
        return max(d, straight), False
