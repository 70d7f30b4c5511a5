"""Obstructed distance computation (paper Fig. 8).

The local visibility graph initially contains only the obstacles within
the Euclidean range ``d_E(p, q)``; the provisional shortest path may
however be crossed by obstacles just outside that range.  The algorithm
therefore alternates a shortest-path computation with an obstacle range
retrieval of radius equal to the current distance, until no new
obstacle appears — the distance can only grow between iterations, so
the fixpoint is the true obstructed distance.

The stateful helpers here are the building blocks of the shared query
runtime (:mod:`repro.runtime`): :class:`SourceDistanceField` evaluates
many candidates against one fixed source, and
:class:`ObstructedDistanceComputer` is a thin compatibility wrapper
over :class:`repro.runtime.context.QueryContext`, which owns the
persistent, versioned LRU graph cache.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Protocol

from repro.geometry.point import Point
from repro.model import Obstacle
from repro.visibility.graph import VisibilityGraph
from repro.visibility.shortest_path import shortest_path_dist


class ObstacleSource(Protocol):
    """Anything that can produce the obstacles intersecting a disk."""

    def obstacles_in_range(self, center: Point, radius: float) -> list[Obstacle]:
        """Obstacles intersecting the closed disk ``(center, radius)``."""


def compute_obstructed_distance(
    graph: VisibilityGraph,
    p: Point,
    q: Point,
    source: ObstacleSource,
    *,
    bound: float = inf,
) -> float:
    """Obstructed distance between graph nodes ``p`` and ``q``.

    ``graph`` is grown in place (paper: the graph is reused across the
    distance computations of one query).  Returns ``inf`` when ``p`` or
    ``q`` is sealed off by obstacles.

    ``bound`` enables threshold pruning: the local-graph distance is
    the shortest path avoiding all *known* obstacles, hence a lower
    bound on the true obstructed distance, so once it exceeds ``bound``
    the exact value cannot matter to a caller that discards results
    beyond ``bound`` — iteration stops and the (possibly inexact,
    always >= true-value-capped-at-bound) distance is returned.
    """
    d = shortest_path_dist(graph, p, q)
    while True:
        if d > bound:
            return d
        retrieved = source.obstacles_in_range(q, d)
        new_obstacles = [o for o in retrieved if not graph.has_obstacle(o.oid)]
        if not new_obstacles:
            return d
        for obs in new_obstacles:
            graph.add_obstacle(obs)
        d = shortest_path_dist(graph, p, q)


class SourceDistanceField:
    """Obstructed distances from one fixed source over a growing graph.

    ONN evaluates many candidates against the *same* query point.
    Instead of mutating the graph and running Dijkstra per candidate,
    this keeps a complete distance field from the source: a candidate's
    graph distance is ``min over its visible nodes v of field[v] +
    |v - candidate|`` (any shortest path leaves the candidate through a
    visible node).  The field is recomputed whenever the graph's
    obstacle revision moves — whether the obstacles were added by this
    field's own Fig. 8 enlargement or by another user of a shared,
    cached graph.

    ``grow`` optionally replaces the enlargement step: it receives the
    current provisional distance and must return ``True`` when new
    obstacles entered the graph.  The query runtime passes the cached
    graph's coverage-aware expansion here, so already-covered radii
    skip the obstacle retrieval entirely.  ``readmit`` is how an
    evicted source re-enters a *shared* graph: the runtime passes its
    guest-tracked admission so the re-added point stays subject to the
    guest bound; without it the point is added directly.
    """

    def __init__(
        self,
        graph: VisibilityGraph,
        source_point: Point,
        source: ObstacleSource,
        *,
        grow: Callable[[float], bool] | None = None,
        readmit: Callable[[], None] | None = None,
        stats: "object | None" = None,
    ) -> None:
        if not graph.has_node(source_point):
            graph.add_entity(source_point)
        self._graph = graph
        self._q = source_point
        self._source = source
        self._grow = grow
        self._readmit = readmit
        self._stats = stats
        self._field: dict[Point, float] | None = None
        self._field_revision = -1
        #: What a running :meth:`batch_eval` has yet to evaluate, last
        #: first (an engine may fetch their anchors ahead of time).
        self._ahead: list[Point] = []

    @property
    def graph(self) -> VisibilityGraph:
        """The underlying (growing) local visibility graph."""
        return self._graph

    def distance_to(self, p: Point, *, bound: float = inf) -> float:
        """The obstructed distance from the source to ``p`` (Fig. 8).

        With a finite ``bound``, iteration stops as soon as the
        provisional lower bound exceeds it (see
        :func:`compute_obstructed_distance`).
        """
        if self._grow is not None:
            # Revalidate a runtime-managed graph before evaluating: a
            # dynamic obstacle update since the last call must not let
            # a stale provisional short-circuit via the bound check.
            self._grow(0.0)
        while True:
            d = self._provisional(p)
            if d > bound:
                return d
            if not self._enlarge(d):
                return d

    def batch_eval(
        self, points: "list[Point]", *, bound: float = inf
    ) -> list[float]:
        """Distances from the source to every point in ``points``.

        One revalidation, one traced span, and one shared provisional
        field serve the whole batch — the range-refinement and
        nearest-seed paths hand their entire candidate set here instead
        of looping ``distance_to``.  Semantics per candidate are
        exactly :meth:`distance_to` (including the Fig. 8 enlargement
        fixpoint and the ``bound`` early exit).
        """
        from repro.obs.trace import TRACER

        points = list(points)
        with TRACER.span("field.batch_eval", size=len(points)):
            if self._grow is not None:
                self._grow(0.0)
            out: list[float] = []
            ahead = self._ahead = points[::-1]
            while ahead:
                p = ahead.pop()
                while True:
                    d = self._provisional(p)
                    if d > bound or not self._enlarge(d):
                        break
                out.append(d)
        TRACER.count("field.batch_eval")
        if self._stats is not None:
            self._stats.field_batch_evals += 1
        return out

    def _enlarge(self, radius: float) -> bool:
        if self._grow is not None:
            return self._grow(radius)
        retrieved = self._source.obstacles_in_range(self._q, radius)
        new_obstacles = [
            o for o in retrieved if not self._graph.has_obstacle(o.oid)
        ]
        for obs in new_obstacles:
            self._graph.add_obstacle(obs)
        return bool(new_obstacles)

    def _provisional(self, p: Point) -> float:
        from repro.visibility.shortest_path import dijkstra
        from repro.visibility.sweep import visible_from

        if p == self._q:
            return 0.0
        if not self._graph.has_node(self._q):
            # A shared, cached graph may have evicted this field's
            # source in the meantime (guest-point bound of the spatial
            # cache key): re-admit it before evaluating.
            if self._readmit is not None:
                self._readmit()
            else:
                self._graph.add_entity(self._q)
        revision = self._graph.obstacle_revision
        if self._field is None or self._field_revision != revision:
            self._field = dijkstra(self._graph, self._q)
            self._field_revision = revision
        field = self._field
        if self._graph.has_node(p):
            dp = field.get(p)
            if dp is not None:
                return dp
            # p joined the graph after the field's Dijkstra snapshot
            # (free-point admissions — e.g. a shared graph taking on a
            # near-duplicate centre as a guest — do not bump
            # obstacle_revision).  The field would wrongly report inf;
            # answer through p's live adjacency instead.  Neighbours
            # absent from the field are themselves post-snapshot free
            # points, safe to skip: a shortest path never turns at a
            # free point, so any path through one also leaves p along
            # a direct edge to a fielded node.
            best = inf
            for v, w in self._graph.neighbors(p).items():
                dv = field.get(v)
                if dv is not None and dv + w < best:
                    best = dv + w
            # Memoize: this equals what Dijkstra would have stored for
            # p, and the field is discarded on any revision bump.
            field[p] = best
            return best
        best = inf
        for v in visible_from(p, self._graph):
            dv = field.get(v)
            if dv is not None:
                candidate = dv + v.distance(p)
                if candidate < best:
                    best = candidate
        return best


class ObstructedDistanceComputer:
    """Reusable obstructed-distance evaluation with graph caching.

    OCP and the standalone ``obstructed_distance`` API compute distances
    between arbitrary point pairs.  Rebuilding a visibility graph per
    pair is wasteful when consecutive pairs share their first point (the
    paper makes the same observation for ODJ seeds), so graphs are
    cached per source point.

    This is now a thin compatibility facade over the shared runtime:
    the cache is the true-LRU, versioned
    :class:`~repro.runtime.cache.VisibilityGraphCache` owned by a
    :class:`~repro.runtime.context.QueryContext` (pass ``context`` to
    share one across query types; otherwise a private context is
    created over ``source``).
    """

    def __init__(
        self,
        source: ObstacleSource,
        *,
        cache_size: int = 32,
        context: "QueryContext | None" = None,
    ) -> None:
        from repro.runtime.context import QueryContext

        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if context is None:
            context = QueryContext(source, cache_size=cache_size)
        self._context = context

    @property
    def context(self) -> "QueryContext":
        """The runtime context holding the shared graph cache."""
        return self._context

    def distance(self, p: Point, q: Point, *, bound: float = inf) -> float:
        """Obstructed distance ``d_O(p, q)``.

        The cache is keyed by ``q`` (the expansion center of Fig. 8's
        range retrievals).  ``bound`` enables the threshold pruning of
        :func:`compute_obstructed_distance`.
        """
        return self._context.distance(p, q, bound=bound)

    def clear(self) -> None:
        """Drop all cached graphs."""
        self._context.invalidate()
