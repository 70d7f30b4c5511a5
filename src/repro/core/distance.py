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
many candidates against one fixed source.  Point-to-point distances
with graph reuse are :meth:`repro.runtime.context.QueryContext.distance`,
which owns the persistent, versioned LRU graph cache.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Protocol

from repro.geometry.point import Point
from repro.model import Obstacle
from repro.visibility.csr import CSRGraph, frozen
from repro.visibility.graph import VisibilityGraph

# benchmarks/e2e/e2e_trace.py wraps this name (a `visibility.dijkstra` wrap point).
shortest_path_dist = None


class ObstacleSource(Protocol):
    """Anything that can produce the obstacles intersecting a disk."""

    def obstacles_in_range(self, center: Point, radius: float) -> list[Obstacle]:
        """Obstacles intersecting the closed disk ``(center, radius)``."""


class SourceDistanceField:
    """Obstructed distances from one fixed source over a growing graph.

    ONN evaluates many candidates against the *same* query point.
    Instead of mutating the graph and running Dijkstra per candidate,
    this keeps a complete distance field from the source over the
    graph's frozen arrays (:mod:`repro.visibility.csr`): a candidate's
    graph distance is ``min over its visible nodes v of field[v] +
    |v - candidate|`` (any shortest path leaves the candidate through a
    visible node), found memo, probe, anchors
    (:meth:`~repro.visibility.csr.CSRGraph.last_leg`): memoized anchors
    are read, any other candidate's nodes are tested with the exact
    oracle in ascending order of ``field[v] + |v - candidate|`` — the
    first visible one answers, a lower bound past the caller's
    ``bound`` is returned untested — and only a candidate the probe
    gives up on is anchored.  The source need not be a node either — the
    field then roots at the nodes the source sees, at their straight
    legs — so the graph is only read, never given a free point.  The
    freeze and the field are retaken whenever the graph's structure
    revision moves — whether the obstacles were added by this field's
    own Fig. 8 enlargement or by another user of a shared, cached
    graph.

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
        #: Pinned per structure revision (:meth:`_pin`): the freeze, the
        #: field rooted at the source, whether the source is a node.
        self._revision = -1
        self._csr: "CSRGraph | None" = None
        self._dist = None
        self._q_is_node = False

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
        while True:
            d = self._provisional(p, bound)
            if d > bound:
                return d
            if not self._grow(d):
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
            self._grow(0.0)
            out: list[float] = []
            for p in points:
                while True:
                    d = self._provisional(p, bound)
                    if d > bound or not self._grow(d):
                        break
                out.append(d)
        TRACER.count("field.batch_eval")
        if self._stats is not None:
            self._stats.field_batch_evals += 1
        return out

    def _pin(self) -> None:
        """Take the graph's current freeze and the field rooted at the
        source over it (both memoized on the graph, so a warm repeat
        query at this centre costs two dict lookups)."""
        graph = self._graph
        self._revision = graph.structure_revision
        csr = self._csr = frozen(graph, stats=self._stats)
        self._dist = csr.field(self._q, graph)
        self._q_is_node = self._q in csr.index

    def _provisional(self, p: Point, bound: float) -> float:
        if p == self._q:
            return 0.0
        graph = self._graph
        if graph.structure_revision != self._revision:
            self._pin()
        csr = self._csr
        d = csr.last_leg(self._dist, p, graph, bound=bound, stats=self._stats)
        if not self._q_is_node:
            d = min(d, csr.direct_leg(p, self._q, graph))
        return d
