"""The test suite's independent oracles, over the dict adjacency.

``reference_dijkstra`` is a plain binary-heap Dijkstra [D59] over a
:class:`VisibilityGraph`'s dict-of-dicts adjacency — the search
``CSRGraph.dijkstra`` is bit-identical to.  ``reference_distance`` is
Fig. 8 between two graph nodes, growing the graph in place.
``ReferenceField`` is Fig. 8 from ``q`` over a private graph with ``q``
inserted: the oracle the one engine,
:class:`repro.core.distance.SourceDistanceField`, equals bit for bit.
"""

import heapq
from itertools import count
from math import inf
from typing import Iterable

from repro.geometry.point import Point
from repro.visibility import VisibilityGraph


def reference_dijkstra(
    graph: VisibilityGraph,
    source: Point,
    *,
    bound: float = inf,
    targets: Iterable[Point] | None = None,
) -> dict[Point, float]:
    """Distances from ``source`` to settled nodes.

    Expansion stops beyond ``bound`` and, when ``targets`` is given, as
    soon as every target has been settled (or proven unreachable within
    the bound).  Unreached nodes are absent from the result.
    """
    if not graph.has_node(source):
        return {}
    remaining = set(targets) if targets is not None else None
    dist: dict[Point, float] = {}
    # Best tentative distance per pushed node.  A relaxation that does
    # not strictly improve on it is dominated — the cheaper entry is
    # already in the heap — so it is never pushed, and any entry popped
    # above the tentative value is stale and skipped.  Settled values
    # are unchanged (the minimum relaxation is always pushed); only the
    # heap traffic shrinks, from one entry per relaxation to one per
    # strict improvement.
    best: dict[Point, float] = {source: 0.0}
    tiebreak = count()
    heap: list[tuple[float, int, Point]] = [(0.0, next(tiebreak), source)]
    while heap:
        d, __, node = heapq.heappop(heap)
        if node in dist or d > best.get(node, -inf):
            continue
        if d > bound:
            break
        dist[node] = d
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for nbr, w in graph.neighbors(node).items():
            if nbr not in dist:
                nd = d + w
                if nd <= bound and nd < best.get(nbr, inf):
                    best[nbr] = nd
                    heapq.heappush(heap, (nd, next(tiebreak), nbr))
    return dist


def graph_distance(graph: VisibilityGraph, a: Point, b: Point) -> float:
    """The shortest path between nodes ``a`` and ``b`` of ``graph``
    (``inf`` when either is missing or they are disconnected)."""
    if a == b:
        return 0.0
    return reference_dijkstra(graph, a, targets=[b]).get(b, inf)


def reference_distance(graph, p, q, source, *, bound=inf):
    """Fig. 8 between nodes ``p`` and ``q`` of ``graph``: search, then
    add the obstacles within the distance of ``q``, until none is new
    or the distance exceeds ``bound``."""
    d = graph_distance(graph, p, q)
    while d <= bound and graph.add_obstacles(source.obstacles_in_range(q, d)):
        d = graph_distance(graph, p, q)
    return d


class ReferenceField:
    def __init__(self, q, index, backend=None):
        self.q, self.index = q, index
        self.graph = VisibilityGraph.build([q], [], method=backend)
        self._field, self._revision = {}, -1

    def distance_to(self, p, bound=inf):
        while True:
            d = self._provisional(p)
            if d > bound:
                return d
            found = self.index.obstacles_in_range(self.q, d)
            if not [o for o in found if self.graph.add_obstacle(o)]:
                return d

    def _provisional(self, p):
        graph = self.graph
        if p == self.q:
            return 0.0
        if self._revision != graph.obstacle_revision:
            self._field = reference_dijkstra(graph, self.q)
            self._revision = graph.obstacle_revision
        if graph.has_node(p):
            return self._field.get(p, inf)
        (seen,) = graph.visible_from_many((p,))
        return min(
            (self._field[v] + v.distance(p) for v in seen if v in self._field),
            default=inf,
        )
