"""The test suite's independent oracles, over ``Point``-keyed dicts.

``reference_dijkstra`` is a plain binary-heap Dijkstra [D59] over a
:class:`VisibilityGraph`'s adjacency as ``neighbors`` gives it, passing
through no free point but its source — the search
``CSRGraph.dijkstra`` is bit-identical to.  ``FullGraph`` is the
full visibility graph [LW79] — every mutually visible node pair, no
tangent rule — decided pair by pair with ``is_visible``: the graph the
tangent graphs' distances between free points equal; ``tangent_edges``
is the edge set a tangent graph must hold, in scalar code.  ``reference_freeze``
flattens a dict-of-dicts adjacency, hashing every neighbour back to its
row — the arrays ``CSRGraph.freeze`` reads straight off the id rows
must equal it.  ``reference_distance`` is
Fig. 8 between two graph nodes, growing the graph in place.  A search
end on an obstacle vertex is joined to every node it sees
(:class:`Widened`): the graph holds only its tangent edges, and a
path's first and last legs need not be tangent.
``ReferenceField`` is Fig. 8 from ``q`` over a private graph with ``q``
inserted: the oracle the one engine,
:class:`repro.core.distance.SourceDistanceField`, equals bit for bit.
"""

import heapq
from itertools import chain, count
from math import inf
from typing import Iterable, NamedTuple

import numpy as np

from repro.geometry.point import Point
from repro.visibility import VisibilityGraph, is_visible


class Frozen(NamedTuple):
    """What ``reference_freeze`` returns: ``CSRGraph``'s arrays."""

    points: list
    xs: np.ndarray
    ys: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


def reference_freeze(adj: dict[Point, dict[Point, float]]) -> Frozen:
    """Flatten ``adj`` (node insertion order)."""
    points = list(adj)
    n = len(points)
    index = {p: i for i, p in enumerate(points)}
    xs = np.fromiter((p.x for p in points), dtype=np.float64, count=n)
    ys = np.fromiter((p.y for p in points), dtype=np.float64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter((len(adj[p]) for p in points), dtype=np.int64, count=n),
        out=indptr[1:],
    )
    m = int(indptr[-1])
    ids = list(map(index.__getitem__, chain.from_iterable(adj.values())))
    lengths = list(chain.from_iterable(map(dict.values, adj.values())))
    indices = np.fromiter(ids, dtype=np.int32, count=m)
    weights = np.fromiter(lengths, dtype=np.float64, count=m)
    return Frozen(points, xs, ys, indptr, indices, weights)


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
    the bound).  Unreached nodes are absent from the result.  A node of
    ``graph.free_points()`` other than ``source`` settles but is never
    relaxed out of: shortest paths turn only at obstacle vertices.
    """
    if not graph.has_node(source):
        return {}
    remaining = set(targets) if targets is not None else None
    stop = graph.free_points() - {source}
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
        if node in stop:
            continue
        for nbr, w in graph.neighbors(node).items():
            if nbr not in dist:
                nd = d + w
                if nd <= bound and nd < best.get(nbr, inf):
                    best[nbr] = nd
                    heapq.heappush(heap, (nd, next(tiebreak), nbr))
    return dist


class FullGraph:
    """The full visibility graph over ``points`` and ``obstacles``'
    vertices, with the three reads ``reference_dijkstra`` makes."""

    def __init__(self, points, obstacles):
        obstacles, points = list(obstacles), list(points)
        vertices = [v for o in obstacles for v in o.polygon.vertices]
        nodes = list(dict.fromkeys(vertices + points))
        self.free = set(points) - set(vertices)
        self.adj: dict[Point, dict[Point, float]] = {p: {} for p in nodes}
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                if is_visible(a, b, obstacles):
                    self.adj[a][b] = self.adj[b][a] = a.distance(b)

    def has_node(self, p):
        return p in self.adj

    def neighbors(self, p):
        return self.adj[p]

    def free_points(self):
        return self.free


def tangent_edges(
    graph: VisibilityGraph, full: "FullGraph | None" = None
) -> set[frozenset]:
    """``{u < v : is_visible and the tangent rule}`` over ``graph``'s
    nodes and obstacles, pair by pair: ``is_tangent_at`` at each end
    that is a vertex of exactly one obstacle.  ``full``, the full graph
    over the same nodes and obstacles, saves deciding visibility
    again."""
    from repro.visibility.tangent import is_tangent_at

    obstacles = graph.scene_obstacles()
    if full is None:
        full = FullGraph(graph.nodes(), obstacles)
    owners: dict[Point, list] = {}
    for obs in obstacles:
        for v in obs.polygon.vertices:
            owners.setdefault(v, []).append(obs)

    def keeps(v, w):
        held = owners.get(v, ())
        return len(held) != 1 or is_tangent_at(v, w, held[0])

    return {
        frozenset((u, v))
        for u, row in full.adj.items()
        for v in row
        if keeps(u, v) and keeps(v, u)
    }


def full_distance(a: Point, b: Point, obstacles) -> float:
    """The obstructed distance between ``a`` and ``b`` over the full
    visibility graph."""
    return graph_distance(FullGraph([a, b], obstacles), a, b)


class Widened:
    """``graph``'s adjacency with each of ``ends`` that is a node on an
    obstacle vertex joined to every node it sees (``is_visible``): the
    graph keeps only such a node's tangent edges, but a path's first
    and last legs need not be tangent.  The three reads
    ``reference_dijkstra`` makes."""

    def __init__(self, graph, ends):
        self.graph = graph
        obstacles = graph.scene_obstacles()
        vertices = {v for o in obstacles for v in o.polygon.vertices}
        self.extra: dict[Point, dict[Point, float]] = {}
        for e in ends:
            if e in vertices and graph.has_node(e):
                for v in graph.nodes():
                    if v != e and is_visible(e, v, obstacles):
                        self.extra.setdefault(e, {})[v] = e.distance(v)
                        self.extra.setdefault(v, {})[e] = e.distance(v)

    def has_node(self, p):
        return self.graph.has_node(p)

    def neighbors(self, p):
        row = self.graph.neighbors(p)
        extra = self.extra.get(p)
        return {**row, **extra} if extra else row

    def free_points(self):
        return self.graph.free_points()


def graph_distance(graph, a: Point, b: Point) -> float:
    """The shortest path between nodes ``a`` and ``b`` of ``graph``
    (``inf`` when either is missing or they are disconnected); a
    :class:`VisibilityGraph` is :class:`Widened` at both ends first."""
    if a == b:
        return 0.0
    if isinstance(graph, VisibilityGraph):
        graph = Widened(graph, (a, b))
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
            self._field = reference_dijkstra(Widened(graph, (self.q,)), self.q)
            self._revision = graph.obstacle_revision
        obstacles = graph.scene_obstacles()
        if not graph.has_node(p):
            (seen,) = graph.visible_from_many((p,))
        elif any(p in o.polygon.vertices for o in obstacles):
            # A node on an obstacle vertex: its last leg need not be
            # tangent.
            seen = [v for v in graph.nodes() if v != p and is_visible(v, p, obstacles)]
        else:
            return self._field.get(p, inf)
        return min(
            (self._field[v] + v.distance(p) for v in seen if v in self._field),
            default=inf,
        )
