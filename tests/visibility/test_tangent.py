"""The tangent visibility graph [PV95]: the rule, the build, and the
distances it keeps.

Every graph is built tangent: an edge joins two mutually visible nodes
whose segment is tangent at both ends (``is_tangent_at`` at every
obstacle an end is a vertex of; free points impose nothing).  The
property at the bottom holds each backend's graphs to that edge set
through builds, growth steps, repairs and entity churn on degenerate
scenes, and their distances between free points to the full
visibility graph's, bit for bit but for a bend the rule drops that is
straight but for rounding.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ObstacleDatabase
from repro.errors import GeometryError
from repro.geometry import Point, Polygon, Rect
from repro.model import Obstacle
from repro.visibility import VisibilityGraph, is_visible
from repro.visibility.csr import frozen
from repro.visibility.tangent import is_tangent_at
from tests.conftest import random_disjoint_rects, random_free_points, rect_obstacle
from tests.reference_field import (
    FullGraph,
    bend_below_rounding,
    full_distance,
    graph_distance,
    reference_dijkstra,
    tangent_edges,
)

BACKENDS = ["naive", "numpy-kernel"]

L_SHAPE = Polygon(
    [Point(0, 0), Point(4, 0), Point(4, 2), Point(2, 2), Point(2, 4), Point(0, 4)]
)


class TestIsTangentAt:
    BOX = rect_obstacle(0, 0, 0, 10, 10)

    def test_boundary_edge_is_tangent(self):
        assert is_tangent_at(Point(0, 0), Point(10, 0), self.BOX)

    def test_collinear_with_edge_is_tangent(self):
        # the line through (0,0) toward (-5,0) contains neighbour (10,0)
        assert is_tangent_at(Point(0, 0), Point(-5, 0), self.BOX)

    def test_supporting_line_is_tangent(self):
        # both neighbours are strictly left of the line to (5, -5)
        assert is_tangent_at(Point(0, 0), Point(5, -5), self.BOX)

    def test_separating_line_not_tangent(self):
        # the diagonal direction separates neighbours (10,0) and (0,10)
        assert not is_tangent_at(Point(0, 0), Point(-5, -5), self.BOX)
        assert not is_tangent_at(Point(0, 0), Point(20, 15), self.BOX)

    def test_non_vertex_rejected(self):
        with pytest.raises(GeometryError):
            is_tangent_at(Point(5, 5), Point(0, 0), self.BOX)


def _edge_set(graph):
    return {frozenset((u, v)) for u in graph.nodes() for v in graph.neighbors(u)}


@pytest.mark.parametrize("backend", BACKENDS)
class TestTangentBuild:
    def test_edges_are_the_tangent_visible_pairs(self, backend):
        rng = random.Random(17)
        obstacles = random_disjoint_rects(rng, 10)
        points = random_free_points(rng, 6, obstacles)
        graph = VisibilityGraph.build(points, obstacles, method=backend)
        assert _edge_set(graph) == tangent_edges(graph)
        full = FullGraph(points, obstacles)
        assert graph.edge_count < sum(map(len, full.adj.values())) // 2
        for a in points[:3]:
            for b in points[3:]:
                assert graph_distance(graph, a, b) == graph_distance(full, a, b)

    def test_boundary_edges_survive(self, backend):
        box = rect_obstacle(0, 2, 2, 8, 8)
        g = VisibilityGraph.build([], [box], method=backend)
        corners = box.polygon.vertices
        for i, u in enumerate(corners):
            v = corners[(i + 1) % 4]
            assert v in g.neighbors(u)
        assert g.edge_count == 4  # the diagonals cross the interior

    def test_free_point_edges_to_tangent_corners_only(self, backend):
        box = rect_obstacle(0, 2, 2, 8, 8)
        p = Point(0, 0)
        g = VisibilityGraph.build([p], [box], method=backend)
        nbrs = set(g.neighbors(p))
        # (2,8) and (8,2) are the silhouette (tangent) corners from
        # (0,0); the near corner (2,2) is visible, but the supporting
        # line separates its polygon neighbours (no shortest path ever
        # bends there), so the pair is never an edge.
        assert nbrs == {Point(2, 8), Point(8, 2)}

    def test_non_convex_obstacle_keeps_distances(self, backend):
        """The rule holds at a reflex vertex too: a shortest path never
        turns there."""
        obstacles = [Obstacle(0, L_SHAPE)]
        points = [Point(3, 3), Point(-1, -1), Point(5, 1), Point(1, 5)]
        graph = VisibilityGraph.build(points, obstacles, method=backend)
        assert _edge_set(graph) == tangent_edges(graph)
        # The reflex corner (2, 2) is an end of no edge but its sides.
        assert set(graph.neighbors(Point(2, 2))) == {Point(4, 2), Point(2, 4)}
        full = FullGraph(points, obstacles)
        for a in points:
            for b in points:
                assert graph_distance(graph, a, b) == graph_distance(full, a, b)

    def test_shortest_path_around_hexagon(self, backend):
        hexagon = Obstacle(0, Polygon.regular(Point(0, 0), 5.0, 6))
        a, b = Point(-10, 0), Point(10, 0)
        graph = VisibilityGraph.build([a, b], [hexagon], method=backend)
        d = graph_distance(graph, a, b)
        assert d == graph_distance(FullGraph([a, b], [hexagon]), a, b)
        assert d > 20.0

    def test_connect_of_many_graphs_equals_each_build(self, backend):
        scenes = [
            ([Point(-1, k)], [rect_obstacle(0, 0, 0, 3 + k, 2), L_SHAPE_AT(k)])
            for k in range(4)
        ]
        graphs = [VisibilityGraph.registered(p, o, method=backend) for p, o in scenes]
        VisibilityGraph.connect(graphs)
        for graph, (points, obstacles) in zip(graphs, scenes):
            built = VisibilityGraph.build(points, obstacles, method=backend)
            assert not graph.pending
            assert {u: dict(graph.neighbors(u)) for u in graph.nodes()} == {
                u: dict(built.neighbors(u)) for u in built.nodes()
            }


def L_SHAPE_AT(k):
    return Obstacle(
        1, Polygon([Point(v.x + 10 + k, v.y + 1) for v in L_SHAPE.vertices])
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_edge_through_an_overlap(backend):
    """The corner (9, 1) of the second rectangle lies inside the square:
    a sweep from it must see nothing, so no path cuts through the
    square (both sweeps answered 20.9392 before)."""
    obstacles = [rect_obstacle(0, 0, 0, 10, 10), rect_obstacle(1, 9, -5, 20, 1)]
    db = ObstacleDatabase(
        [o.mbr for o in obstacles], max_entries=8, min_entries=3, backend=backend
    )
    d = db.obstructed_distance((-1, -1), (11, 11))
    assert d == pytest.approx(22.0907220343745)
    assert d == full_distance(Point(-1, -1), Point(11, 11), obstacles)
    graph = VisibilityGraph.build([], obstacles, method=backend)
    assert graph.neighbors(Point(9, 1)) == {}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "a, b, want",
    [
        ((0, 0), (-5, -3), math.hypot(5, 3)),  # corner -> free
        ((-5, -3), (0, 0), math.hypot(5, 3)),  # free -> corner
        ((0, 0), (20, 20), 10 + math.hypot(10, 20)),  # corner -> corner
        ((20, 20), (0, 0), 10 + math.hypot(10, 20)),
    ],
)
def test_endpoints_on_corners_keep_their_straight_legs(backend, a, b, want):
    """A query endpoint on an obstacle corner reaches every node it
    sees: its first or last leg need not be tangent there."""
    db = ObstacleDatabase(
        [Rect(0, 0, 10, 10), Rect(20, 20, 30, 30)],
        max_entries=8,
        min_entries=3,
        backend=backend,
    )
    assert db.obstructed_distance(a, b) == pytest.approx(want)
    db.add_entity_set("E", [Point(*b)])
    assert db.nearest("E", a, 1)[0][1] == pytest.approx(want)


# ------------------------------------------------------------ the property
@st.composite
def tangent_scenes(draw):
    """Lattice rectangles (touching, vertex-sharing, T-junctions,
    collinear runs — ``test_exact``'s), overlapping rectangles and
    L-shapes, with free points on corners, on edges and off them."""
    from tests.visibility.test_exact import lattice, lattice_rects

    polys = draw(st.lists(lattice_rects(), min_size=1, max_size=4))
    for __ in range(draw(st.integers(0, 1))):
        x, y = draw(lattice), draw(lattice)
        s = draw(st.sampled_from([1.0, 0.5]))
        polys.append(
            Polygon([Point(x + s * v.x, y + s * v.y) for v in L_SHAPE.vertices])
        )
    if draw(st.booleans()):  # off the lattice: overlaps at generic floats
        x, y = draw(lattice), draw(lattice)
        polys.append(Polygon(Rect(x + 0.3, y - 0.7, x + 2.6, y + 1.9).corners()))
    obstacles = [Obstacle(i, poly) for i, poly in enumerate(polys)]
    corners = [v for poly in polys for v in poly.vertices]
    half = st.sampled_from([0.0, 0.5])
    points = draw(
        st.lists(
            st.one_of(
                st.sampled_from(corners),
                st.builds(Point, st.builds(float.__add__, lattice, half), lattice),
                st.builds(Point, st.floats(-1, 9), st.floats(-1, 9)),
            ),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    return obstacles, points


def _check(graph, obstacles, points):
    csr = frozen(graph)  # connects what the step left pending
    assert not graph.pending
    full = FullGraph(graph.nodes(), obstacles)
    edges = _edge_set(graph)
    assert edges == tangent_edges(graph, full)
    free = [p for p in points if p in graph.free_points()]
    for a in free:
        want = reference_dijkstra(full, a)
        got = csr.field(a, graph)
        for b in free:
            # Straight legs first, on both sides: a pair that sees each
            # other is at its straight leg, which a bend of either graph
            # may undercut by an ulp (ROADMAP item 1, defect (i)).
            if is_visible(a, b, obstacles):
                assert graph.sees(a, b), (a, b)
                continue
            if got[csr.index[b]] != want.get(b, math.inf):
                _assert_undercut_by_a_dropped_bend(
                    full, want, edges, a, b, got[csr.index[b]]
                )


def _assert_undercut_by_a_dropped_bend(full, dist, edges, a, b, got):
    """The one way the full graph's distance ``dist[b]`` may differ from
    the tangent graph's ``got``: a few ulps lower, along a shortest
    path (each step a relaxation summing to the next distance exactly)
    that turns at a vertex ``v`` between ``u`` and ``w`` where the
    tangent rule drops ``u - v`` or ``v - w``, and the bend is straight
    but for rounding — longer in the reals, it may sum an ulp lower."""
    assert dist[b] < got <= dist[b] + 4 * math.ulp(got), (a, b)
    tight = {
        v: [
            u
            for u, w in full.neighbors(v).items()
            if u in dist and (u == a or u not in full.free) and dist[u] + w == dist[v]
        ]
        for v in dist
    }
    seen = set()
    steps = [(b, None)]  # a node of such a path, and the next one
    while steps:
        v, w = steps.pop()
        if (v, w) in seen:
            continue
        seen.add((v, w))
        for u in tight[v]:
            if (
                w is not None
                and not {frozenset((u, v)), frozenset((v, w))} <= edges
                and bend_below_rounding(u, v, w)
            ):
                return
            steps.append((u, v))
    raise AssertionError(f"{a} to {b}: {got} on the graph, {dist[b]} on the full")


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(scene=tangent_scenes(), data=st.data())
def test_every_graph_is_the_tangent_graph(backend, scene, data):
    """Build, ``add_obstacles`` in any order, ``remove_obstacle``,
    ``add_entity`` and ``delete_entity``: after each step the edges are
    ``{u < v : is_visible and tangent at both ends}``, and distances
    between free points equal the full graph's under ``==`` — straight
    legs first: a pair that sees each other is its straight leg — but
    where the full graph's path turns at a bend the tangent rule drops
    that is straight but for rounding (``(0.3, 0.30000000000000004)``
    between ``(2.6, 0.30000000000000004)`` and ``(0, 0.3)``): longer in
    the reals, it may sum an ulp lower."""
    obstacles, points = scene
    held = data.draw(st.integers(0, len(obstacles)))
    graph = VisibilityGraph.build(points[:-1], obstacles[:held], method=backend)
    _check(graph, obstacles[:held], points[:-1])
    graph.add_obstacles(data.draw(st.permutations(obstacles[held:])))
    _check(graph, obstacles, points[:-1])
    graph.add_entity(points[-1])
    _check(graph, obstacles, points)
    victim = data.draw(st.sampled_from(obstacles))
    assert graph.remove_obstacle(victim.oid)
    rest = [o for o in obstacles if o is not victim]
    _check(graph, rest, points)
    graph.delete_entity(points[0])
    _check(graph, rest, points[1:])
