"""Tests for ObstacleDatabase.shortest_path."""

import math
import random

import pytest

from repro import ObstacleDatabase, Point, Polygon, Rect
from repro.visibility import is_visible
from repro.visibility.csr import CSRGraph, frozen
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
)


class TestShortestPath:
    def test_trivial(self):
        db = ObstacleDatabase([Rect(50, 50, 60, 60)], max_entries=8, min_entries=3)
        d, path = db.shortest_path(Point(1, 1), Point(1, 1))
        assert d == 0.0 and path == [Point(1, 1)]

    def test_straight_line_when_clear(self):
        db = ObstacleDatabase([Rect(50, 50, 60, 60)], max_entries=8, min_entries=3)
        d, path = db.shortest_path(Point(0, 0), Point(3, 4))
        assert d == pytest.approx(5.0)
        assert path == [Point(0, 0), Point(3, 4)]

    def test_detour_route(self):
        db = ObstacleDatabase([Rect(4, -10, 6, 10)], max_entries=8, min_entries=3)
        d, path = db.shortest_path(Point(0, 0), Point(10, 0))
        assert path[0] == Point(0, 0) and path[-1] == Point(10, 0)
        assert len(path) == 4  # both bends at wall-end corners
        walked = sum(path[i].distance(path[i + 1]) for i in range(len(path) - 1))
        assert walked == d
        expected = 2 * math.hypot(4, 10) + 2.0
        assert d == pytest.approx(expected)

    def test_path_segments_avoid_interiors(self):
        rng = random.Random(8)
        obstacles = random_disjoint_rects(rng, 12)
        pts = random_free_points(rng, 4, obstacles)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles], max_entries=8, min_entries=3
        )
        for a, b in zip(pts[:2], pts[2:]):
            d, path = db.shortest_path(a, b)
            assert d == pytest.approx(oracle_distance(a, b, obstacles))
            for u, v in zip(path, path[1:]):
                for o in obstacles:
                    assert not o.polygon.crosses_interior(u, v)

    def test_tuple_inputs(self):
        db = ObstacleDatabase([Rect(50, 50, 60, 60)], max_entries=8, min_entries=3)
        d, path = db.shortest_path((0.0, 0.0), (3.0, 4.0))
        assert d == pytest.approx(5.0)

    def test_sealed_start_has_no_route(self):
        # Overlapping walls close every seam around the origin.
        walls = [
            Rect(-10, -10, 10, -7),
            Rect(-10, 7, 10, 10),
            Rect(-10, -9, -7, 9),
            Rect(7, -9, 10, 9),
        ]
        db = ObstacleDatabase(walls, max_entries=8, min_entries=3, backend="naive")
        assert db.shortest_path(Point(0, 0), Point(50, 50)) == (math.inf, [])

    @pytest.mark.parametrize("start_is_vertex", [False, True])
    def test_route_from_or_to_an_obstacle_vertex(self, start_is_vertex):
        """A vertex is a node of the graph: the route starts or ends
        there without repeating it."""
        db = ObstacleDatabase([Rect(4, -10, 6, 10)], max_entries=8, min_entries=3)
        a, b = Point(4, 10), Point(10, 0)
        if start_is_vertex:
            d, path = db.shortest_path(a, b)
            assert path == [a, Point(6, 10), b]
        else:
            d, path = db.shortest_path(b, a)
            assert path == [b, Point(6, 10), a]
        assert d == a.distance(Point(6, 10)) + Point(6, 10).distance(b)

    @pytest.mark.parametrize("backend", ["naive", "numpy-kernel"])
    def test_route_over_a_leg_shorter_than_an_ulp(self, backend):
        """``(5e-324, 0)`` is hidden from ``(0, 1)`` — the segment runs
        through the square's interior — and reached past the corner
        ``(0, 0)`` by a last leg too short to move the float sum: the
        walk back takes a tight node of equal field."""
        db = ObstacleDatabase([Rect(0, 0, 1, 1)], backend=backend)
        a, b = Point(0, 1), Point(5e-324, 0)
        assert Polygon.from_rect(Rect(0, 0, 1, 1)).crosses_interior(a, b)
        assert db.shortest_path(a, b) == (1.0, [a, Point(0, 0), b])


def _memo_state(db):
    """Per cached graph: what a read must leave alone — its structure
    revision, its freeze (by identity), and the roots and points its
    freeze has memoized.  A graph every pair of which was a straight
    leg has no freeze — pending live, or connected by a save and
    loaded — and must stay so."""
    state = {}
    for entry in db.context.cache.entries():
        graph = entry.graph
        if graph._csr is None or graph._csr[0] != graph.structure_revision:
            state[entry.center] = (graph.structure_revision, None, set(), set())
            continue
        __, csr = graph._csr
        state[entry.center] = (
            graph.structure_revision,
            id(csr),
            set(csr.fields),
            set(csr.anchors),
        )
    return state


def _valid(route, d, obstacles):
    for u, v in zip(route, route[1:]):
        assert is_visible(u, v, obstacles)
    assert sum(u.distance(v) for u, v in zip(route, route[1:])) == d


class TestShortestPathIsARead:
    """A route is read back off the cached graph serving its goal: the
    graph keeps its structure revision and its freeze, and every field
    and anchor memoized there before the call stays memoized."""

    @staticmethod
    def _scene(seed):
        rng = random.Random(seed)
        obstacles = random_disjoint_rects(rng, 14)
        pts = random_free_points(rng, 10, obstacles)
        vertex = obstacles[0].polygon.vertices[0]
        pairs = [(a, b) for a in pts[:3] for b in pts[3:7]]
        pairs += [(pts[7], vertex), (vertex, pts[8]), (pts[8], pts[9])]
        # Off the centre of the graph that serves it (spatial keys).
        pairs += [(pts[0], Point(pts[3].x + 0.3, pts[3].y - 0.2))]
        return obstacles, pairs

    @staticmethod
    def _check(db, obstacles, pairs):
        for a, b in pairs:
            d = db.obstructed_distance(a, b)  # coverage and freeze
            before = _memo_state(db)
            got, route = db.shortest_path(a, b)
            after = _memo_state(db)
            assert after.keys() == before.keys()
            for center, (revision, freeze, fields, anchors) in before.items():
                assert after[center][:2] == (revision, freeze)
                assert fields <= after[center][2]
                assert anchors <= after[center][3]
            assert got == d == db.obstructed_distance(a, b)
            assert math.isfinite(d) and route[0] == a and route[-1] == b
            _valid(route, d, obstacles)

    @pytest.mark.parametrize("snap", [0.0, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_cached_graph_keeps_revision_freeze_and_memos(self, snap, seed):
        obstacles, pairs = self._scene(seed)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles],
            max_entries=8,
            min_entries=3,
            graph_cache_snap=snap,
        )
        self._check(db, obstacles, pairs)

    @pytest.mark.parametrize("seed", range(3))
    def test_installed_snapshot_freeze_is_kept(self, seed, tmp_path):
        obstacles, pairs = self._scene(seed)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles], max_entries=8, min_entries=3
        )
        for a, b in pairs:
            db.obstructed_distance(a, b)
        path = tmp_path / "warm.snap"
        db.save(path, include_cache=True)
        loaded = ObstacleDatabase.load(path)
        freezes = loaded.runtime_stats()["field_freezes"]  # restored
        # A graph a straight leg grew after its last freeze was saved
        # connected but not frozen.
        bare = sum(v[1] is None for v in _memo_state(loaded).values())
        self._check(loaded, obstacles, pairs)
        # Every other freeze read was one the snapshot installed.
        assert loaded.runtime_stats()["field_freezes"] - freezes <= bare


class TestRouteAfterDistance:
    def test_the_route_reads_the_distances_field(self, monkeypatch):
        """``d_O(a, b)`` is the field rooted at ``a`` over the graph
        cached for ``b``, memoized on its freeze: the route after it
        searches nothing and anchors nothing, and its legs sum to
        ``d``."""
        rng = random.Random(5)
        obstacles = random_disjoint_rects(rng, 14)
        pts = random_free_points(rng, 12, obstacles)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles], max_entries=8, min_entries=3
        )
        ctx = db.context
        pairs = [
            (a, b) for a in pts[:6] for b in pts[6:]
            if not is_visible(a, b, obstacles)
        ]
        assert len(pairs) >= 3
        searches = []
        dijkstra = CSRGraph.dijkstra

        def spy(csr, *args, **kwargs):
            searches.append(args)
            return dijkstra(csr, *args, **kwargs)

        monkeypatch.setattr(CSRGraph, "dijkstra", spy)
        for a, b in pairs:
            d = db.obstructed_distance(a, b)
            graph = ctx.cache.get(b, ctx.version_for).graph
            assert a in frozen(graph).fields
            del searches[:]
            sweeps = db.runtime_stats()["sweeps_run"]
            got, route = db.shortest_path(a, b)
            assert searches == []
            assert db.runtime_stats()["sweeps_run"] == sweeps
            assert got == d and len(route) > 2
            _valid(route, d, obstacles)


class TestShortestPathOnSharedGraphs:
    """With spatial keys neither endpoint need be a node of the cached
    graph that serves them."""

    def test_route_equals_exact_keys_and_graphs_are_untouched(self):
        rng = random.Random(31)
        obstacles = random_disjoint_rects(rng, 14)
        polygons = [o.polygon for o in obstacles]
        pts = random_free_points(rng, 12, obstacles)
        exact = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3,
            graph_cache_snap=0.0, cache_policy="static",
        )
        shared = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3,
            graph_cache_snap=2.0, cache_policy="adaptive",
        )
        vertex = obstacles[0].polygon.vertices[0]
        pairs = [(a, b) for a in pts[:4] for b in pts[4:]] + [(pts[0], vertex)]

        def graphs():
            return {
                entry.center: (
                    entry.graph.structure_revision,
                    entry.graph.node_count,
                    entry.graph.free_points(),
                )
                for entry in shared.context.cache.entries()
            }

        shared_cells = 0
        for a, b in pairs:
            # `near` is mostly served by the graph centred at b.
            near = Point(b.x + 0.3, b.y - 0.2)
            for start, end in ((a, b), (a, near), (near, a)):
                d = shared.obstructed_distance(start, end)  # coverage
                before = graphs()
                route = shared.shortest_path(start, end)
                assert route == exact.shortest_path(start, end)
                assert route[0] == d
                after = graphs()
                assert after == before
                for center, (__, __, free) in before.items():
                    assert free == {center}
            shared_cells += near not in graphs()
        assert shared_cells > len(pairs) // 2
