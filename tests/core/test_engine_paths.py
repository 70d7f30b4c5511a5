"""Tests for ObstacleDatabase.shortest_path."""

import math
import random

import pytest

from repro import ObstacleDatabase, Point, Rect
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
        assert len(path) == 4
        walked = sum(path[i].distance(path[i + 1]) for i in range(len(path) - 1))
        assert walked == pytest.approx(d)
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


class TestShortestPathOnSharedGraphs:
    """With spatial keys neither endpoint need be a node of the cached
    graph that serves them: both are transient there."""

    def test_route_equals_exact_keys_and_graphs_are_restored(self):
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
                assert route[0] == pytest.approx(d)
                after = graphs()
                assert after.keys() == before.keys()
                for center, (revision, nodes, free) in before.items():
                    assert after[center][1:] == (nodes, free)
                    assert free == {center}
            shared_cells += near not in graphs()
        assert shared_cells > len(pairs) // 2
