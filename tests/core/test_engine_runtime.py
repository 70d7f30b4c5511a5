"""The database's persistent query runtime: one context, shared cache."""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from tests.conftest import random_disjoint_rects, random_free_points


@pytest.fixture
def scene_db():
    rng = random.Random(2004)
    obstacles = random_disjoint_rects(rng, 12)
    points = random_free_points(rng, 12, obstacles)
    db = ObstacleDatabase(
        [o.polygon for o in obstacles], max_entries=8, min_entries=3
    )
    db.add_entity_set("pois", points[4:])
    return db, points


class TestPersistentComputer:
    def test_repeated_distance_builds_one_graph(self, scene_db):
        db, points = scene_db
        target = points[0]
        db.reset_stats()
        values = [
            db.obstructed_distance(p, target)
            for __ in range(30)
            for p in points[1:4]
        ]
        stats = db.runtime_stats()
        # The seed rebuilt the computer (and graph) on every call; the
        # persistent context builds the graph for `target` exactly once.
        assert stats["distance_calls"] == 90
        assert stats["graph_builds"] == 1
        again = [
            db.obstructed_distance(p, target)
            for __ in range(30)
            for p in points[1:4]
        ]
        assert values == again

    def test_queries_prime_each_other(self, scene_db):
        db, points = scene_db
        q = points[0]
        db.reset_stats()
        db.nearest("pois", q, 2)
        builds_after_nearest = db.runtime_stats()["graph_builds"]
        db.range("pois", q, 10.0)
        db.obstructed_distance(points[1], q)
        # nearest() built the graph for q; range() and distance() reuse it.
        assert db.runtime_stats()["graph_builds"] == builds_after_nearest

    def test_runtime_stats_reset(self, scene_db):
        db, points = scene_db
        db.obstructed_distance(points[0], points[1])
        assert db.runtime_stats()["distance_calls"] >= 1
        db.reset_stats()
        assert db.runtime_stats()["distance_calls"] == 0

    def test_context_exposed(self, scene_db):
        db, __ = scene_db
        assert db.context.source is db.obstacle_index
        assert db.context.stats.snapshot() == db.runtime_stats()


class TestShortestPathViaContext:
    def test_path_matches_distance(self):
        db = ObstacleDatabase([Rect(4, -10, 6, 10)], max_entries=8, min_entries=3)
        a, b = Point(0, 0), Point(10, 0)
        d, path = db.shortest_path(a, b)
        assert d == pytest.approx(db.obstructed_distance(a, b))
        assert path[0] == a and path[-1] == b
        length = sum(u.distance(v) for u, v in zip(path, path[1:]))
        assert length == pytest.approx(d)
        # The transient start point must not linger in the cached graph.
        entry = db.context.cache.get(b, db.context.version_for)
        assert entry is not None and not entry.graph.has_node(a)
