"""Tests for the ObstacleDatabase facade."""

import math
import random

import pytest

from repro import ObstacleDatabase
from repro.errors import DatasetError, QueryError
from repro.geometry import Point, Polygon, Rect
from repro.model import Obstacle
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
)


@pytest.fixture
def city():
    rng = random.Random(2004)
    obstacles = random_disjoint_rects(rng, 12)
    a = random_free_points(rng, 20, obstacles)
    b = random_free_points(rng, 15, obstacles)
    db = ObstacleDatabase(obstacles, max_entries=8, min_entries=3)
    db.add_entity_set("a", a)
    db.add_entity_set("b", b)
    return db, obstacles, a, b


class TestDatasets:
    def test_accepts_rects_polygons_obstacles(self):
        db = ObstacleDatabase(
            [
                Rect(0, 0, 1, 1),
                Polygon.from_rect(Rect(5, 5, 6, 6)),
                Obstacle(99, Polygon.from_rect(Rect(10, 10, 11, 11))),
            ]
        )
        assert len(db.obstacle_tree) == 3

    def test_rejects_garbage_obstacle(self):
        with pytest.raises(DatasetError):
            ObstacleDatabase(["wall"])

    def test_obstacle_ids_reassigned_globally(self):
        db = ObstacleDatabase([Rect(0, 0, 1, 1)])
        db.add_obstacle_set("more", [Rect(5, 5, 6, 6)])
        oids = [o.oid for o, __ in db.obstacle_tree.items()]
        more = db._obstacle_indexes["more"].tree
        oids += [o.oid for o, __ in more.items()]
        assert len(set(oids)) == 2

    def test_duplicate_set_names_rejected(self):
        db = ObstacleDatabase([Rect(0, 0, 1, 1)])
        db.add_entity_set("x", [Point(1, 1)])
        with pytest.raises(DatasetError):
            db.add_entity_set("x", [Point(2, 2)])
        with pytest.raises(DatasetError):
            db.add_obstacle_set("obstacles", [Rect(2, 2, 3, 3)])

    def test_unknown_entity_set(self):
        db = ObstacleDatabase([Rect(0, 0, 1, 1)])
        with pytest.raises(DatasetError):
            db.range("ghosts", Point(0, 0), 1.0)

    def test_point_coercion(self):
        db = ObstacleDatabase([Rect(10, 10, 12, 12)])
        db.add_entity_set("p", [(1.0, 2.0), Point(3, 4)])
        assert len(db.entity_tree("p")) == 2
        with pytest.raises(QueryError):
            db.nearest("p", "not-a-point", 1)

    def test_insert_delete_entity(self):
        db = ObstacleDatabase([Rect(10, 10, 12, 12)], max_entries=8, min_entries=3)
        db.add_entity_set("p", [Point(0, 0)])
        db.insert_entity("p", Point(5, 5))
        assert len(db.entity_tree("p")) == 2
        assert db.delete_entity("p", Point(5, 5))
        assert not db.delete_entity("p", Point(99, 99))
        assert len(db.entity_tree("p")) == 1

    def test_universe_covers_everything(self):
        db = ObstacleDatabase([Rect(0, 0, 1, 1)])
        db.add_entity_set("p", [Point(100, 100)])
        u = db.universe()
        assert u.contains_point(Point(100, 100))
        assert u.contains_point(Point(0, 0))


class TestQueries:
    def test_range_consistent_with_oracle(self, city):
        db, obstacles, a, __ = city
        q = Point(50, 50)
        got = dict(db.range("a", q, 30.0))
        for p, d in got.items():
            assert d == pytest.approx(oracle_distance(q, p, obstacles))

    def test_nearest_and_inearest_agree(self, city):
        db, __, __, __ = city
        q = Point(20, 80)
        batch = db.nearest("a", q, 5)
        stream = db.inearest("a", q)
        inc = [next(stream) for __ in range(5)]
        assert [d for __, d in batch] == pytest.approx([d for __, d in inc])

    def test_join_subset_of_euclidean(self, city):
        db, __, __, __ = city
        for s, t, d in db.distance_join("a", "b", 25.0):
            assert s.distance(t) <= 25.0 + 1e-9
            assert d <= 25.0 + 1e-9

    def test_closest_pairs_and_stream_agree(self, city):
        db, __, __, __ = city
        batch = db.closest_pairs("a", "b", 4)
        stream = db.iclosest_pairs("a", "b")
        inc = [next(stream) for __ in range(4)]
        assert [d for *__, d in batch] == pytest.approx([d for *__, d in inc])

    def test_obstructed_distance_matches_oracle(self, city):
        db, obstacles, a, b = city
        d = db.obstructed_distance(a[0], b[0])
        assert d == pytest.approx(oracle_distance(a[0], b[0], obstacles))

    def test_tuple_queries(self, city):
        db, __, __, __ = city
        res = db.nearest("a", (50.0, 50.0), 1)
        assert len(res) == 1


class TestMultipleObstacleSets:
    def test_second_set_obstructs(self):
        # Without the second set the path is straight; with it, longer.
        db1 = ObstacleDatabase([Rect(100, 100, 101, 101)], max_entries=8, min_entries=3)
        base = db1.obstructed_distance(Point(0, 0), Point(10, 0))
        assert base == pytest.approx(10.0)
        db2 = ObstacleDatabase([Rect(100, 100, 101, 101)], max_entries=8, min_entries=3)
        db2.add_obstacle_set("construction", [Rect(4, -5, 6, 5)])
        detour = db2.obstructed_distance(Point(0, 0), Point(10, 0))
        assert detour > 10.0


class TestStats:
    def test_stats_reported_per_tree(self, city):
        db, __, __, __ = city
        db.reset_stats(clear_buffers=True)
        db.nearest("a", Point(50, 50), 3)
        stats = db.stats()
        assert "entities:a" in stats
        assert "obstacles:obstacles" in stats
        assert stats["entities:a"]["reads"] > 0

    def test_reset(self, city):
        db, __, __, __ = city
        db.nearest("a", Point(50, 50), 3)
        db.reset_stats()
        assert all(v["reads"] == 0 for v in db.stats().values())


class TestDynamicBuild:
    def test_bulk_false(self):
        rng = random.Random(5)
        obstacles = random_disjoint_rects(rng, 8)
        db = ObstacleDatabase(obstacles, bulk=False, max_entries=8, min_entries=3)
        db.add_entity_set("p", random_free_points(rng, 10, obstacles))
        db.obstacle_tree.check_invariants()
        db.entity_tree("p").check_invariants()
        assert len(db.entity_tree("p")) == 10
