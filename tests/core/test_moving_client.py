"""A moving client is a stream of ``db.nearest`` calls along its route.

The paper leaves moving queries to future work; the library serves a
moving client as its workloads do, with one ``nearest`` per position
through the database's shared spatial cache.  These tests walk routes
through obstacle scenes and check each step against a cold ``naive``
database and the exact distance oracle: the winner hands over where
the obstructed distances cross, an obstacle moves that handover,
repeating a route builds no graph, and a mutation made mid-route is
answered at the next step.
"""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.errors import DatasetError, QueryError
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)

BACKENDS = ["naive", "numpy-kernel"]


def _walk(waypoints, steps):
    """``steps`` evenly spaced points per leg, then the last waypoint."""
    out = []
    for a, b in zip(waypoints, waypoints[1:]):
        for i in range(steps):
            t = i / steps
            out.append(Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t))
    out.append(waypoints[-1])
    return out


def _free(points, obstacles):
    return [
        p
        for p in points
        if not any(o.polygon.contains_or_boundary(p) for o in obstacles)
    ]


def _scene(seed, *, n_obstacles=8, n_points=8):
    """A random scene, its entities and a free route through it."""
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_points, obstacles)
    waypoints = random_free_points(random.Random(seed + 1), 3, obstacles)
    return obstacles, points[3:], _free(_walk(waypoints, 12), obstacles)


def _db(obstacles, pois, **kwargs):
    db = ObstacleDatabase(
        [o.polygon for o in obstacles], max_entries=8, min_entries=3, **kwargs
    )
    db.add_entity_set("pois", pois)
    return db


def _cold_answers(obstacles, pois, route, k):
    """Each step asked of a ``naive`` database with every cache emptied."""
    cold = _db(obstacles, pois, backend="naive")
    answers = []
    for q in route:
        cold.reset_stats(clear_buffers=True)
        answers.append(cold.nearest("pois", q, k))
    return answers


class TestRouteAnswers:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("seed", [600, 601, 602])
    def test_every_step_answers_as_a_cold_naive_database(self, seed, k):
        obstacles, pois, route = _scene(seed)
        db = _db(obstacles, pois, graph_cache_size=256)
        walked = [db.nearest("pois", q, k) for q in route]
        assert walked == _cold_answers(obstacles, pois, route, k)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_step_matches_the_distance_oracle(self, backend):
        obstacles, pois, route = _scene(610, n_obstacles=6)
        db = _db(obstacles, pois, backend=backend)
        for q in route:
            [(winner, d)] = db.nearest("pois", q, 1)
            best = min(oracle_distance(q, p, obstacles) for p in pois)
            assert d == pytest.approx(best)
            assert d == pytest.approx(oracle_distance(q, winner, obstacles))

    def test_repeating_a_route_builds_no_graph(self):
        obstacles, pois, route = _scene(620)
        db = _db(obstacles, pois, graph_cache_size=256)
        first = [db.nearest("pois", q, 2) for q in route]
        db.reset_stats()
        assert [db.nearest("pois", q, 2) for q in route] == first
        # Every expansion centre of the second walk was cached by the
        # first: walking an unchanged route again builds nothing.
        assert db.runtime_stats()["graph_builds"] == 0

    def test_a_mutation_mid_route_is_answered_at_the_next_step(self):
        obstacles, pois, route = _scene(630)
        wall = Rect(40, 40, 46, 46)
        db = _db(obstacles, pois, graph_cache_size=256)
        half = len(route) // 2
        for q in route[:half]:
            db.nearest("pois", q, 2)  # warm the cache on the way
        record = db.insert_obstacle(wall)
        walled = obstacles + [rect_obstacle(len(obstacles), 40, 40, 46, 46)]
        rest = _free(route[half:], walled)
        assert [db.nearest("pois", q, 2) for q in rest] == _cold_answers(
            walled, pois, rest, 2
        )
        assert db.delete_obstacle(record)
        assert [db.nearest("pois", q, 2) for q in route] == _cold_answers(
            obstacles, pois, route, 2
        )

    def test_route_over_two_obstacle_sets_matches_one(self):
        obstacles, pois, route = _scene(640)
        split = _db(obstacles[::2], pois)
        split.add_obstacle_set("walls", [o.polygon for o in obstacles[1::2]])
        one = _db(obstacles, pois)
        for q in route:
            assert split.nearest("pois", q, 2) == one.nearest("pois", q, 2)


class TestHandover:
    """Entities at (0, 0) and (10, 0); the client walks the x-axis."""

    ROUTE = [Point(1 + 0.5 * i, 0) for i in range(17)]  # x = 1 .. 9

    def _winners(self, db):
        return [db.nearest("pois", q, 1)[0][0] for q in self.ROUTE]

    def _db(self, obstacles, backend):
        db = ObstacleDatabase(obstacles, backend=backend)
        db.add_entity_set("pois", [Point(0, 0), Point(10, 0)])
        return db

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_handover_between_two_entities(self, backend):
        winners = self._winners(self._db([], backend))
        for q, w in zip(self.ROUTE, winners):
            if q.x != 5:  # the tie at the midpoint may go either way
                assert w == (Point(0, 0) if q.x < 5 else Point(10, 0))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_obstacle_shifts_the_handover(self, backend):
        # A wall at x in [0.5, 0.7] reaching 4 units either side of the
        # axis: (0, 0) is reached over a corner of the wall, so the
        # handover moves from x = 5 to between x = 1.5 and x = 2.
        db = self._db([Rect(0.5, -4, 0.7, 4)], backend)

        def detour(q):
            return q.distance(Point(0.7, 4)) + 0.2 + Point(0.5, 4).distance(Point(0, 0))

        winners = self._winners(db)
        for q, w in zip(self.ROUTE, winners):
            assert w == (Point(0, 0) if detour(q) < 10 - q.x else Point(10, 0))
        assert winners[:2] == [Point(0, 0)] * 2
        assert winners[2:] == [Point(10, 0)] * (len(self.ROUTE) - 2)
        [(far, d)] = db.nearest("pois", Point(1.5, 0), 2)[1:]
        assert far == Point(10, 0) and d == 8.5
        d_a = dict(db.nearest("pois", Point(1.5, 0), 2))[Point(0, 0)]
        assert d_a == pytest.approx(detour(Point(1.5, 0)))
        [(near, d)] = db.nearest("pois", Point(0.2, 0), 1)
        assert near == Point(0, 0) and d == pytest.approx(0.2)


class TestSmallSteps:
    def _line_db(self):
        db = ObstacleDatabase([])
        db.add_entity_set(
            "pois", [Point(1, 0), Point(2, 0), Point(50, 0), Point(80, 0)]
        )
        return db

    def test_a_small_step_changes_distances_only(self):
        db = self._line_db()
        before = db.nearest("pois", Point(0, 0), 2)
        after = db.nearest("pois", Point(0.5, 0), 2)
        assert [p for p, __ in after] == [p for p, __ in before]
        assert [d for __, d in before] == [1.0, 2.0]
        assert [d for __, d in after] == [0.5, 1.5]

    def test_a_long_step_changes_the_winner(self):
        db = self._line_db()
        assert db.nearest("pois", Point(0, 0), 1) == [(Point(1, 0), 1.0)]
        assert db.nearest("pois", Point(49, 0), 1) == [(Point(50, 0), 1.0)]


class TestValidation:
    def _db(self):
        db = ObstacleDatabase([Rect(0, 0, 1, 1)])
        db.add_entity_set("pois", [Point(5, 5)])
        return db

    def test_k_must_be_positive(self):
        with pytest.raises(QueryError):
            self._db().nearest("pois", Point(2, 2), 0)

    def test_a_negative_range_is_rejected(self):
        with pytest.raises(QueryError):
            self._db().range("pois", Point(2, 2), -1.0)

    def test_an_unknown_set_is_named(self):
        with pytest.raises(DatasetError, match="nope"):
            self._db().nearest("nope", Point(2, 2), 1)

    def test_an_empty_set_answers_nothing(self):
        db = self._db()
        db.add_entity_set("empty", [])
        assert db.nearest("empty", Point(2, 2), 1) == []
        assert db.range("empty", Point(2, 2), 10.0) == []
