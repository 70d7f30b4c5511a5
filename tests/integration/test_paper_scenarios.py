"""Scenario tests with hand-computed expected values.

These recreate the paper's worked examples (Figs. 1, 4, 6, 7) in
machine-checkable form: scenes small enough that the expected
obstructed distances can be derived by hand.
"""

import math

import pytest

from repro import ObstacleDatabase, Point, Rect


class TestSingleWallDetour:
    """A vertical wall between q and p (the paper's Fig. 7 situation)."""

    WALL = Rect(4, -10, 6, 10)
    Q = Point(0, 0)
    P = Point(10, 0)

    def _db(self):
        db = ObstacleDatabase([self.WALL], max_entries=8, min_entries=3)
        db.add_entity_set("p", [self.P])
        return db

    def test_distance_exact(self):
        # Symmetric detour around either wall end: q -> (4, ±10) ->
        # (6, ±10) -> p.
        expected = math.hypot(4, 10) + 2.0 + math.hypot(4, 10)
        assert self._db().obstructed_distance(self.Q, self.P) == pytest.approx(
            expected
        )

    def test_path_goes_around_wall_end(self):
        d, path = self._db().shortest_path(self.Q, self.P)
        assert len(path) == 4
        ys = {abs(p.y) for p in path[1:3]}
        assert ys == {10.0}  # both bends at wall-end corners

    def test_range_query_uses_detour_distance(self):
        db = self._db()
        expected = math.hypot(4, 10) + 2.0 + math.hypot(4, 10)
        # p is Euclidean-inside range 12 but obstructed-outside
        assert db.range("p", self.Q, 12.0) == []
        got = db.range("p", self.Q, expected + 0.001)
        assert got[0][0] == self.P


class TestFigureOneNearestNeighbor:
    """Paper Fig. 1: Euclidean NN 'a' is behind an obstacle; 'b' wins."""

    def test_obstructed_nn_differs_from_euclidean(self):
        wall = Rect(3, -2, 9, 2)
        a = Point(10, 0)    # Euclidean NN of q, straight behind the wall
        b = Point(0, 10.2)  # slightly farther Euclidean, unobstructed
        q = Point(0, 0)
        db = ObstacleDatabase([wall], max_entries=8, min_entries=3)
        db.add_entity_set("pts", [a, b])

        assert q.distance(a) < q.distance(b)
        [(winner, d)] = db.nearest("pts", q, 1)
        assert winner == b
        assert d == pytest.approx(q.distance(b))

    def test_euclidean_winner_when_no_obstruction(self):
        far_wall = Rect(100, 100, 105, 105)
        a, b = Point(10, 0), Point(0, 10.2)
        q = Point(0, 0)
        db = ObstacleDatabase([far_wall], max_entries=8, min_entries=3)
        db.add_entity_set("pts", [a, b])
        [(winner, __)] = db.nearest("pts", q, 1)
        assert winner == a


class TestIterativeDiscovery:
    """Paper Fig. 7: obstacles outside the initial range block the
    provisional path and must be discovered iteratively."""

    def test_staircase_of_walls(self):
        # Each wall forces a wider detour that a new wall then blocks.
        walls = [
            Rect(4, -3, 5, 3),     # directly between q and p
            Rect(2, 3.2, 8, 4),    # blocks the detour over the top
            Rect(2, -4, 8, -3.2),  # blocks the detour under the bottom
        ]
        q, p = Point(0, 0), Point(10, 0)
        db = ObstacleDatabase(walls, max_entries=8, min_entries=3)
        d = db.obstructed_distance(q, p)
        assert d > math.hypot(10, 0)
        # ground truth from the global visibility graph
        from tests.conftest import oracle_distance
        from repro.model import Obstacle
        from repro.geometry import Polygon

        obstacles = [
            Obstacle(i, Polygon.from_rect(r)) for i, r in enumerate(walls)
        ]
        assert d == pytest.approx(oracle_distance(q, p, obstacles))


class TestZigzagCorridor:
    """A corridor of offset walls: the path must thread the gaps."""

    def test_threading_distance(self):
        walls = [
            Rect(2, 0, 3, 8),
            Rect(5, 2, 6, 10),
            Rect(8, 0, 9, 8),
        ]
        q, p = Point(0, 5), Point(11, 5)
        db = ObstacleDatabase(walls, max_entries=8, min_entries=3)
        d = db.obstructed_distance(q, p)
        from tests.conftest import oracle_distance
        from repro.model import Obstacle
        from repro.geometry import Polygon

        obstacles = [
            Obstacle(i, Polygon.from_rect(r)) for i, r in enumerate(walls)
        ]
        assert d == pytest.approx(oracle_distance(q, p, obstacles))
        assert d > 11.0
