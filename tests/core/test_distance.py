"""Tests for obstructed distance computation (paper Fig. 8)."""

import math
import random

import pytest

from repro import ObstacleDatabase, Rect
from repro.core.source import build_obstacle_index
from repro.geometry import Point
from repro.runtime.context import QueryContext
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)


def _context(obstacles):
    return QueryContext(
        build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    )


class TestObstructedDistance:
    def test_no_obstacles_equals_euclidean(self):
        a, b = Point(0, 0), Point(3, 4)
        ctx = _context([rect_obstacle(0, 100, 100, 110, 110)])  # far away
        assert ctx.distance(a, b) == pytest.approx(5.0)

    def test_detour_around_wall(self):
        wall = rect_obstacle(0, 4, -10, 6, 10)
        a, b = Point(0, 0), Point(10, 0)
        d = _context([wall]).distance(a, b)
        assert d == pytest.approx(oracle_distance(a, b, [wall]))
        assert d > 10.0

    def test_iterative_expansion_pulls_outside_obstacles(self):
        # The Euclidean disk around b reaches only the central wall;
        # the detour over its (shorter) top end is blocked by a second
        # wall that only the iterative range enlargement can discover.
        inner = rect_obstacle(0, 4, -30, 6, 20)
        outer = rect_obstacle(1, 1, 14, 3.5, 16)
        a, b = Point(0, 0), Point(10, 0)
        assert outer.polygon.distance_to_point(b) > a.distance(b)
        ctx = _context([inner, outer])
        d = ctx.distance(a, b)
        assert d > oracle_distance(a, b, [inner])
        assert d == pytest.approx(oracle_distance(a, b, [inner, outer]))
        # the outer wall was discovered
        assert ctx.cache.get(b, ctx.version_for).graph.has_obstacle(1)

    def test_identical_points(self):
        ctx = _context([rect_obstacle(0, 0, 0, 1, 1)])
        assert ctx.distance(Point(5, 5), Point(5, 5)) == 0.0

    def test_randomized_against_oracle(self):
        rng = random.Random(77)
        obstacles = random_disjoint_rects(rng, 15)
        pts = random_free_points(rng, 8, obstacles)
        ctx = _context(obstacles)
        for a, b in zip(pts[:4], pts[4:]):
            assert ctx.distance(a, b) == pytest.approx(
                oracle_distance(a, b, obstacles)
            )

    def test_distance_never_below_euclidean(self):
        rng = random.Random(5)
        obstacles = random_disjoint_rects(rng, 10)
        pts = random_free_points(rng, 6, obstacles)
        ctx = _context(obstacles)
        for a, b in zip(pts[:3], pts[3:]):
            assert ctx.distance(a, b) >= a.distance(b) - 1e-9


class TestRings:
    """Four walls around the origin, on the exact ``naive`` backend
    (the sweep kernels assume non-crossing boundaries, the paper's
    setting)."""

    FAR = Point(50, 50)

    @staticmethod
    def _db(walls):
        return ObstacleDatabase(walls, max_entries=8, min_entries=3, backend="naive")

    def test_touching_ring_is_escapable_through_seams(self):
        # Walls touching along their boundaries: under the open-segment
        # semantics the zero-width seams are passable, so the
        # "courtyard" is not sealed (a ring of *disjoint* simple
        # polygons can never seal a point).
        db = self._db(
            [
                Rect(-10, -10, 10, -8),
                Rect(-10, 8, 10, 10),
                Rect(-10, -8, -8, 8),
                Rect(8, -8, 10, 8),
            ]
        )
        assert db.obstructed_distance(Point(0, 0), self.FAR) < math.inf

    def test_overlapping_ring_seals_the_origin(self):
        # Overlapping walls close the seams: the origin is truly sealed.
        db = self._db(
            [
                Rect(-10, -10, 10, -7),
                Rect(-10, 7, 10, 10),
                Rect(-10, -9, -7, 9),
                Rect(7, -9, 10, 9),
            ]
        )
        assert db.obstructed_distance(Point(0, 0), self.FAR) == math.inf
        assert db.obstructed_distance(self.FAR, Point(0, 0)) == math.inf
