"""Tests for obstructed distance computation (paper Fig. 8)."""

import math
import random

import pytest

from repro.core import compute_obstructed_distance
from repro.core.source import ObstacleIndex, build_obstacle_index
from repro.geometry import Point
from repro.visibility import VisibilityGraph
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)


def _index(obstacles):
    return build_obstacle_index(obstacles, max_entries=8, min_entries=3)


class TestComputeObstructedDistance:
    def test_no_obstacles_equals_euclidean(self):
        a, b = Point(0, 0), Point(3, 4)
        idx = _index([rect_obstacle(0, 100, 100, 110, 110)])  # far away
        g = VisibilityGraph.build([a, b], [])
        assert compute_obstructed_distance(g, a, b, idx) == pytest.approx(5.0)

    def test_detour_around_wall(self):
        wall = rect_obstacle(0, 4, -10, 6, 10)
        a, b = Point(0, 0), Point(10, 0)
        idx = _index([wall])
        g = VisibilityGraph.build([a, b], [wall])
        d = compute_obstructed_distance(g, a, b, idx)
        assert d == pytest.approx(oracle_distance(a, b, [wall]))
        assert d > 10.0

    def test_iterative_expansion_pulls_outside_obstacles(self):
        # The initial graph knows only the small central wall; the
        # longer detour forced by it is blocked by a second wall that
        # only the iterative range enlargement can discover.
        inner = rect_obstacle(0, 4, -2, 6, 2)
        outer = rect_obstacle(1, 2, 2.5, 8, 4.0)  # above, outside d_E range
        a, b = Point(0, 0), Point(10, 0)
        idx = _index([inner, outer])
        g = VisibilityGraph.build([a, b], [inner])  # only the inner one
        d = compute_obstructed_distance(g, a, b, idx)
        assert d == pytest.approx(oracle_distance(a, b, [inner, outer]))
        assert g.has_obstacle(1)  # the outer wall was discovered

    def test_identical_points(self):
        idx = _index([rect_obstacle(0, 0, 0, 1, 1)])
        g = VisibilityGraph.build([Point(5, 5)], [])
        assert compute_obstructed_distance(g, Point(5, 5), Point(5, 5), idx) == 0.0

    def test_randomized_against_oracle(self):
        rng = random.Random(77)
        obstacles = random_disjoint_rects(rng, 15)
        pts = random_free_points(rng, 8, obstacles)
        idx = _index(obstacles)
        for a, b in zip(pts[:4], pts[4:]):
            near = [
                o
                for o in obstacles
                if o.polygon.distance_to_point(b) <= a.distance(b)
            ]
            g = VisibilityGraph.build([a, b], near)
            d = compute_obstructed_distance(g, a, b, idx)
            assert d == pytest.approx(oracle_distance(a, b, obstacles))

    def test_distance_never_below_euclidean(self):
        rng = random.Random(5)
        obstacles = random_disjoint_rects(rng, 10)
        pts = random_free_points(rng, 6, obstacles)
        idx = _index(obstacles)
        for a, b in zip(pts[:3], pts[3:]):
            g = VisibilityGraph.build([a, b], [])
            d = compute_obstructed_distance(g, a, b, idx)
            assert d >= a.distance(b) - 1e-9
