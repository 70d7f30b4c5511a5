"""Parity: the paper's obstructed queries against the classical
Euclidean algorithms and the brute-force oracle on seeded synthetic
scenes.

* with no obstacles, each ``core`` query must equal the classical
  ``euclidean`` algorithm (and brute force);
* with obstacles that are all out of reach, obstructed must still
  equal Euclidean;
* with obstacles, each must equal the brute-force oracle over a global
  visibility graph.
"""

import math
import random

import pytest

from repro.core import (
    iter_obstacle_nearest,
    obstacle_closest_pairs,
    obstacle_distance_join,
    obstacle_nearest,
    obstacle_range,
    obstacle_semijoin,
)
from repro.core.source import build_obstacle_index
from repro.euclidean.closest import k_closest_pairs
from repro.euclidean.join import distance_join
from repro.euclidean.nearest import IncrementalNearestNeighbors, k_nearest
from repro.euclidean.range import entities_in_range
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
    small_tree,
)


def _index(obstacles):
    return build_obstacle_index(obstacles, max_entries=8, min_entries=3)


def _scene(seed, n_obstacles=10, n_points=14):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_points, obstacles)
    return obstacles, points


class TestEuclideanParameterization:
    """No obstacles: obstructed query == classical algorithm == brute force."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_nearest(self, seed):
        __, points = _scene(seed)
        tree = small_tree(points[2:])
        q = points[0]
        got = obstacle_nearest(tree, _index([]), q, 5)
        via_module = k_nearest(tree, q, 5)
        brute = sorted((q.distance(p), p) for p in points[2:])[:5]
        assert [(p, pytest.approx(d)) for p, d in got] == via_module
        assert [d for __, d in got] == pytest.approx([d for d, __ in brute])

    @pytest.mark.parametrize("seed", [4, 5])
    def test_incremental_nearest_order(self, seed):
        __, points = _scene(seed)
        tree = small_tree(points[1:])
        q = points[0]
        stream = iter_obstacle_nearest(tree, _index([]), q)
        got = list(stream)
        incremental = list(IncrementalNearestNeighbors(tree, q))
        assert [p for p, __ in got] == [p for p, __ in incremental]
        dists = [d for __, d in got]
        assert dists == pytest.approx([d for __, d in incremental])
        assert dists == sorted(dists)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_range(self, seed):
        __, points = _scene(seed)
        tree = small_tree(points[1:])
        q = points[0]
        e = 30.0
        got = obstacle_range(tree, _index([]), q, e)
        expected = sorted(entities_in_range(tree, q, e), key=q.distance)
        assert [p for p, __ in got] == expected
        assert all(d == pytest.approx(q.distance(p)) for p, d in got)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_closest_pairs(self, seed):
        __, points = _scene(seed, n_points=16)
        tree_s = small_tree(points[:8])
        tree_t = small_tree(points[8:])
        got = obstacle_closest_pairs(tree_s, tree_t, _index([]), 4)
        via_module = k_closest_pairs(tree_s, tree_t, 4)
        assert [d for *__, d in got] == pytest.approx(
            [d for *__, d in via_module]
        )
        brute = sorted(
            s.distance(t) for s in points[:8] for t in points[8:]
        )[:4]
        assert [d for *__, d in got] == pytest.approx(brute)

    def test_semijoin(self):
        __, points = _scene(11, n_points=12)
        tree_s = small_tree(points[:6])
        tree_t = small_tree(points[6:])
        for strategy in ("nn", "cp"):
            got = obstacle_semijoin(
                tree_s, tree_t, _index([]), strategy=strategy
            )
            assert set(got) == set(points[:6])
            for s in points[:6]:
                t, d = got[s]
                expected = min(s.distance(t2) for t2 in points[6:])
                assert d == pytest.approx(expected)
                assert d == pytest.approx(s.distance(t))

    def test_distance_join(self):
        __, points = _scene(12, n_points=14)
        tree_s = small_tree(points[:7])
        tree_t = small_tree(points[7:])
        e = 40.0
        got = obstacle_distance_join(tree_s, tree_t, _index([]), e)
        brute = {
            (s, t)
            for s in points[:7]
            for t in points[7:]
            if s.distance(t) <= e
        }
        assert {(s, t) for s, t, __ in got} == brute
        via_module = {(s, t) for s, t, __ in distance_join(tree_s, tree_t, e)}
        assert via_module == brute
        assert all(d == pytest.approx(s.distance(t)) for s, t, d in got)


class TestMetricAgreement:
    """With no obstacles in reach, obstructed == Euclidean everywhere."""

    def test_nearest_and_range_agree(self):
        __, points = _scene(21, n_obstacles=0)
        tree = small_tree(points[1:])
        q = points[0]
        # Every point lies in [-5, 105]^2; these walls are far outside
        # every query's reach.
        far = [
            rect_obstacle(0, 400.0, 400.0, 420.0, 410.0),
            rect_obstacle(1, -300.0, 50.0, -290.0, 90.0),
            rect_obstacle(2, 40.0, -260.0, 80.0, -250.0),
        ]
        idx = _index(far)
        nn_o = obstacle_nearest(tree, idx, q, 4)
        nn_e = k_nearest(tree, q, 4)
        assert [(p, pytest.approx(d)) for p, d in nn_e] == nn_o
        r_o = obstacle_range(tree, idx, q, 25.0)
        r_e = sorted(entities_in_range(tree, q, 25.0), key=q.distance)
        assert [(p, pytest.approx(q.distance(p))) for p in r_e] == r_o


class TestObstructedParameterization:
    """Obstructed queries == brute-force oracle."""

    @pytest.mark.parametrize("seed", [31, 32])
    def test_nearest_matches_oracle(self, seed):
        obstacles, points = _scene(seed)
        tree = small_tree(points[1:])
        q = points[0]
        got = obstacle_nearest(tree, _index(obstacles), q, 4)
        brute = sorted(
            (oracle_distance(q, p, obstacles), p) for p in points[1:]
        )[:4]
        assert [d for __, d in got] == pytest.approx([d for d, __ in brute])

    @pytest.mark.parametrize("seed", [33, 34])
    def test_range_matches_oracle(self, seed):
        obstacles, points = _scene(seed)
        tree = small_tree(points[1:])
        q = points[0]
        e = 35.0
        got = dict(obstacle_range(tree, _index(obstacles), q, e))
        for p in points[1:]:
            d = oracle_distance(q, p, obstacles)
            if d <= e - 1e-9:
                assert got[p] == pytest.approx(d)
            elif d > e + 1e-9:
                assert p not in got

    def test_closest_pairs_match_oracle(self):
        obstacles, points = _scene(35, n_points=12)
        tree_s = small_tree(points[:6])
        tree_t = small_tree(points[6:])
        got = obstacle_closest_pairs(tree_s, tree_t, _index(obstacles), 3)
        brute = sorted(
            oracle_distance(s, t, obstacles)
            for s in points[:6]
            for t in points[6:]
            if not math.isinf(oracle_distance(s, t, obstacles))
        )[:3]
        assert [d for *__, d in got] == pytest.approx(brute)
