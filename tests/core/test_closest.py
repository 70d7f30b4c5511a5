"""Tests for OCP and iOCP (paper Figs. 11-12)."""

import random

import pytest

from repro.core import iter_obstacle_closest_pairs, obstacle_closest_pairs
from repro.core.source import build_obstacle_index
from repro.errors import QueryError
from repro.geometry import Point, Rect
from repro.index import RStarTree, str_pack
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)


def _tree(points):
    tree = RStarTree(max_entries=8, min_entries=3)
    str_pack(tree, [(p, Rect.from_point(p)) for p in points])
    return tree


def _setup(seed, n_obs=10, n_s=12, n_t=10):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obs)
    s = random_free_points(rng, n_s, obstacles)
    t = random_free_points(rng, n_t, obstacles)
    idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    return obstacles, s, t, _tree(s), _tree(t), idx


class TestObstacleClosestPairs:
    def test_invalid_k(self):
        __, __, __, ts, tt, idx = _setup(1)
        with pytest.raises(QueryError):
            obstacle_closest_pairs(ts, tt, idx, 0)

    def test_empty_side(self):
        obstacles = [rect_obstacle(0, 0, 0, 1, 1)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        empty = RStarTree(max_entries=8)
        full = _tree([Point(5, 5)])
        assert obstacle_closest_pairs(empty, full, idx, 2) == []
        assert obstacle_closest_pairs(full, empty, idx, 2) == []

    def test_obstacle_changes_winner(self):
        # Euclidean closest pair separated by a wall; a slightly farther
        # pair wins under the obstructed metric.
        wall = rect_obstacle(0, 4, -5, 6, 5)
        s = [Point(3.5, 0), Point(0, 10)]
        t = [Point(6.5, 0), Point(2, 10)]
        idx = build_obstacle_index([wall], max_entries=8, min_entries=3)
        [(a, b, d)] = obstacle_closest_pairs(_tree(s), _tree(t), idx, 1)
        assert (a, b) == (Point(0, 10), Point(2, 10))
        assert d == pytest.approx(2.0)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_matches_oracle(self, k):
        obstacles, s, t, ts, tt, idx = _setup(5)
        got = [d for __, __, d in obstacle_closest_pairs(ts, tt, idx, k)]
        want = sorted(oracle_distance(a, b, obstacles) for a in s for b in t)[:k]
        assert got == pytest.approx(want)

    def test_k_exceeds_pairs(self):
        obstacles = [rect_obstacle(0, 50, 50, 51, 51)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        res = obstacle_closest_pairs(_tree([Point(0, 0)]), _tree([Point(1, 1)]), idx, 10)
        assert len(res) == 1

    def test_ascending_order(self):
        obstacles, s, t, ts, tt, idx = _setup(31)
        res = obstacle_closest_pairs(ts, tt, idx, 8)
        dists = [d for __, __, d in res]
        assert dists == sorted(dists)

    def test_orientation(self):
        obstacles, s, t, ts, tt, idx = _setup(41)
        for a, b, __ in obstacle_closest_pairs(ts, tt, idx, 5):
            assert a in s and b in t


def _unit_neighbours(x, y):
    return [Point(x - 1, y), Point(x + 1, y), Point(x, y - 1), Point(x, y + 1)]


class TestTieAtTheKthDistance:
    """Ten pairs tie at obstructed distance 1 for three slots: the
    answer is the 3 smallest by ``(d, s, t)`` under every node
    capacity, not the first 3 the Euclidean stream happens to yield."""

    S = [Point(0, 0), Point(10, 10), Point(20, 0), Point(0, 20)]
    T = _unit_neighbours(0, 0) + _unit_neighbours(10, 10) + [Point(19, 0), Point(21, 0)]

    @pytest.mark.parametrize(
        "cap_s, cap_t", [(4, 4), (8, 4), (8, 16), (4, 5), (4, 8), (4, 16)]
    )
    def test_answer_is_the_k_smallest_by_distance_then_pair(self, cap_s, cap_t):
        obstacles = [rect_obstacle(0, 50, 50, 51, 51)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        trees = [
            str_pack(RStarTree(max_entries=cap), [(p, Rect.from_point(p)) for p in pts])
            for pts, cap in ((self.S, cap_s), (self.T, cap_t))
        ]
        got = obstacle_closest_pairs(*trees, idx, 3)
        ranked = sorted(
            (oracle_distance(a, b, obstacles), a, b) for a in self.S for b in self.T
        )
        assert got == [(a, b, d) for d, a, b in ranked[:3]]


class TestIncrementalClosestPairs:
    def test_prefix_matches_batch(self):
        obstacles, s, t, ts, tt, idx = _setup(55)
        batch = obstacle_closest_pairs(ts, tt, idx, 6)
        stream = iter_obstacle_closest_pairs(ts, tt, idx)
        inc = [next(stream) for __ in range(6)]
        assert [d for __, __, d in inc] == pytest.approx(
            [d for __, __, d in batch]
        )

    def test_full_stream_complete_and_sorted(self):
        obstacles, s, t, ts, tt, idx = _setup(66, n_s=6, n_t=5)
        res = list(iter_obstacle_closest_pairs(ts, tt, idx))
        assert len(res) == len(s) * len(t)
        dists = [d for __, __, d in res]
        assert dists == sorted(dists)
        want = sorted(oracle_distance(a, b, obstacles) for a in s for b in t)
        assert dists == pytest.approx(want)

    def test_browsing_with_predicate(self):
        # The paper's motivating scenario: keep pulling pairs until one
        # satisfies an external condition.
        obstacles, s, t, ts, tt, idx = _setup(77)
        threshold = 15.0
        for a, b, d in iter_obstacle_closest_pairs(ts, tt, idx):
            if a.x > threshold:
                found = (a, b, d)
                break
        else:
            found = None
        if found is not None:
            a, b, d = found
            assert a.x > threshold
