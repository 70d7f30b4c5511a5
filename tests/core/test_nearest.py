"""Tests for ONN (paper Fig. 9) and its incremental variant."""

import math
import random

import pytest

from repro.core import iter_obstacle_nearest, obstacle_nearest
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


def _setup(obstacles, entities):
    tree = RStarTree(max_entries=8, min_entries=3)
    str_pack(tree, [(p, Rect.from_point(p)) for p in entities])
    return tree, build_obstacle_index(obstacles, max_entries=8, min_entries=3)


class TestObstacleNearest:
    def test_invalid_k(self):
        tree, idx = _setup([rect_obstacle(0, 0, 0, 1, 1)], [Point(5, 5)])
        with pytest.raises(QueryError):
            obstacle_nearest(tree, idx, Point(0, 0), 0)

    def test_empty_dataset(self):
        tree, idx = _setup([rect_obstacle(0, 0, 0, 1, 1)], [])
        assert obstacle_nearest(tree, idx, Point(0, 0), 3) == []

    def test_paper_figure1_scenario(self):
        # Euclidean NN is behind an obstacle; the true obstructed NN is
        # a slightly farther, unobstructed point (paper Fig. 1: a vs b).
        wall = rect_obstacle(0, 4, -5, 6, 5)
        a = Point(7, 0)    # Euclidean NN, blocked (d_E=7, d_O ~ 17)
        b = Point(1, 8)    # visible (d ~ 8.06)
        tree, idx = _setup([wall], [a, b])
        [(nn, d)] = obstacle_nearest(tree, idx, Point(0, 0), 1)
        assert nn == b
        assert d == pytest.approx(Point(0, 0).distance(b))

    def test_k_larger_than_dataset(self):
        entities = [Point(1, 0), Point(2, 0)]
        tree, idx = _setup([rect_obstacle(0, 50, 50, 51, 51)], entities)
        res = obstacle_nearest(tree, idx, Point(0, 0), 10)
        assert len(res) == 2

    def test_ascending_order(self):
        rng = random.Random(8)
        obstacles = random_disjoint_rects(rng, 12)
        entities = random_free_points(rng, 30, obstacles)
        tree, idx = _setup(obstacles, entities)
        q = random_free_points(random.Random(123), 1, obstacles)[0]
        res = obstacle_nearest(tree, idx, q, 10)
        dists = [d for __, d in res]
        assert dists == sorted(dists)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_oracle(self, k):
        rng = random.Random(44)
        obstacles = random_disjoint_rects(rng, 14)
        entities = random_free_points(rng, 25, obstacles)
        tree, idx = _setup(obstacles, entities)
        q = random_free_points(random.Random(321), 1, obstacles)[0]
        got = [d for __, d in obstacle_nearest(tree, idx, q, k)]
        want = sorted(oracle_distance(q, p, obstacles) for p in entities)[:k]
        assert got == pytest.approx(want)

    def test_query_at_entity_location(self):
        entities = [Point(5, 5), Point(9, 9)]
        tree, idx = _setup([rect_obstacle(0, 50, 50, 60, 60)], entities)
        [(nn, d)] = obstacle_nearest(tree, idx, Point(5, 5), 1)
        assert nn == Point(5, 5) and d == 0.0

    def test_result_at_least_euclidean(self):
        rng = random.Random(60)
        obstacles = random_disjoint_rects(rng, 10)
        entities = random_free_points(rng, 20, obstacles)
        tree, idx = _setup(obstacles, entities)
        q = random_free_points(random.Random(61), 1, obstacles)[0]
        for p, d in obstacle_nearest(tree, idx, q, 5):
            assert d >= p.distance(q) - 1e-9


class TestTieAtTheKthDistance:
    """Eight entities tie at obstructed distance 5 from the query for
    two slots: the answer is the 2 smallest by ``(d, p)`` under every
    node capacity and build, not the first 2 the Euclidean stream
    happens to yield."""

    RING = [Point(sx * a, sy * b) for a, b in ((3, 4), (4, 3)) for sx in (1, -1) for sy in (1, -1)]
    ENTITIES = RING + [Point(30, 30), Point(-40, 10), Point(12, -35)]

    @pytest.mark.parametrize("cap", [4, 5, 8, 16])
    @pytest.mark.parametrize("bulk", [True, False])
    def test_answer_is_the_k_smallest_by_distance_then_entity(self, cap, bulk):
        obstacles = [rect_obstacle(0, 50, 50, 51, 51)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        tree = RStarTree(max_entries=cap)
        entries = [(p, Rect.from_point(p)) for p in self.ENTITIES]
        if bulk:
            str_pack(tree, entries)
        else:
            for p, rect in entries:
                tree.insert(p, rect)
        q = Point(0, 0)
        got = obstacle_nearest(tree, idx, q, 2)
        ranked = sorted((oracle_distance(q, p, obstacles), p) for p in self.ENTITIES)
        assert got == [(p, d) for d, p in ranked[:2]]


class TestIncrementalNearest:
    def test_matches_batch(self):
        rng = random.Random(99)
        obstacles = random_disjoint_rects(rng, 12)
        entities = random_free_points(rng, 20, obstacles)
        tree, idx = _setup(obstacles, entities)
        q = random_free_points(random.Random(7), 1, obstacles)[0]
        batch = obstacle_nearest(tree, idx, q, 8)
        stream = iter_obstacle_nearest(tree, idx, q)
        inc = [next(stream) for __ in range(8)]
        assert [d for __, d in inc] == pytest.approx([d for __, d in batch])

    def test_full_stream_sorted_and_complete(self):
        rng = random.Random(101)
        obstacles = random_disjoint_rects(rng, 8)
        entities = random_free_points(rng, 15, obstacles)
        tree, idx = _setup(obstacles, entities)
        q = random_free_points(random.Random(11), 1, obstacles)[0]
        res = list(iter_obstacle_nearest(tree, idx, q))
        assert len(res) == len(entities)
        dists = [d for __, d in res]
        assert dists == sorted(dists)
        want = sorted(oracle_distance(q, p, obstacles) for p in entities)
        assert dists == pytest.approx(want)

    def test_empty_dataset_stream(self):
        tree, idx = _setup([rect_obstacle(0, 0, 0, 1, 1)], [])
        assert list(iter_obstacle_nearest(tree, idx, Point(0, 0))) == []
