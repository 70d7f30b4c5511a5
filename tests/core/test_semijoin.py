"""Tests for the obstacle distance semi-join (paper Sec. 2.1)."""

import random

import pytest

from repro import ObstacleDatabase
from repro.core import obstacle_nearest, obstacle_semijoin
from repro.core.source import build_obstacle_index
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


def _setup(seed, n_obs=10, n_s=8, n_t=6):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obs)
    s = random_free_points(rng, n_s, obstacles)
    t = random_free_points(rng, n_t, obstacles)
    idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    return obstacles, s, t, _tree(s), _tree(t), idx


class TestObstacleSemijoin:
    def test_empty_inputs(self):
        obstacles = [rect_obstacle(0, 0, 0, 1, 1)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        empty = RStarTree(max_entries=8)
        full = _tree([Point(5, 5)])
        assert obstacle_semijoin(empty, full, idx) == {}
        assert obstacle_semijoin(full, empty, idx) == {}

    @pytest.mark.parametrize("seed", [5, 11])
    def test_matches_oracle(self, seed):
        obstacles, s, t, ts, tt, idx = _setup(seed)
        got = obstacle_semijoin(ts, tt, idx)
        assert set(got) == set(s)
        for src, (__, d) in got.items():
            best = min(oracle_distance(src, cand, obstacles) for cand in t)
            assert d == pytest.approx(best)

    @pytest.mark.parametrize("seed", [9, 17])
    def test_each_answer_is_the_nearest_neighbour(self, seed):
        """Bit for bit, ``s``'s answer is ``obstacle_nearest(T, s, 1)``'s."""
        __, s, __, ts, tt, idx = _setup(seed, n_s=12, n_t=20)
        assert obstacle_semijoin(ts, tt, idx) == {
            p: obstacle_nearest(tt, idx, p, 1)[0] for p in s
        }

    def test_obstacle_changes_assignment(self):
        wall = rect_obstacle(0, 4, -5, 6, 5)
        s = [Point(3.5, 0)]
        t = [Point(6.5, 0), Point(3.5, 8)]
        idx = build_obstacle_index([wall], max_entries=8, min_entries=3)
        got = obstacle_semijoin(_tree(s), _tree(t), idx)
        # Euclidean NN is (6.5, 0) across the wall; obstructed NN is the
        # point above the wall.
        assert got[s[0]][0] == Point(3.5, 8)

    def test_engine_api(self):
        obstacles, s, t, __, __, __ = _setup(13)
        db = ObstacleDatabase(obstacles, max_entries=8, min_entries=3)
        db.add_entity_set("s", s)
        db.add_entity_set("t", t)
        got = db.semijoin("s", "t")
        assert got == {p: db.nearest("t", p, 1)[0] for p in s}
