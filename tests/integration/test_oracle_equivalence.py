"""End-to-end property tests: every query algorithm against brute-force
oracles built on the *global* visibility graph.

These are the repository's strongest correctness statements — the
hypothesis engine explores random disjoint-obstacle scenes, entity
layouts and parameters, and every algorithm must agree exactly with the
oracle.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    obstacle_closest_pairs,
    obstacle_distance_join,
    obstacle_nearest,
    obstacle_range,
)
from repro.core.source import build_obstacle_index
from repro.geometry import Point, Rect
from repro.index import RStarTree, str_pack
from tests.conftest import oracle_distance, random_free_points
from tests.strategies import disjoint_rect_obstacles, free_points

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _tree(points):
    tree = RStarTree(max_entries=8, min_entries=3)
    str_pack(tree, [(p, Rect.from_point(p)) for p in points])
    return tree


@SETTINGS
@given(st.data())
def test_or_matches_oracle(data):
    obstacles = data.draw(disjoint_rect_obstacles())
    points = data.draw(free_points(obstacles, min_count=2, max_count=8))
    if len(points) < 2:
        return
    q, *entities = points
    e = data.draw(st.floats(5.0, 60.0))
    idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    got = dict(obstacle_range(_tree(entities), idx, q, e))
    want = {}
    for p in entities:
        if p.distance(q) <= e:
            d = oracle_distance(q, p, obstacles)
            if d <= e:
                want[p] = d
    assert set(got) == set(want)
    for p, d in got.items():
        assert d == pytest.approx(want[p])


@SETTINGS
@given(st.data())
def test_onn_matches_oracle(data):
    obstacles = data.draw(disjoint_rect_obstacles())
    points = data.draw(free_points(obstacles, min_count=2, max_count=8))
    if len(points) < 2:
        return
    q, *entities = points
    k = data.draw(st.integers(1, len(entities)))
    idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    got = [d for __, d in obstacle_nearest(_tree(entities), idx, q, k)]
    want = sorted(oracle_distance(q, p, obstacles) for p in entities)[:k]
    assert got == pytest.approx(want)


@SETTINGS
@given(st.data())
def test_odj_matches_oracle(data):
    obstacles = data.draw(disjoint_rect_obstacles())
    points = data.draw(free_points(obstacles, min_count=2, max_count=10))
    if len(points) < 2:
        return
    half = len(points) // 2
    s, t = points[:half], points[half:]
    e = data.draw(st.floats(5.0, 50.0))
    idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    got = {(a, b) for a, b, __ in obstacle_distance_join(_tree(s), _tree(t), idx, e)}
    want = {
        (a, b)
        for a in s
        for b in t
        if a.distance(b) <= e and oracle_distance(a, b, obstacles) <= e
    }
    assert got == want


@SETTINGS
@given(st.data())
def test_ocp_matches_oracle(data):
    obstacles = data.draw(disjoint_rect_obstacles())
    points = data.draw(free_points(obstacles, min_count=2, max_count=8))
    if len(points) < 2:
        return
    half = len(points) // 2
    s, t = points[:half], points[half:]
    if not s or not t:
        return
    k = data.draw(st.integers(1, 4))
    idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    got = [d for __, __, d in obstacle_closest_pairs(_tree(s), _tree(t), idx, k)]
    want = sorted(oracle_distance(a, b, obstacles) for a in s for b in t)[
        : min(k, len(s) * len(t))
    ]
    assert got == pytest.approx(want)


@SETTINGS
@given(st.data())
def test_euclidean_lower_bound_invariant(data):
    obstacles = data.draw(disjoint_rect_obstacles())
    points = data.draw(free_points(obstacles, min_count=2, max_count=6))
    if len(points) < 2:
        return
    a, b = points[0], points[1]
    d_o = oracle_distance(a, b, obstacles)
    assert d_o >= a.distance(b) - 1e-9
    assert d_o < math.inf  # disjoint simple polygons never seal a point


def test_no_obstacles_in_reach_is_euclidean():
    """With no obstacles the obstructed metric is the Euclidean one:
    ONN and OR over an empty obstacle index equal a brute-force
    Euclidean sort."""
    q, *entities = random_free_points(random.Random(21), 14, [])
    idx = build_obstacle_index([], max_entries=8, min_entries=3)
    tree = _tree(entities)
    brute = sorted((q.distance(p), p) for p in entities)
    want = [(p, pytest.approx(d)) for d, p in brute]
    assert want[:4] == obstacle_nearest(tree, idx, q, 4)
    within = obstacle_range(tree, idx, q, 25.0)
    assert within and want[: len(within)] == within
    assert len(within) == sum(d <= 25.0 for d, __ in brute)
