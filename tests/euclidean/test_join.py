"""Tests for the R-tree distance join [BKS93]."""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.euclidean import distance_join
from repro.euclidean.join import intersection_join
from repro.geometry import Point, Rect
from repro.index import RStarTree, str_pack


def _tree(pts, max_entries=8):
    tree = RStarTree(max_entries=max_entries, min_entries=min(3, max_entries // 2))
    str_pack(tree, [(p, Rect.from_point(p)) for p in pts])
    return tree


def _random_points(seed, n, span=200.0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, span), rng.uniform(0, span)) for __ in range(n)]


class TestDistanceJoin:
    def test_negative_distance_rejected(self):
        t = _tree([Point(0, 0)])
        with pytest.raises(QueryError):
            distance_join(t, t, -1.0)

    def test_empty_inputs(self):
        empty = RStarTree(max_entries=8)
        full = _tree([Point(0, 0)])
        assert distance_join(empty, full, 10) == []
        assert distance_join(full, empty, 10) == []

    def test_matches_bruteforce(self):
        s = _random_points(1, 80)
        t = _random_points(2, 60)
        ts, tt = _tree(s), _tree(t)
        e = 25.0
        got = {(a.as_tuple(), b.as_tuple()) for a, b, __ in distance_join(ts, tt, e)}
        want = {
            (a.as_tuple(), b.as_tuple())
            for a in s
            for b in t
            if a.distance(b) <= e
        }
        assert got == want

    def test_reported_distances_correct(self):
        s = _random_points(3, 40)
        t = _random_points(4, 40)
        for a, b, d in distance_join(_tree(s), _tree(t), 30.0):
            assert d == pytest.approx(a.distance(b))
            assert d <= 30.0

    def test_zero_distance_join_is_intersection(self):
        shared = _random_points(5, 20)
        s = shared + _random_points(6, 20)
        t = shared + _random_points(7, 20)
        pairs = intersection_join(_tree(s), _tree(t))
        got = {(a.as_tuple(), b.as_tuple()) for a, b in pairs}
        want = {
            (a.as_tuple(), b.as_tuple()) for a in s for b in t if a.distance(b) == 0
        }
        assert got == want
        assert len(pairs) >= len(shared)

    def test_different_tree_heights(self):
        s = _random_points(10, 500)  # tall tree
        t = _random_points(11, 5)  # single leaf
        e = 50.0
        got = {(a.as_tuple(), b.as_tuple()) for a, b, __ in distance_join(_tree(s, 4), _tree(t, 4), e)}
        want = {
            (a.as_tuple(), b.as_tuple())
            for a in s
            for b in t
            if a.distance(b) <= e
        }
        assert got == want

    def test_counts_pages_on_both_trees(self):
        s, t = _random_points(12, 300), _random_points(13, 300)
        ts, tt = _tree(s), _tree(t)
        ts.reset_stats(clear_buffer=True)
        tt.reset_stats(clear_buffer=True)
        distance_join(ts, tt, 10.0)
        assert ts.counter.reads > 0
        assert tt.counter.reads > 0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.floats(0, 60, allow_nan=False), st.floats(0, 60, allow_nan=False)),
        min_size=0,
        max_size=30,
    ),
    st.lists(
        st.tuples(st.floats(0, 60, allow_nan=False), st.floats(0, 60, allow_nan=False)),
        min_size=0,
        max_size=30,
    ),
    st.floats(0, 40, allow_nan=False),
)
# dx * dx underflows to 0: the distance admits the pair although
# t.minx > s.maxx + e, so no sweep window may cut it.
@example([(0.0, 0.0)], [(5e-324, 0.0)], 0.0)
def test_property_join_equals_bruteforce(s_coords, t_coords, e):
    s = [Point(x, y) for x, y in s_coords]
    t = [Point(x, y) for x, y in t_coords]
    ts = _tree(s, 4) if s else RStarTree(max_entries=4)
    tt = _tree(t, 4) if t else RStarTree(max_entries=4)
    got = sorted(
        (a.as_tuple(), b.as_tuple()) for a, b, __ in distance_join(ts, tt, e)
    )
    want = sorted(
        (a.as_tuple(), b.as_tuple()) for a in s for b in t if a.distance(b) <= e
    )
    assert got == want
