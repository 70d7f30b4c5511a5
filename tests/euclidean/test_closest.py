"""Tests for incremental closest pairs [HS98, CMTV00]."""

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.euclidean import IncrementalClosestPairs, k_closest_pairs
from repro.geometry import Point, Rect
from repro.index import RStarTree, str_pack


def _tree(pts, max_entries=8):
    tree = RStarTree(max_entries=max_entries, min_entries=min(3, max_entries // 2))
    str_pack(tree, [(p, Rect.from_point(p)) for p in pts])
    return tree


def _random_points(seed, n, span=300.0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, span), rng.uniform(0, span)) for __ in range(n)]


class TestKClosestPairs:
    def test_invalid_k(self):
        t = _tree([Point(0, 0)])
        with pytest.raises(QueryError):
            k_closest_pairs(t, t, 0)

    def test_empty_side(self):
        empty = RStarTree(max_entries=8)
        full = _tree([Point(0, 0)])
        assert k_closest_pairs(empty, full, 3) == []
        assert k_closest_pairs(full, empty, 3) == []

    def test_single_pair(self):
        s = _tree([Point(0, 0), Point(10, 10)])
        t = _tree([Point(1, 0), Point(20, 20)])
        [(a, b, d)] = k_closest_pairs(s, t, 1)
        assert (a, b) == (Point(0, 0), Point(1, 0))
        assert d == pytest.approx(1.0)

    def test_matches_bruteforce(self):
        s = _random_points(1, 50)
        t = _random_points(2, 40)
        got = [d for __, __, d in k_closest_pairs(_tree(s), _tree(t), 15)]
        want = sorted(a.distance(b) for a in s for b in t)[:15]
        assert got == pytest.approx(want)

    def test_k_exceeding_pair_count(self):
        s = [Point(0, 0), Point(1, 1)]
        t = [Point(2, 2)]
        pairs = k_closest_pairs(_tree(s), _tree(t), 100)
        assert len(pairs) == 2

    def test_sides_not_swapped(self):
        s = [Point(0, 0)]
        t = [Point(3, 4)]
        [(a, b, d)] = k_closest_pairs(_tree(s), _tree(t), 1)
        assert a == Point(0, 0) and b == Point(3, 4)
        assert d == pytest.approx(5.0)


class TestIncrementalStream:
    def test_a_dropped_stream_is_freed_without_a_collection(self):
        """The queue of a half-read stream goes with its iterator (no
        reference cycle waits for the cyclic collector)."""
        stream = IncrementalClosestPairs(
            _tree(_random_points(1, 80)), _tree(_random_points(2, 80))
        )
        next(stream)
        gone = weakref.ref(stream)
        gc.disable()
        try:
            del stream
            assert gone() is None
        finally:
            gc.enable()

    def test_ascending_distances(self):
        s = _random_points(3, 40)
        t = _random_points(4, 40)
        dists = [d for __, __, d in IncrementalClosestPairs(_tree(s), _tree(t))]
        assert dists == sorted(dists)
        assert len(dists) == 40 * 40

    def test_full_stream_equals_bruteforce(self):
        s = _random_points(5, 25)
        t = _random_points(6, 20)
        got = [d for __, __, d in IncrementalClosestPairs(_tree(s, 4), _tree(t, 4))]
        want = sorted(a.distance(b) for a in s for b in t)
        assert got == pytest.approx(want)

    def test_coincident_points_zero_distance_first(self):
        s = [Point(5, 5), Point(50, 50)]
        t = [Point(5, 5), Point(80, 80)]
        stream = IncrementalClosestPairs(_tree(s), _tree(t))
        a, b, d = next(stream)
        assert d == 0.0
        assert a == b == Point(5, 5)

    def test_unbalanced_tree_heights(self):
        s = _random_points(7, 600)
        t = _random_points(8, 3)
        got = [d for __, __, d in IncrementalClosestPairs(_tree(s, 4), _tree(t, 4))]
        want = sorted(a.distance(b) for a in s for b in t)
        assert got[:50] == pytest.approx(want[:50])


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)),
        min_size=1,
        max_size=15,
    ),
    st.lists(
        st.tuples(st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)),
        min_size=1,
        max_size=15,
    ),
    st.integers(1, 8),
)
def test_property_cp_matches_bruteforce(s_coords, t_coords, k):
    s = [Point(x, y) for x, y in s_coords]
    t = [Point(x, y) for x, y in t_coords]
    got = [d for __, __, d in k_closest_pairs(_tree(s, 4), _tree(t, 4), k)]
    want = sorted(a.distance(b) for a in s for b in t)[:k]
    assert got == pytest.approx(want)
