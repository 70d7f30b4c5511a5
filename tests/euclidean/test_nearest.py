"""Tests for incremental best-first nearest-neighbour search [HS99]."""

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.euclidean import IncrementalNearestNeighbors, k_nearest
from repro.geometry import Point, Rect
from repro.index import RStarTree, str_pack


def _tree(pts, max_entries=8):
    tree = RStarTree(max_entries=max_entries, min_entries=min(3, max_entries // 2))
    str_pack(tree, [(p, Rect.from_point(p)) for p in pts])
    return tree


def _random_points(seed, n):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for __ in range(n)]


class TestKNearest:
    def test_k1(self):
        pts = [Point(0, 0), Point(5, 0), Point(10, 0)]
        tree = _tree(pts)
        [(p, d)] = k_nearest(tree, Point(6, 0), 1)
        assert p == Point(5, 0)
        assert d == pytest.approx(1.0)

    def test_invalid_k(self):
        with pytest.raises(QueryError):
            k_nearest(_tree([Point(0, 0)]), Point(0, 0), 0)

    def test_k_larger_than_dataset(self):
        pts = [Point(0, 0), Point(1, 0)]
        assert len(k_nearest(_tree(pts), Point(0, 0), 10)) == 2

    def test_empty_tree(self):
        tree = RStarTree(max_entries=8)
        assert k_nearest(tree, Point(0, 0), 3) == []

    def test_matches_bruteforce(self):
        pts = _random_points(3, 400)
        tree = _tree(pts)
        q = Point(321, 654)
        got = [d for __, d in k_nearest(tree, q, 25)]
        want = sorted(p.distance(q) for p in pts)[:25]
        assert got == pytest.approx(want)

    def test_query_point_in_dataset(self):
        pts = _random_points(4, 50)
        tree = _tree(pts)
        (p, d), *__ = k_nearest(tree, pts[10], 1)
        assert d == 0.0
        assert p == pts[10]


class TestIncremental:
    def test_ascending_order(self):
        pts = _random_points(5, 300)
        tree = _tree(pts)
        stream = IncrementalNearestNeighbors(tree, Point(500, 500))
        dists = [d for __, d in stream]
        assert dists == sorted(dists)
        assert len(dists) == 300

    def test_full_enumeration_matches_sorted_bruteforce(self):
        pts = _random_points(6, 150)
        tree = _tree(pts, max_entries=4)
        q = Point(100, 900)
        got = [d for __, d in IncrementalNearestNeighbors(tree, q)]
        want = sorted(p.distance(q) for p in pts)
        assert got == pytest.approx(want)

    def test_a_dropped_stream_is_freed_without_a_collection(self):
        """The queue of a half-read stream goes with its iterator (no
        reference cycle waits for the cyclic collector)."""
        stream = IncrementalNearestNeighbors(_tree(_random_points(9, 200)), Point(0, 0))
        next(stream)
        gone = weakref.ref(stream)
        gc.disable()
        try:
            del stream
            assert gone() is None
        finally:
            gc.enable()

    def test_resumable_between_pulls(self):
        pts = _random_points(7, 100)
        tree = _tree(pts)
        q = Point(0, 0)
        stream = IncrementalNearestNeighbors(tree, q)
        first = next(stream)
        rest = list(stream)
        assert len(rest) == 99
        assert first[1] <= rest[0][1]

    def test_duplicates_reported_individually(self):
        pts = [Point(1, 1)] * 5 + [Point(9, 9)]
        tree = _tree(pts)
        got = list(IncrementalNearestNeighbors(tree, Point(0, 0)))
        assert len(got) == 6
        assert [d for __, d in got][:5] == pytest.approx([Point(1, 1).distance(Point(0, 0))] * 5)

    def test_counts_page_accesses(self):
        pts = _random_points(8, 500)
        tree = _tree(pts, max_entries=16)
        tree.reset_stats(clear_buffer=True)
        list(IncrementalNearestNeighbors(tree, Point(500, 500)))
        assert tree.counter.reads >= tree.page_count


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
        min_size=1,
        max_size=60,
    ),
    st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
    st.integers(1, 10),
)
def test_property_knn_matches_bruteforce(coords, qxy, k):
    pts = [Point(x, y) for x, y in coords]
    tree = _tree(pts, max_entries=4)
    q = Point(*qxy)
    got = [d for __, d in k_nearest(tree, q, k)]
    want = sorted(p.distance(q) for p in pts)[:k]
    assert got == pytest.approx(want)
