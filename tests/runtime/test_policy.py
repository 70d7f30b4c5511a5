"""Adaptive cache policy: resolution, actuator, estimator, wiring.

The policy's contract has three layers, each tested here:

* ``resolve_cache_policy`` — names / env / instances to policies,
  unknown names fail fast;
* ``VisibilityGraphCache.configure`` — the actuator: re-keying
  preserves entries (collisions evict like capacity overflow), shard
  registrations follow survivors, capacity shrinks evict the LRU tail;
* ``AdaptiveCachePolicy`` — the estimator: localized streams engage a
  positive snap quantum, uniform streams keep exact keys, capacity
  follows the working set — and the whole loop through
  ``ObstacleDatabase`` keeps answers bit-identical while building
  fewer graphs on a localized stream.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObstacleDatabase, Point
from repro.errors import DatasetError
from repro.runtime.cache import CachedGraph, VisibilityGraphCache
from repro.runtime.policy import (
    AdaptiveCachePolicy,
    CachePolicy,
    resolve_cache_policy,
)
from repro.runtime.stats import RuntimeStats
from repro.visibility import VisibilityGraph
from repro.workloads.profiles import PROFILES, generate_trace
from tests.conftest import random_disjoint_rects, random_free_points


class TestResolve:
    def test_default_is_static(self):
        policy = resolve_cache_policy()
        assert type(policy) is CachePolicy
        assert policy.name == "static"

    def test_name_selects_adaptive(self):
        assert isinstance(resolve_cache_policy("adaptive"), AdaptiveCachePolicy)

    def test_instance_passes_through(self):
        policy = AdaptiveCachePolicy(window=8)
        assert resolve_cache_policy(policy) is policy

    def test_unknown_name_fails_fast(self):
        with pytest.raises(DatasetError, match="adaptive.*static|static.*adaptive"):
            resolve_cache_policy("learned")

    def test_validation(self):
        with pytest.raises(DatasetError):
            AdaptiveCachePolicy(window=1)
        with pytest.raises(DatasetError):
            AdaptiveCachePolicy(adjust_every=0)


class TestConfigure:
    def _entry(self, x, y):
        center = Point(x, y)
        return CachedGraph(
            VisibilityGraph.build([center], []), center, 0.0, 0
        )

    def test_rekey_preserves_entries(self):
        cache = VisibilityGraphCache(8, snap=0.0)
        a, b = self._entry(0.0, 0.0), self._entry(50.0, 50.0)
        cache.put(a)
        cache.put(b)
        assert cache.configure(snap=4.0)
        assert len(cache) == 2
        # Near-duplicates of each centre now hit the re-keyed entries.
        assert cache.get(Point(0.6, 0.6), 0) is a
        assert cache.get(Point(49.2, 49.6), 0) is b

    def test_rekey_collision_keeps_most_recent_and_books_eviction(self):
        stats = RuntimeStats()
        cache = VisibilityGraphCache(8, snap=0.0, stats=stats)
        older, newer = self._entry(0.0, 0.0), self._entry(0.5, 0.5)
        cache.put(older)
        cache.put(newer)
        assert cache.configure(snap=4.0)
        assert len(cache) == 1
        assert cache.get(Point(0.0, 0.0), 0) is newer
        assert stats.graph_cache_evictions == 1

    def test_rekey_moves_shard_registrations(self):
        cache = VisibilityGraphCache(8, snap=0.0)
        a = self._entry(10.0, 10.0)
        cache.put(a, shards=[3, 4])
        cache.configure(snap=2.0)
        assert set(map(id, cache.entries_for_shards([3]))) == {id(a)}
        # The registration lives under the new key: a further re-key
        # back to exact keeps it intact.
        cache.configure(snap=0.0)
        assert set(map(id, cache.entries_for_shards([4]))) == {id(a)}

    def test_capacity_shrink_evicts_lru_tail(self):
        stats = RuntimeStats()
        cache = VisibilityGraphCache(4, snap=0.0, stats=stats)
        entries = [self._entry(float(i), 0.0) for i in range(4)]
        for e in entries:
            cache.put(e)
        assert cache.configure(capacity=2)
        assert len(cache) == 2
        assert entries[0].center not in cache
        assert entries[1].center not in cache
        assert cache.get(entries[3].center, 0) is entries[3]
        assert stats.graph_cache_evictions == 2

    def test_noop_returns_false(self):
        cache = VisibilityGraphCache(4, snap=2.0)
        assert not cache.configure()
        assert not cache.configure(snap=2.0, capacity=4)

    def test_validation(self):
        cache = VisibilityGraphCache(4)
        with pytest.raises(ValueError):
            cache.configure(capacity=0)
        with pytest.raises(ValueError):
            cache.configure(snap=-1.0)


def _attached(policy, capacity=8, snap=0.0):
    stats = RuntimeStats()
    cache = VisibilityGraphCache(capacity, snap=snap, stats=stats)
    policy.attach(cache, stats)
    return cache, stats


def _seed_bounds(policy):
    """Give the estimator universe-scale history: the snap cap is
    judged against the long-run spread, so a stream that never left
    one tiny box would read as uniform at its own scale."""
    for corner in (Point(0.0, 0.0), Point(1000.0, 1000.0)):
        policy.observe(corner)


class TestEstimator:
    def test_localized_stream_engages_snapping(self):
        policy = AdaptiveCachePolicy(window=16, adjust_every=4)
        cache, stats = _attached(policy)
        _seed_bounds(policy)
        rng = random.Random(3)
        for __ in range(32):
            policy.observe(
                Point(500.0 + rng.uniform(-2, 2), 500.0 + rng.uniform(-2, 2))
            )
        assert cache.snap > 0.0
        assert stats.policy_adjustments >= 1
        assert stats.policy_snap >= 1

    def test_uniform_stream_keeps_exact_keys(self):
        policy = AdaptiveCachePolicy(window=16, adjust_every=4)
        cache, stats = _attached(policy)
        rng = random.Random(5)
        for __ in range(48):
            policy.observe(
                Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            )
        assert cache.snap == 0.0

    def test_regime_change_disengages_snapping(self):
        policy = AdaptiveCachePolicy(window=16, adjust_every=4)
        cache, stats = _attached(policy)
        _seed_bounds(policy)
        rng = random.Random(7)
        for __ in range(24):
            policy.observe(
                Point(500.0 + rng.uniform(-2, 2), 500.0 + rng.uniform(-2, 2))
            )
        assert cache.snap > 0.0
        for __ in range(48):
            policy.observe(
                Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            )
        assert cache.snap == 0.0

    def test_capacity_follows_working_set(self):
        policy = AdaptiveCachePolicy(window=32, adjust_every=8, max_capacity=64)
        cache, stats = _attached(policy, capacity=4)
        rng = random.Random(11)
        for __ in range(48):
            policy.observe(
                Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            )
        # 32 distinct exact centres in the window: capacity learns up.
        assert cache.capacity > 4
        assert cache.capacity <= 64
        assert stats.policy_capacity >= 1


class _PointWindowPolicy(AdaptiveCachePolicy):
    """The estimator's two window reads written over a window of
    ``Point``\\ s: one ``Point.distance`` per member and the distinct
    count over the points themselves — what the coordinate-list window
    must reproduce decision for decision."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._points: list = []

    def observe(self, center) -> None:
        d = min((center.distance(c) for c in self._points), default=0.0)
        if len(self._points) < self.window:
            self._points.append(center)
            self._displacements.append(d)
        else:
            self._points[self._head] = center
            self._displacements[self._head] = d
            self._head = (self._head + 1) % self.window
        if self._bounds is None:
            self._bounds = [center.x, center.y, center.x, center.y]
        else:
            b = self._bounds
            b[:] = [
                min(b[0], center.x), min(b[1], center.y),
                max(b[2], center.x), max(b[3], center.y),
            ]
        self._since_adjust += 1
        if self._since_adjust >= self.adjust_every:
            self._since_adjust = 0
            self._adjust()

    def _candidate_capacity(self) -> int:
        base = self._base_capacity or self.cache.capacity
        snap = self.cache.snap
        if snap > 0:
            distinct = len(
                {(round(c.x / snap), round(c.y / snap)) for c in self._points}
            )
        else:
            distinct = len(set(self._points))
        return max(base, min(self.max_capacity, 2 * distinct))


#: Lattice coordinates (exact ties, zero displacements, repeats) and
#: free floats over a wide range.
_coords = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestDisplacementWindow:
    @settings(deadline=None, max_examples=200)
    @given(
        centers=st.lists(st.builds(Point, _coords, _coords), min_size=1, max_size=60),
        window=st.integers(2, 12),
    )
    def test_displacement_is_the_min_point_distance(self, centers, window):
        policy = AdaptiveCachePolicy(window=window, adjust_every=3)
        reference = _PointWindowPolicy(window=window, adjust_every=3)
        caches = [_attached(p, capacity=2)[0] for p in (policy, reference)]
        seen = []
        for center in centers:
            want = min((center.distance(c) for c in seen[-window:]), default=0.0)
            policy.observe(center)
            reference.observe(center)
            assert policy._recent_displacements(1) == [want]  # bitwise
            new, old = ((c.snap, c.capacity) for c in caches)
            assert new == old
            seen.append(center)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_decisions_equal_the_point_window_on_every_profile(self, profile):
        centers = [
            ev.center
            for ev in generate_trace(profile, seed=4).events
            if ev.center is not None
        ]
        got, want = AdaptiveCachePolicy(), _PointWindowPolicy()
        caches = [_attached(policy, capacity=16)[0] for policy in (got, want)]
        for center in centers:
            got.observe(center)
            want.observe(center)
            assert got._displacements == want._displacements
            new, old = ((c.snap, c.capacity) for c in caches)
            assert new == old
        assert got.stats.policy_adjustments == want.stats.policy_adjustments > 0


def _jitter_stream(rng, anchors, jitter, n):
    stream = []
    for i in range(n):
        a = anchors[i % len(anchors)]
        stream.append(
            Point(a.x + rng.uniform(-jitter, jitter),
                  a.y + rng.uniform(-jitter, jitter))
        )
    return stream


class TestDatabaseWiring:
    def _scene(self, seed):
        rng = random.Random(seed)
        obstacles = random_disjoint_rects(rng, 20)
        polygons = [o.polygon for o in obstacles]
        points = random_free_points(rng, 12, obstacles)
        return rng, polygons, points

    def test_adaptive_answers_bit_identical_and_builds_fewer(self):
        rng, polygons, points = self._scene(21)
        static = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3, graph_cache_snap=0.0,
            cache_policy="static",
        )
        adaptive = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3, graph_cache_snap=0.0,
            cache_policy="adaptive",
        )
        assert static.cache_policy == "static"
        assert adaptive.cache_policy == "adaptive"
        stream = _jitter_stream(rng, points[:3], 1.5, 60)
        p = points[5]
        for q in stream:
            assert adaptive.obstructed_distance(p, q) == (
                static.obstructed_distance(p, q)
            )
        ss = static.runtime_stats()
        sa = adaptive.runtime_stats()
        assert sa["graph_builds"] < ss["graph_builds"]
        assert sa["policy_adjustments"] >= 1
        assert sa["policy_snap"] >= 1
        assert ss["policy_adjustments"] == 0

    def test_load_accepts_policy_and_snapshot_format_unchanged(self, tmp_path):
        __, polygons, points = self._scene(35)
        db = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3, cache_policy="adaptive"
        )
        db.add_entity_set("pois", points)
        path = tmp_path / "scene.snap"
        db.save(path)
        plain = ObstacleDatabase.load(path)
        assert plain.cache_policy == "static"  # runtime config, not state
        warm = ObstacleDatabase.load(path, cache_policy="adaptive")
        assert warm.cache_policy == "adaptive"
        q = points[0]
        assert warm.nearest("pois", q, 3) == plain.nearest("pois", q, 3)