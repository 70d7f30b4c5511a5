"""The versioned LRU visibility-graph cache."""

import pytest

from repro.geometry import Point
from repro.runtime.cache import CachedGraph, VisibilityGraphCache
from repro.runtime.stats import RuntimeStats
from repro.visibility import VisibilityGraph
from tests.conftest import static_version


def _entry(x, y, version=()):
    center = Point(x, y)
    return CachedGraph(VisibilityGraph.build([center], []), center, 0.0, version)


def _at(*version):
    """``version_for`` of a source whose every disk reads ``version``."""
    return lambda center, radius: version


class TestLRUPolicy:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            VisibilityGraphCache(0)

    def test_eviction_order_is_lru_not_fifo(self):
        cache = VisibilityGraphCache(2)
        a, b = _entry(0, 0), _entry(1, 1)
        cache.put(a)
        cache.put(b)
        # Touch `a`: under FIFO it would still be evicted next; under
        # LRU the victim becomes `b`.
        assert cache.get(a.center, static_version) is a
        cache.put(_entry(2, 2))
        assert a.center in cache
        assert b.center not in cache

    def test_eviction_on_overflow(self):
        cache = VisibilityGraphCache(3)
        entries = [_entry(i, i) for i in range(5)]
        for e in entries:
            cache.put(e)
        assert len(cache) == 3
        assert cache.keys() == [e.center for e in entries[2:]]
        assert cache.stats.graph_cache_evictions == 2

    def test_get_moves_to_end(self):
        cache = VisibilityGraphCache(3)
        entries = [_entry(i, i) for i in range(3)]
        for e in entries:
            cache.put(e)
        cache.get(entries[0].center, static_version)
        assert cache.keys()[-1] == entries[0].center

    def test_put_refreshes_existing_center(self):
        cache = VisibilityGraphCache(2)
        a, b = _entry(0, 0), _entry(1, 1)
        cache.put(a)
        cache.put(b)
        replacement = _entry(0, 0)
        cache.put(replacement)
        assert len(cache) == 2
        assert cache.get(a.center, static_version) is replacement


class TestVersioning:
    def test_version_mismatch_is_dropped(self):
        cache = VisibilityGraphCache(4)
        stale = _entry(0, 0, version=(1,))
        cache.put(stale)
        assert cache.get(stale.center, _at(2)) is None
        assert stale.center not in cache
        assert cache.stats.graph_cache_invalidations == 1

    def test_matching_version_is_served(self):
        cache = VisibilityGraphCache(4)
        entry = _entry(0, 0, version=(7,))
        cache.put(entry)
        assert cache.get(entry.center, _at(7)) is entry

    def test_stamp_is_read_at_the_entrys_own_disk(self):
        # With spatial keys the lookup centre is not the entry's: the
        # stamp compared is the one of the entry's centre and coverage.
        cache = VisibilityGraphCache(4, snap=2.0)
        center = Point(10.0, 10.0)
        entry = CachedGraph(VisibilityGraph.build([center], []), center, 3.0, (5,))
        cache.put(entry)
        asked = []

        def version_for(c, r):
            asked.append((c, r))
            return (5,)

        assert cache.get(Point(10.4, 9.8), version_for) is entry
        assert asked == [(center, 3.0)]

    def test_stats_counters(self):
        stats = RuntimeStats()
        cache = VisibilityGraphCache(4, stats=stats)
        entry = _entry(0, 0)
        assert cache.get(entry.center, static_version) is None
        cache.put(entry)
        cache.get(entry.center, static_version)
        snap = stats.snapshot()
        assert snap["graph_cache_misses"] == 1
        assert snap["graph_cache_hits"] == 1

    def test_clear(self):
        cache = VisibilityGraphCache(4)
        cache.put(_entry(0, 0))
        cache.clear()
        assert len(cache) == 0
