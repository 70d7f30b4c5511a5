"""RuntimeStats completeness guard: every counter in ``__slots__``
must flow through snapshot, reset, merge, and the worker reply paths —
a counter added later that misses any of them fails here, not in a
silently-wrong benchmark."""

from __future__ import annotations

import pytest

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.runtime.stats import RuntimeStats

_COUNTERS = [name for name in RuntimeStats.__slots__ if name != "backend"]


def _filled(offset: int = 0) -> RuntimeStats:
    stats = RuntimeStats()
    for i, name in enumerate(_COUNTERS):
        value = float(i + 1 + offset) if name == "sweep_seconds" else i + 1 + offset
        setattr(stats, name, value)
    return stats


class TestSnapshot:
    def test_snapshot_carries_exactly_the_slots(self):
        assert set(RuntimeStats().snapshot()) == set(RuntimeStats.__slots__)

    def test_reset_zeroes_every_counter(self):
        stats = _filled()
        stats.backend = "probe"
        stats.reset()
        for name in _COUNTERS:
            assert getattr(stats, name) == 0, f"reset missed {name}"
        assert stats.backend == "probe"  # configuration survives


class TestMerge:
    def test_merge_accounts_every_counter(self):
        target = _filled()
        source = _filled(offset=100)
        target.merge(source)
        for i, name in enumerate(_COUNTERS):
            expected = (i + 1) + (i + 1 + 100)
            assert getattr(target, name) == expected, f"merge missed {name}"

    def test_merge_from_dict_snapshot(self):
        target = RuntimeStats()
        target.merge(_filled().snapshot())
        for i, name in enumerate(_COUNTERS):
            assert getattr(target, name) == i + 1

    def test_merge_leaves_backend_alone(self):
        target = RuntimeStats()
        target.backend = "mine"
        source = RuntimeStats()
        source.backend = "theirs"
        target.merge(source)
        assert target.backend == "mine"

    @pytest.mark.parametrize("missing", _COUNTERS)
    def test_partial_snapshot_raises_naming_the_counter(self, missing):
        """A producer (pipe reply, fork join) that forgot a counter
        must fail loudly instead of silently dropping worker work."""
        snapshot = RuntimeStats().snapshot()
        del snapshot[missing]
        with pytest.raises(ValueError, match=missing):
            RuntimeStats().merge(snapshot)

    def test_missing_backend_is_tolerated(self):
        snapshot = RuntimeStats().snapshot()
        del snapshot["backend"]
        RuntimeStats().merge(snapshot)  # backend is config, not work


class TestWorkerReplyPaths:
    """The snapshots workers actually ship are complete by construction
    — both pool replies and fork-executor joins run through merge's
    strict check against a live database."""

    @pytest.fixture
    def db(self) -> ObstacleDatabase:
        database = ObstacleDatabase([Rect(10.0, 10.0, 20.0, 25.0)])
        database.add_entity_set("pois", [Point(5.0, 5.0), Point(25.0, 30.0)])
        yield database
        database.close()

    def test_runtime_stats_reply_shape(self, db):
        """db.runtime_stats() is exactly what a pool worker sends."""
        assert set(db.runtime_stats()) == set(RuntimeStats.__slots__)

    def test_pool_reply_merges_cleanly(self, db):
        queries = [Point(0.0, 0.0), Point(30.0, 30.0)]
        results = db.batch_nearest(
            "pois", queries, 1, workers=2, pool="persistent"
        )
        assert len(results) == len(queries)
        assert db.runtime_stats()["pool_batches"] == 1

    def test_fork_executor_reply_merges_cleanly(self, db):
        queries = [Point(0.0, 0.0), Point(30.0, 30.0)]
        results = db.batch_nearest(
            "pois", queries, 1, workers=2, pool="fork"
        )
        assert len(results) == len(queries)
        assert db.runtime_stats()["parallel_batches"] == 1
