"""Cross-process trace propagation: a traced batch against the
persistent pool (and a forked child per chunk) yields ONE merged span
tree containing the workers' subtrees — and tracing never changes
answers."""

from __future__ import annotations

import pytest

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs.slowlog import SLOW_LOG
from repro.obs.trace import TRACER


@pytest.fixture
def traced():
    """Turn the global tracer fully on for the test, restore after."""
    prev = TRACER.sample_rate
    TRACER.configure(1.0)
    yield TRACER
    TRACER.configure(prev)
    TRACER.last_root = None
    SLOW_LOG.clear()


@pytest.fixture
def db() -> ObstacleDatabase:
    database = ObstacleDatabase(
        [
            Rect(10.0, 10.0, 20.0, 25.0),
            Rect(40.0, 5.0, 55.0, 18.0),
            Rect(30.0, 40.0, 45.0, 52.0),
        ]
    )
    database.add_entity_set(
        "pois",
        [Point(5.0, 5.0), Point(25.0, 30.0), Point(60.0, 20.0)],
    )
    yield database
    database.close()


QUERIES = [
    Point(0.0, 0.0),
    Point(35.0, 35.0),
    Point(50.0, 2.0),
    Point(12.0, 40.0),
]


class TestPersistentPool:
    def test_traced_pool_batch_merges_worker_spans(self, db, traced):
        # Tracing OFF: the reference answers (and the pool spawn).
        traced.configure(0.0)
        baseline = db.batch_nearest(
            "pois", QUERIES, 2, workers=2, pool="persistent"
        )
        # Tracing ON: bit-identical answers, one merged tree.
        traced.configure(1.0)
        answers = db.batch_nearest(
            "pois", QUERIES, 2, workers=2, pool="persistent"
        )
        assert answers == baseline

        root = traced.last_root
        assert root is not None and root.name == "query.batch_nearest"
        assert root.attrs["n"] == len(QUERIES)
        pool_spans = [s for s in root.walk() if s.name == "pool.batch"]
        assert len(pool_spans) == 1
        workers = [s for s in root.walk() if s.name == "pool.worker"]
        assert workers, "worker span trees were not grafted back"
        assert all(w.attrs["kind"] == "nearest" for w in workers)
        assert sum(w.attrs["stop"] - w.attrs["start"] for w in workers) == (
            len(QUERIES)
        )
        # The worker subtrees carry the hot-layer evidence: R*-tree
        # page fetches (every chunk touches the entity tree) and the
        # graph-cache verdicts for its centres.
        merged: dict[str, int] = {}
        for w in workers:
            for name, value in w.total_counters().items():
                merged[name] = merged.get(name, 0) + value
        assert merged.get("rtree.page_fetch", 0) > 0
        cache_touches = (
            merged.get("graph_cache.hit", 0)
            + merged.get("graph_cache.miss", 0)
        )
        graph_spans = [
            s
            for w in workers
            for s in w.walk()
            if s.name in ("graph.build", "graph.rebuild", "field.build")
        ]
        assert cache_touches > 0 or graph_spans

    def test_untraced_pool_batch_ships_no_span_payload(self, db, traced):
        traced.configure(0.0)
        db.batch_nearest("pois", QUERIES, 2, workers=2, pool="persistent")
        assert traced.last_root is None


class TestBatchExecutor:
    @pytest.mark.parametrize("pool", ["fork", "persistent"])
    def test_one_worker_span_per_chunk_in_both_lifecycles(self, db, traced, pool):
        from repro.serve.pool import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        traced.configure(0.0)
        baseline = db.batch_nearest("pois", QUERIES, 2, workers=3, pool=pool)
        db.reset_stats(clear_buffers=True)
        traced.configure(1.0)
        answers = db.batch_nearest("pois", QUERIES, 2, workers=3, pool=pool)
        assert answers == baseline
        root = traced.last_root
        assert root is not None and root.name == "query.batch_nearest"
        workers = [s for s in root.walk() if s.name == "pool.worker"]
        assert sorted((w.attrs["start"], w.attrs["stop"]) for w in workers) == [
            (0, 2),
            (2, 3),
            (3, 4),
        ]
        # Each subtree carries real work (spans or counters), proving
        # the payload crossed the process boundary, not just the shell.
        assert all(w.children or w.total_counters() for w in workers)


class TestServer:
    def test_serve_batch_span_carries_queue_wait(self, db, traced):
        import asyncio

        from repro.serve.server import QueryServer

        async def drive() -> None:
            async with QueryServer(db, workers=0) as srv:
                await srv.nearest("pois", Point(0.0, 0.0), 1)

        asyncio.run(drive())
        root = traced.last_root
        assert root is not None and root.name == "serve.batch"
        assert root.attrs["kind"] == "nearest"
        assert root.attrs["queue_wait_ms"] >= 0.0
        assert [c.name for c in root.children] == ["query.batch_nearest"]
