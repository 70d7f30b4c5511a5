"""The slow-query log: threshold capture, the ring bound, and the
wiring into the global tracer."""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ReproError
from repro.obs.slowlog import SLOW_LOG, SlowQueryLog
from repro.obs.trace import TRACER, Tracer


def _finished_root(tracer: Tracer, name: str, **attrs):
    with tracer.span(name, **attrs) as span:
        pass
    return span


class TestCapture:
    def test_fast_roots_are_skipped(self):
        log = SlowQueryLog(threshold_ms=1e6)
        tracer = Tracer(sample_rate=1.0)
        tracer.add_root_sink(log.observe)
        _finished_root(tracer, "query.nearest")
        assert len(log) == 0

    def test_over_threshold_root_is_captured_whole(self):
        log = SlowQueryLog(threshold_ms=0.0)
        tracer = Tracer(sample_rate=1.0)
        tracer.add_root_sink(log.observe)
        with tracer.span("query.range", e=5.0):
            with tracer.span("graph.build"):
                tracer.count("sweep.run")
        (entry,) = log.entries()
        assert entry["name"] == "query.range"
        assert entry["attrs"] == {"e": 5.0}
        assert entry["duration_ms"] >= 0.0
        assert entry["trace"]["children"][0]["name"] == "graph.build"
        assert entry["trace"]["children"][0]["counters"] == {"sweep.run": 1}

    def test_threshold_boundary_uses_duration(self):
        log = SlowQueryLog(threshold_ms=5.0)
        tracer = Tracer(sample_rate=1.0)
        tracer.add_root_sink(log.observe)
        span = tracer.span("q")
        span.__enter__()
        span.start = time.perf_counter() - 0.010  # backdate: ~10 ms
        span.__exit__(None, None, None)
        assert len(log) == 1

    def test_ring_is_bounded(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        tracer = Tracer(sample_rate=1.0)
        tracer.add_root_sink(log.observe)
        for i in range(6):
            _finished_root(tracer, f"q{i}")
        names = [e["name"] for e in log.entries()]
        assert names == ["q3", "q4", "q5"]

    def test_clear_and_dump_json(self):
        log = SlowQueryLog(threshold_ms=0.0)
        tracer = Tracer(sample_rate=1.0)
        tracer.add_root_sink(log.observe)
        _finished_root(tracer, "q")
        doc = json.loads(log.dump_json())
        assert doc[0]["name"] == "q"
        log.clear()
        assert log.entries() == []


class TestEnvironment:
    def test_threshold_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "250")
        assert SlowQueryLog().threshold_ms == 250.0
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "-5")
        assert SlowQueryLog().threshold_ms == 0.0
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS")
        assert SlowQueryLog().threshold_ms == 100.0

    @pytest.mark.parametrize("raw", ["banana", "nan"])
    def test_malformed_threshold_is_a_located_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", raw)
        with pytest.raises(ReproError, match=f"REPRO_SLOW_QUERY_MS.*{raw!r}"):
            SlowQueryLog()


class TestGlobalWiring:
    def test_global_log_is_a_tracer_sink(self):
        """The module-level SLOW_LOG is hooked into the global TRACER
        at import time: a slow sampled root lands in it."""
        prev_rate = TRACER.sample_rate
        prev_threshold = SLOW_LOG.threshold_ms
        SLOW_LOG.clear()
        TRACER.configure(1.0)
        SLOW_LOG.threshold_ms = 0.0
        try:
            with TRACER.span("query.slow-wiring-probe"):
                pass
            assert any(
                e["name"] == "query.slow-wiring-probe"
                for e in SLOW_LOG.entries()
            )
        finally:
            TRACER.configure(prev_rate)
            SLOW_LOG.threshold_ms = prev_threshold
            SLOW_LOG.clear()
