"""The serving-tier observability layer: histograms and ServeStats."""

import pytest

from repro.errors import QueryError
from repro.runtime.stats import RuntimeStats
from repro.serve.stats import _RATIO, LatencyHistogram, ServeStats


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(50) == 0.0
        assert hist.mean == 0.0
        assert hist.max == 0.0

    def test_single_sample_percentiles_equal_it(self):
        hist = LatencyHistogram()
        hist.record(0.004)
        # Any percentile is clamped to the true max for one sample.
        assert hist.percentile(50) == 0.004
        assert hist.percentile(99) == 0.004

    def test_percentiles_monotonic(self):
        hist = LatencyHistogram()
        for i in range(1, 200):
            hist.record(i / 1000.0)
        p50, p95, p99 = (hist.percentile(p) for p in (50, 95, 99))
        assert p50 <= p95 <= p99 <= hist.max

    def test_relative_error_bounded_by_ratio(self):
        hist = LatencyHistogram()
        samples = [0.0001 * (1 + i % 37) for i in range(500)]
        for s in samples:
            hist.record(s)
        exact = sorted(samples)[int(0.95 * len(samples)) - 1]
        approx = hist.percentile(95)
        assert exact <= approx <= exact * _RATIO

    def test_subfloor_samples_land_in_bucket_zero(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(1e-9)
        assert hist.count == 2
        assert hist.percentile(99) <= 1e-6

    def test_mean_and_max(self):
        hist = LatencyHistogram()
        for s in (0.001, 0.002, 0.003):
            hist.record(s)
        assert hist.mean == pytest.approx(0.002)
        assert hist.max == 0.003

    def test_negative_sample_rejected(self):
        with pytest.raises(QueryError):
            LatencyHistogram().record(-0.001)

    @pytest.mark.parametrize("p", [0, -5, 101])
    def test_bad_percentile_rejected(self, p):
        with pytest.raises(QueryError):
            LatencyHistogram().percentile(p)

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for s in (0.001, 0.010):
            a.record(s)
        for s in (0.100, 0.200):
            b.record(s)
        a.merge(b)
        assert a.count == 4
        assert a.max == 0.200
        assert a.total == pytest.approx(0.311)
        assert a.percentile(99) >= 0.1

    def test_snapshot_keys(self):
        hist = LatencyHistogram()
        hist.record(0.005)
        snap = hist.snapshot()
        assert set(snap) == {"count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"}
        assert snap["count"] == 1.0


class TestServeStats:
    def test_admit_settle_counters(self):
        stats = ServeStats()
        stats.admit()
        stats.admit(joined_open_batch=True)
        assert stats.requests == 2
        assert stats.coalesced == 1
        assert stats.in_flight == 2
        assert stats.in_flight_peak == 2
        stats.settle("nearest", 0.003)
        stats.settle("nearest", 0.004, failed=True)
        assert stats.in_flight == 0
        assert stats.in_flight_peak == 2
        assert stats.completed == 1
        assert stats.failed == 1
        assert stats.histogram("nearest").count == 2

    def test_snapshot_includes_runtime(self):
        runtime = RuntimeStats()
        runtime.graph_builds = 7
        stats = ServeStats(runtime)
        stats.admit()
        stats.settle("range", 0.001)
        snap = stats.snapshot()
        assert snap["runtime"]["graph_builds"] == 7
        assert "range" in snap["latency"]

    def test_snapshot_without_runtime(self):
        snap = ServeStats().snapshot()
        assert "runtime" not in snap
        assert snap["queue_wait"]["count"] == 0
