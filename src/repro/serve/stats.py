"""Serving-tier observability: latency histograms over the runtime counters.

The library-call layers report *work* (graph builds, page accesses,
sweeps — :class:`~repro.runtime.stats.RuntimeStats`); a serving tier
must additionally report *latency* as experienced by clients, which is
a distribution, not a counter.  :class:`LatencyHistogram` is a
log-bucketed histogram cheap enough to tick on every request;
:class:`ServeStats` groups one histogram per request kind with the
front-end's coalescing/in-flight counters, the queue-wait histogram
and the underlying :class:`RuntimeStats`, so one snapshot answers "how
slow was p99", "how much of that was waiting for a turn" and "how much
work did that traffic cost".
"""

from __future__ import annotations

import math

from repro.errors import QueryError
from repro.runtime.stats import RuntimeStats

#: Lower edge of the first histogram bucket (seconds): 1 microsecond.
_FLOOR = 1e-6

#: Geometric bucket growth factor.  With a 1.25x ratio the relative
#: error of any reported percentile is bounded by 25% — tight enough
#: for p99 regression gating, at 80 buckets per 1e6x dynamic range.
_RATIO = 1.25


class LatencyHistogram:
    """A log-bucketed latency histogram with percentile queries.

    Samples are assigned to geometric buckets (ratio 1.25 above a 1 us
    floor); :meth:`percentile` answers from the bucket upper edges, so
    reported quantiles overestimate by at most one bucket ratio.
    Constant memory, O(1) record, no sample retention — safe to leave
    on under production traffic.
    """

    __slots__ = ("_buckets", "count", "total", "max")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    @staticmethod
    def _bucket(seconds: float) -> int:
        if seconds <= _FLOOR:
            return 0
        return 1 + int(math.log(seconds / _FLOOR) / math.log(_RATIO))

    @staticmethod
    def _upper_edge(bucket: int) -> float:
        return _FLOOR * _RATIO**bucket

    def record(self, seconds: float) -> None:
        """Add one latency sample (in seconds)."""
        if seconds < 0:
            raise QueryError(f"latency cannot be negative, got {seconds}")
        b = self._bucket(seconds)
        self._buckets[b] = self._buckets.get(b, 0) + 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, p: float) -> float:
        """The latency at quantile ``p`` in ``(0, 100]`` (0.0 if empty)."""
        if not 0 < p <= 100:
            raise QueryError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = math.ceil(self.count * p / 100.0)
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= rank:
                return min(self._upper_edge(bucket), self.max)
        return self.max

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded samples (0.0 if empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        for bucket, n in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + n
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    def snapshot(self) -> dict[str, float]:
        """Headline quantiles and moments as a plain dict."""
        return {
            "count": float(self.count),
            "mean_s": self.mean,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "max_s": self.max,
        }

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, "
            f"p50={self.percentile(50) * 1000:.2f}ms, "
            f"p99={self.percentile(99) * 1000:.2f}ms)"
        )


class ServeStats:
    """Counters and latency distributions of one serving front-end.

    One per :class:`~repro.serve.server.QueryServer`.  ``runtime`` is
    the served database's shared :class:`RuntimeStats`, included in
    :meth:`snapshot` so a single document carries request latency
    *and* the runtime work it caused.
    """

    def __init__(self, runtime: RuntimeStats | None = None) -> None:
        self.runtime = runtime
        self.histograms: dict[str, LatencyHistogram] = {}
        #: Requests accepted / completed / failed.
        self.requests = 0
        self.completed = 0
        self.failed = 0
        #: Microbatches dispatched, and requests that joined a batch
        #: already open when they arrived (the coalescing win).
        self.batches = 0
        self.coalesced = 0
        #: Requests currently admitted and not yet answered, and the
        #: high-water mark of that depth.
        self.in_flight = 0
        self.in_flight_peak = 0
        #: Per request, admission to the start of its batch's execution:
        #: the time spent queued behind earlier batches.
        self.queue_wait = LatencyHistogram()

    def histogram(self, kind: str) -> LatencyHistogram:
        """The latency histogram for one request kind (creating it)."""
        hist = self.histograms.get(kind)
        if hist is None:
            hist = self.histograms[kind] = LatencyHistogram()
        return hist

    def admit(self, joined_open_batch: bool = False) -> None:
        """Book one accepted request (optionally a coalesced one)."""
        self.requests += 1
        if joined_open_batch:
            self.coalesced += 1
        self.in_flight += 1
        if self.in_flight > self.in_flight_peak:
            self.in_flight_peak = self.in_flight

    def settle(self, kind: str, seconds: float, *, failed: bool = False) -> None:
        """Book one finished request with its end-to-end latency."""
        self.in_flight -= 1
        if failed:
            self.failed += 1
        else:
            self.completed += 1
        self.histogram(kind).record(seconds)

    def snapshot(self) -> dict[str, object]:
        """Counters, per-kind latency quantiles, and the runtime's
        work counters, as one plain dict."""
        doc: dict[str, object] = {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "in_flight": self.in_flight,
            "in_flight_peak": self.in_flight_peak,
            "queue_wait": self.queue_wait.snapshot(),
            "latency": {
                kind: hist.snapshot() for kind, hist in self.histograms.items()
            },
        }
        if self.runtime is not None:
            doc["runtime"] = self.runtime.snapshot()
        return doc

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{kind}: {hist!r}" for kind, hist in self.histograms.items()
        )
        return (
            f"ServeStats(requests={self.requests}, batches={self.batches}, "
            f"{kinds})"
        )
