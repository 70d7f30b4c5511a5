"""Slow-query log: full span trees for queries over a latency threshold.

Hooked into the tracer as a root-span sink: whenever a sampled query's
root span finishes slower than ``REPRO_SLOW_QUERY_MS`` (default 100),
its entire span tree is captured into a bounded ring buffer — the
flight recorder you read *after* the latency spike, without having had
per-query logging on.  A threshold that is not a number raises
:class:`~repro.errors.QueryError` naming it.

Only traced queries can be captured (the log sees root spans, and
unsampled queries never open one) — under sampling the log is a
representative slice, not a census.  Run with ``REPRO_TRACE_SAMPLE=1``
when hunting a specific regression.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from typing import Any

from repro.errors import QueryError
from repro.obs.trace import TRACER, Span

__all__ = ["SlowQueryLog", "SLOW_LOG"]

_ENV_THRESHOLD = "REPRO_SLOW_QUERY_MS"

#: Default capture threshold (milliseconds).
DEFAULT_THRESHOLD_MS = 100.0

#: Entries retained; older captures fall off the ring.
DEFAULT_CAPACITY = 64


def _env_threshold_ms() -> float:
    raw = os.environ.get(_ENV_THRESHOLD, "").strip()
    if not raw:
        return DEFAULT_THRESHOLD_MS
    try:
        threshold = float(raw)
    except ValueError:
        threshold = math.nan
    if math.isnan(threshold):  # "nan" parses, and no duration compares below it
        raise QueryError(
            f"{_ENV_THRESHOLD} must be a number of milliseconds, got {raw!r}"
        )
    return max(threshold, 0.0)


class SlowQueryLog:
    """A bounded ring of span trees from over-threshold queries."""

    def __init__(
        self,
        threshold_ms: float | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.threshold_ms = (
            _env_threshold_ms() if threshold_ms is None else threshold_ms
        )
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)

    def observe(self, root: Span) -> None:
        """Root-span sink: capture the tree if it breached the threshold."""
        duration_ms = root.duration * 1000.0
        if duration_ms < self.threshold_ms:
            return
        self._ring.append(
            {
                "name": root.name,
                "duration_ms": duration_ms,
                "attrs": dict(root.attrs),
                "trace": root.to_dict(),
            }
        )

    def entries(self) -> list[dict[str, Any]]:
        """Captured entries, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        """Drop every captured entry."""
        self._ring.clear()

    def dump_json(self, indent: int | None = 2) -> str:
        """The log as a JSON document (for artifacts / ``repro-obs``)."""
        return json.dumps(self.entries(), indent=indent)

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"SlowQueryLog(threshold_ms={self.threshold_ms}, "
            f"entries={len(self._ring)})"
        )


#: The process-wide slow-query log, wired into the global tracer.
SLOW_LOG = SlowQueryLog()
TRACER.add_root_sink(SLOW_LOG.observe)
