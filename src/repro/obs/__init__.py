"""Observability: tracing, unified metrics, and the slow-query log.

The paper's evaluation is an accounting exercise — page accesses,
graph-construction cost, query I/O — but the runtime's counters grew
up in three disconnected systems (:class:`~repro.runtime.stats.RuntimeStats`,
:class:`~repro.stats.counters.PageAccessCounter`,
:class:`~repro.serve.stats.ServeStats`).  This package unifies them:

- :mod:`repro.obs.trace` — a low-overhead :class:`Tracer` producing
  nested span trees for individual queries, sampled via
  ``REPRO_TRACE_SAMPLE`` and free (a few attribute lookups) when off.
  Worker-side spans ship back in the pool's replies (forked or
  persistent workers alike) and graft into the parent trace.
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, one labelled
  hierarchical snapshot over every counter the runtime, index and
  serve layers tick, exportable as JSON and Prometheus text format.
- :mod:`repro.obs.slowlog` — a ring buffer capturing the full span
  tree of queries slower than ``REPRO_SLOW_QUERY_MS``.
- :mod:`repro.obs.timing` — the bench harness's timer.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SLOW_LOG, SlowQueryLog
from repro.obs.timing import Timer
from repro.obs.trace import TRACER, Span, Tracer

__all__ = [
    "MetricsRegistry",
    "SLOW_LOG",
    "SlowQueryLog",
    "Span",
    "TRACER",
    "Timer",
    "Tracer",
]
