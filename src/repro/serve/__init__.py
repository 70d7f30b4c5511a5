"""The serving tier: persistent warm workers, asyncio front-end,
continuous queries.

Three layers, composable but independently usable:

:mod:`repro.serve.pool`
    :class:`PersistentWorkerPool` — long-lived worker processes
    warm-started from a snapshot (zero cold graph builds for covered
    centres), kept current by a replayable mutation-delta feed, and
    reused across batches.  Engaged by the database batch methods via
    ``pool="persistent"``.

:mod:`repro.serve.server`
    :class:`QueryServer` — an asyncio front-end coalescing concurrent
    nearest/range/distance requests into microbatches on dispatch
    (whatever was admitted while the previous batch ran forms the
    next ones; no timer, no window) and tracking per-request latency
    and queue-wait histograms (:class:`ServeStats`).

:mod:`repro.serve.continuous`
    :class:`ContinuousQueryHub` — standing queries for moving clients,
    answered as incremental :class:`ResultDelta` streams on movement
    and obstacle mutation, filtered and served through the repair-first
    graph cache.
"""

from repro.serve.continuous import ContinuousQueryHub, ResultDelta, Subscription
from repro.serve.pool import PersistentWorkerPool
from repro.serve.server import QueryServer
from repro.serve.stats import LatencyHistogram, ServeStats

__all__ = [
    "ContinuousQueryHub",
    "LatencyHistogram",
    "PersistentWorkerPool",
    "QueryServer",
    "ResultDelta",
    "ServeStats",
    "Subscription",
]
