"""The asyncio serving front-end: microbatch coalescing over the runtime.

:class:`QueryServer` turns the library's batch entry points into a
request/response service shape: concurrent clients ``await`` single
nearest/range/distance requests, the server coalesces compatible
requests into microbatches, dispatches each batch through the database
— and therefore through the persistent warm worker pool when one is
selected — and resolves every awaiting client with its own answer.

Coalescing is dispatch-driven ("group commit"), not timed: a request
admitted while nothing executes is dispatched on the next loop
iteration with whatever was admitted in the same tick; requests
admitted while a batch executes accumulate per key and become the next
batches, oldest first, each cut at ``max_batch``.  An idle server adds
no wait and a busy one batches exactly as deeply as its backlog, so
there is no window to tune.  Coalescing is what converts concurrency
into the batch shapes the runtime amortizes best: duplicate points and
pairs collapse into the batch memo, distinct ones share one guarded
dispatch, and per-request overhead (pipe round-trips under the
persistent pool, forks under the per-batch pool) is paid once per
microbatch instead of once per request.

Latency is tracked per *request*, admission to settlement, and queue
wait, admission to dispatch start, in the
:class:`~repro.serve.stats.ServeStats` histograms — so the p99 a
benchmark gates on includes the time spent behind other batches, not
just compute.

The server is single-loop asyncio: request handlers run on the event
loop, and one dispatcher task runs the queued microbatches one at a
time on a default-executor thread (the shared
:class:`~repro.runtime.context.QueryContext` is not concurrency-safe),
which keeps the loop free to keep admitting and coalescing requests
while a batch computes.  The dispatcher lives only while there is a
backlog.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Sequence

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER
from repro.serve.stats import ServeStats


class _MicroBatch:
    """The requests of one batch key that will execute together."""

    __slots__ = ("key", "items", "futures", "admitted", "started")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.items: list = []
        self.futures: list[asyncio.Future] = []
        #: Admission timestamps (perf_counter), for per-request latency,
        #: and the moment the batch started executing (0.0 until then).
        self.admitted: list[float] = []
        self.started = 0.0


class QueryServer:
    """An asyncio front-end serving one :class:`ObstacleDatabase`.

    Parameters
    ----------
    db:
        The database to serve.
    workers, pool:
        Forwarded to the database batch methods per microbatch —
        ``pool="persistent"`` with ``workers >= 2`` serves batches
        from the warm persistent pool.  ``workers=None`` is
        sequential.
    max_batch:
        The most requests one microbatch holds (default 64); a deeper
        backlog of one key is served as several batches.

    Use as an async context manager, or call :meth:`close` — every
    admitted request is answered first, then the database's serving
    pool is left to the database's own lifecycle
    (:meth:`ObstacleDatabase.close`).
    """

    def __init__(
        self,
        db,
        *,
        workers: int | None = None,
        pool: str | None = None,
        max_batch: int = 64,
    ) -> None:
        if max_batch < 1:
            raise QueryError(f"max_batch must be >= 1, got {max_batch}")
        self._db = db
        self._workers = workers
        self._pool = pool
        self.max_batch = max_batch
        self.stats = ServeStats(db.context.stats)
        #: Microbatches awaiting dispatch, oldest first, and per key the
        #: queued one that still has room for the next request.
        self._queue: deque[_MicroBatch] = deque()
        self._open: dict[tuple, _MicroBatch] = {}
        #: The task running the queue; ``None`` while there is no backlog.
        self._dispatcher: asyncio.Task | None = None
        self._closed = False
        self._metrics: MetricsRegistry | None = None

    @property
    def db(self):
        """The served database."""
        return self._db

    def metrics(self) -> MetricsRegistry:
        """The unified metrics registry over this server: the served
        database's groups plus ``serve`` (front-end counters and the
        queue-wait histogram) and ``serve_latency`` (per-kind
        histograms)."""
        if self._metrics is None:
            self._metrics = MetricsRegistry.for_server(self)
        return self._metrics

    # ------------------------------------------------------------- requests
    async def nearest(
        self, set_name: str, point: Point, k: int = 1
    ) -> list[tuple[Point, float]]:
        """The ``k`` obstructed NNs of ``point`` (one awaited request)."""
        return await self._submit(("nearest", set_name, k), point)

    async def range(
        self, set_name: str, point: Point, e: float
    ) -> list[tuple[Point, float]]:
        """Entities within obstructed distance ``e`` (one awaited request)."""
        return await self._submit(("range", set_name, e), point)

    async def distance(self, a: Point, b: Point) -> float:
        """The obstructed distance between two points (one awaited
        request; pairs coalesce into ``batch_distance`` microbatches)."""
        return await self._submit(("distance",), (a, b))

    # ------------------------------------------------------------ lifecycle
    async def drain(self) -> None:
        """Await every admitted request, executing or queued
        (``stats.in_flight == 0`` on return)."""
        while self._dispatcher is not None:
            # wait(), not await: cancelling drain() must not cancel it.
            await asyncio.wait([self._dispatcher])

    async def close(self) -> None:
        """Refuse new requests, then answer every admitted one."""
        self._closed = True
        await self.drain()

    async def __aenter__(self) -> "QueryServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------ internals
    async def _submit(self, key: tuple, item):
        if self._closed:
            raise QueryError("QueryServer is closed")
        loop = asyncio.get_running_loop()
        batch = self._open.get(key)
        joined = batch is not None
        if batch is None:
            batch = self._open[key] = _MicroBatch(key)
            self._queue.append(batch)
        future: asyncio.Future = loop.create_future()
        batch.items.append(item)
        batch.futures.append(future)
        batch.admitted.append(time.perf_counter())
        self.stats.admit(joined_open_batch=joined)
        if len(batch.items) >= self.max_batch:
            del self._open[key]
        if self._dispatcher is None:
            # Runs on the next loop iteration: whatever else is admitted
            # in this tick rides in the same microbatches.
            self._dispatcher = loop.create_task(self._dispatch())
        return await future

    async def _dispatch(self) -> None:
        """Run the queued microbatches, oldest first, one at a time,
        until none is left; requests admitted meanwhile queue behind."""
        loop = asyncio.get_running_loop()
        try:
            while self._queue:
                batch = self._queue.popleft()
                if self._open.get(batch.key) is batch:
                    del self._open[batch.key]
                try:
                    results = await loop.run_in_executor(
                        None, self._run_batch, batch
                    )
                except Exception as exc:
                    self._settle(batch, error=exc)
                except BaseException as exc:
                    # Cancelled (loop teardown): refuse the backlog too,
                    # so that no admitted request is left unanswered.
                    error = QueryError(f"QueryServer stopped: {exc!r}")
                    for left in (batch, *self._queue):
                        self._settle(left, error=error)
                    self._queue.clear()
                    self._open.clear()
                    raise
                else:
                    self._settle(batch, results)
        finally:
            self._dispatcher = None

    def _settle(
        self, batch: _MicroBatch, results: Sequence = (), error=None
    ) -> None:
        """Book one finished microbatch and resolve its requests."""
        stats = self.stats
        stats.batches += 1
        now = time.perf_counter()
        started = batch.started or now
        for i, (future, t0) in enumerate(zip(batch.futures, batch.admitted)):
            stats.queue_wait.record(started - t0)
            stats.settle(batch.key[0], now - t0, failed=error is not None)
            if future.done():
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(results[i])

    def _run_batch(self, batch: _MicroBatch) -> list:
        """Executed on the executor thread: one database batch call.

        Opens the serve-side root span: ``serve.batch`` carries the
        microbatch phases — the queue wait of its oldest request (time
        from admission to dispatch start, i.e. the time spent behind
        earlier batches) as an attribute, and the database batch work
        as child spans.
        """
        kind, items = batch.key[0], batch.items
        with TRACER.span("serve.batch", kind=kind, n=len(items)) as span:
            batch.started = time.perf_counter()
            span.set_attr(
                "queue_wait_ms", (batch.started - batch.admitted[0]) * 1000.0
            )
            # The key is a batch command (repro.runtime.batch): the
            # database method named by its kind takes its set name
            # before the items and its parameter after them.
            return getattr(self._db, f"batch_{kind}")(
                *batch.key[1:2],
                items,
                *batch.key[2:],
                workers=self._workers,
                pool=self._pool,
            )

    def __repr__(self) -> str:
        return (
            f"QueryServer(max_batch={self.max_batch}, "
            f"requests={self.stats.requests})"
        )
