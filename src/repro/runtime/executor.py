"""The parallel batch execution engine.

A batch workload is a list of independent query points evaluated
against a frozen obstacle version — exactly the shape a worker pool
parallelizes: split the (deduplicated) query list into contiguous
chunks, give every worker a *private* :class:`~repro.runtime.context.
QueryContext` over the shared obstacle source (private graph cache,
private :class:`~repro.runtime.stats.RuntimeStats`), run the chunks
concurrently, and merge the worker stats into the parent context on
join.  Result order is preserved by reassembling chunks by offset.

Worker count
    The ``workers`` argument of the batch entry points.  Values of 0
    or 1 mean sequential execution — the batch entry points in
    :mod:`repro.runtime.batch` keep their single-context fast path and
    never construct an executor pool.

Fork per batch
    One OS process per worker (``multiprocessing`` fork context):
    CPython's GIL serializes the pure-python sweep/Dijkstra work that
    dominates obstructed queries, so wall-clock speedup needs
    processes.  The pool is forked per batch, so children see the
    parent's current trees copy-on-write and nothing needs pickling
    except the results and the per-worker stats snapshots.  Per-tree
    simulated page counters ticked inside the children are shipped
    back as name-keyed deltas alongside the runtime stats and added
    onto the parent's trees on join, so page-access benchmarks account
    forked work exactly like sequential work.  Where the platform has
    no fork start method the batch entry points run sequentially.

Pool kind
    The ``pool=`` argument of the
    :class:`~repro.core.engine.ObstacleDatabase` batch methods selects
    between ``"fork"`` — this module's per-batch pool — and
    ``"persistent"``, the long-lived snapshot-warm-started worker pool
    of :mod:`repro.serve.pool` that amortizes fork and cold-graph-build
    cost across batches.  The free-standing batch functions always use
    the per-batch pool; the persistent kind is engaged by the database
    facade, which owns the pool's lifecycle (and validates both
    arguments).
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence, TypeVar

from repro.errors import QueryError
from repro.obs.trace import TRACER
from repro.runtime.stats import RuntimeStats
from repro.stats.counters import add_page_counts, page_counts, page_deltas

Q = TypeVar("Q")
R = TypeVar("R")


def fork_available() -> bool:
    """True when the fork start method exists on this platform."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _chunk_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous, balanced ``(start, stop)`` ranges over ``n``."""
    size, extra = divmod(n, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


def _traced(name: str, work: Callable[[], R], trace: bool, **attrs):
    """The worker side of one chunk, for both pools: ``work()`` and the
    span tree to ship back.  The sampling decision is the parent's —
    when it traced the batch (``trace``) the worker resets its thread's
    tracer and evaluates under a detached root span ``name`` whatever
    its own sample rate, otherwise it opens no span at all."""
    if not trace:
        return work(), None
    TRACER.reset_thread()
    span = TRACER.detached(name, **attrs)
    with span:
        result = work()
    return result, span.to_dict()


def _join(n: int, parts, stats: RuntimeStats | None, trees) -> list:
    """The parent side, for both pools: place each worker's chunk at
    its offset in an ``n``-slot result list, merge its runtime stats
    into ``stats``, add its page-counter deltas onto ``trees`` and
    graft its span tree under the open span."""
    results: list = [None] * n
    for start, chunk_results, worker_stats, worker_pages, span_doc in parts:
        results[start : start + len(chunk_results)] = chunk_results
        if stats is not None and worker_stats is not None:
            stats.merge(worker_stats)
        add_page_counts(trees, worker_pages)
        TRACER.graft(span_doc)
    return results


class _ForkTask:
    """The per-batch state fork children inherit (never pickled)."""

    __slots__ = ("metric", "queries", "evaluate", "trees", "trace")

    def __init__(self, metric, queries, evaluate, trees, trace) -> None:
        self.metric = metric
        self.queries = queries
        self.evaluate = evaluate
        self.trees = trees
        self.trace = trace


_FORK_TASK: _ForkTask | None = None

#: Serializes concurrent forked batches in one process: the task
#: state travels to the children through a module global set between
#: lock acquisition and pool fork, so two parent threads forking at
#: once would otherwise race on it (and oversubscribe the cores).
_FORK_LOCK = threading.Lock()


def _run_chunk_fork(chunk: tuple[int, int]):
    """Executed inside a forked worker: evaluate one chunk over a
    private context spawned from the inherited task state."""
    task = _FORK_TASK
    assert task is not None, "fork worker started without task state"
    return _evaluate_chunk(
        task.metric,
        task.queries,
        task.evaluate,
        chunk,
        trees=task.trees,
        trace=task.trace,
    )


def _task_trees(metric, trees) -> list:
    """The trees whose page counters a forked batch must account: the
    caller-supplied ones (entity trees) plus every tree of the
    metric's obstacle source, deduplicated by name."""
    seen: dict[str, object] = {}
    for tree in trees or ():
        seen.setdefault(tree.name, tree)
    context = getattr(metric, "context", None)
    source = getattr(context, "source", None)
    if source is not None:
        for tree in source.trees():
            seen.setdefault(tree.name, tree)
    return list(seen.values())


def _evaluate_chunk(
    metric,
    queries: Sequence[Q],
    evaluate,
    chunk: tuple[int, int],
    *,
    trees: "Sequence | None" = None,
    trace: bool = False,
):
    # Forked children tick copy-on-write copies of the parent's page
    # counters; snapshot a baseline so the reply can carry exact
    # per-tree deltas for the parent to add back.  A nested batch
    # passes trees=None: it ticks the very counters its process tracks.
    baselines = page_counts(trees or ())
    worker_metric = metric.spawn()
    start, stop = chunk
    results, span_doc = _traced(
        "batch.worker",
        lambda: [evaluate(worker_metric, queries[i]) for i in range(start, stop)],
        trace,
        start=start,
        stop=stop,
    )
    context = getattr(worker_metric, "context", None)
    stats = context.stats.snapshot() if context is not None else None
    pages = page_deltas(trees or (), baselines)
    return start, results, stats, pages, span_doc


class BatchExecutor:
    """A worker pool evaluating independent queries over spawned metrics.

    The executor is construction-cheap: the pool is forked per
    :meth:`run` call, so children see the current obstacle trees.
    ``workers <= 1`` executors refuse to run — callers keep their
    sequential path, which shares one context and its memo.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def run(
        self,
        metric,
        queries: Sequence[Q],
        evaluate: Callable[[object, Q], R],
        *,
        stats: RuntimeStats | None = None,
        trees: "Sequence | None" = None,
    ) -> list[R]:
        """``[evaluate(worker_metric, q) for q in queries]``, in order.

        ``metric`` must support ``spawn()`` (an independent equivalent
        metric); each worker evaluates its chunk against its own spawn.
        Worker runtime stats are merged into ``stats`` when given.
        ``trees`` lists extra trees (beyond the metric's obstacle
        source) whose simulated page counters the workers must ship
        back — their deltas are added onto the parent's counters on
        join.
        """
        if self.workers < 2:
            raise QueryError("BatchExecutor.run needs >= 2 workers")
        n = len(queries)
        chunks = _chunk_ranges(n, min(self.workers, n))
        tracked = _task_trees(metric, trees)
        # The sampling decision is the parent's: when a span is open
        # here, every worker traces its chunk and the subtrees are
        # grafted back below (one merged tree per batch).
        parts = self._run_fork(
            metric, queries, evaluate, chunks, tracked, TRACER.tracing()
        )
        return _join(n, parts, stats, tracked)

    def _run_fork(self, metric, queries, evaluate, chunks, trees, trace):
        import multiprocessing

        global _FORK_TASK
        if _FORK_TASK is not None:  # pragma: no cover - nested batches
            # A forked child running a batch of its own must not
            # re-fork over the parent's task state (children are born
            # with _FORK_TASK set, and never touch the lock): it
            # evaluates the chunks itself, ticking counters and spans
            # its own reply already carries.
            return [
                _evaluate_chunk(metric, queries, evaluate, chunk)
                for chunk in chunks
            ]
        with _FORK_LOCK:
            _FORK_TASK = _ForkTask(metric, queries, evaluate, trees, trace)
            try:
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(processes=len(chunks)) as pool:
                    return pool.map(_run_chunk_fork, chunks)
            finally:
                _FORK_TASK = None

    def __repr__(self) -> str:
        return f"BatchExecutor(workers={self.workers})"
