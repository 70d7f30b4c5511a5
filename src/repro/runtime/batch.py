"""Batch query execution: one shared context, or a parallel worker pool.

A workload of many query points against the same datasets is the
common production shape (the paper's experiments run 200-query
workloads).  Sequentially, executing them through one
:class:`~repro.runtime.context.QueryContext` amortizes the runtime
state: R-tree buffers stay warm, visibility graphs persist in the LRU
cache across queries, and *repeated* query points — ubiquitous in real
traffic — are answered from a per-batch memo without touching the
trees at all.

Because query points are independent given a frozen obstacle version,
batches also parallelize: with ``workers >= 2`` the distinct query
points are fanned out over a
:class:`~repro.runtime.executor.BatchExecutor` worker pool forked for
the batch — one private context per worker, per-worker stats merged on
join, result order preserved, and the duplicate-point memo applied up
front (each distinct point is evaluated exactly once in either path).
Where the platform cannot fork, the batch runs sequentially.

Every batch snapshots the obstacle version on entry and verifies it
before returning: a mid-batch obstacle mutation raises
:class:`~repro.errors.DatasetError` instead of silently returning
answers computed against a mix of obstacle versions.

The batch functions take a :class:`~repro.runtime.metric.DistanceOracle`
so the same entry points serve Euclidean and obstructed execution;
:class:`~repro.core.engine.ObstacleDatabase` exposes them as
``batch_nearest`` / ``batch_range`` / ``batch_distance``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.index.rstar import RStarTree
from repro.runtime.executor import BatchExecutor, fork_available
from repro.runtime.metric import DistanceOracle
from repro.runtime.queries import metric_nearest, metric_range

Q = TypeVar("Q")
R = TypeVar("R")


def _run_batch(
    metric: DistanceOracle,
    queries: Iterable[Q],
    evaluate: Callable[[DistanceOracle, Q], R],
    *,
    workers: int,
    tree: RStarTree | None = None,
    pool=None,
    pool_command: tuple | None = None,
) -> list[R]:
    """Shared batch skeleton: dedupe, guard, dispatch, reassemble.

    Duplicate queries (points, or point pairs) are evaluated once and
    fanned back out to every occurrence (booked as
    ``batch_memo_hits``); distinct ones run either through the
    caller's shared metric (sequential), a per-batch forked pool of
    spawned metrics, or — when the caller hands in a
    :class:`~repro.serve.pool.PersistentWorkerPool` with the matching
    ``pool_command`` — the long-lived warm worker pool.
    ``tree`` names the entity tree whose fork-worker page counters
    must be merged back.
    """
    queries = list(queries)
    context = getattr(metric, "context", None)
    stats = getattr(context, "stats", None)
    version = context.version if context is not None else None
    # The distinct queries in first-occurrence order, and each one's slot.
    order: dict = {}
    for q in queries:
        order.setdefault(q, len(order))
    distinct = list(order)
    if stats is not None:
        stats.batch_memo_hits += len(queries) - len(distinct)

    fan_out = workers > 1 and len(distinct) > 1
    if fan_out and pool is not None:
        evaluated = pool.run_batch(pool_command, distinct)
        if stats is not None:
            stats.parallel_batches += 1
            stats.pool_batches += 1
    elif fan_out and hasattr(metric, "spawn") and fork_available():
        trees = [tree] if tree is not None else None
        evaluated = BatchExecutor(workers).run(
            metric, distinct, evaluate, stats=stats, trees=trees
        )
        if stats is not None:
            stats.parallel_batches += 1
    else:
        evaluated = [evaluate(metric, q) for q in distinct]
    if context is not None and context.version != version:
        # Results computed so far span two obstacle sets and must not
        # be returned as one batch.
        raise DatasetError(
            "obstacle set mutated during batch execution "
            f"(version {version} -> {context.version}); the partial "
            "answers span two obstacle versions — re-run the batch "
            "after quiescing updates"
        )
    return [evaluated[order[q]] for q in queries]


def batch_nearest(
    tree: RStarTree,
    metric: DistanceOracle,
    queries: Iterable[Point],
    k: int = 1,
    *,
    prune_bound: bool = True,
    workers: int = 0,
    pool=None,
    pool_command: tuple | None = None,
) -> list[list[tuple[Point, float]]]:
    """One k-NN result list per query point, in input order.

    Exactly equivalent to calling
    :func:`~repro.runtime.queries.metric_nearest` per point with a
    shared metric; duplicate query points are computed once, and
    ``workers >= 2`` fans the distinct points over a worker pool (the
    obstacle set must not be mutated mid-batch — a moved version
    raises :class:`DatasetError`).  ``pool``/``pool_command`` (set by
    the database facade) reroute the fan-out to a persistent pool.
    """

    def evaluate(m: DistanceOracle, q: Point) -> list[tuple[Point, float]]:
        return metric_nearest(tree, m, q, k, prune_bound=prune_bound)

    shared = _run_batch(
        metric,
        queries,
        evaluate,
        workers=workers,
        tree=tree,
        pool=pool,
        pool_command=pool_command,
    )
    return [list(result) for result in shared]


def batch_range(
    tree: RStarTree,
    metric: DistanceOracle,
    queries: Iterable[Point],
    e: float,
    *,
    workers: int = 0,
    pool=None,
    pool_command: tuple | None = None,
) -> list[list[tuple[Point, float]]]:
    """One range result list per query point, in input order.

    Exactly equivalent to calling
    :func:`~repro.runtime.queries.metric_range` per point with a
    shared metric; duplicate query points are computed once, and
    ``workers >= 2`` parallelizes exactly as for :func:`batch_nearest`.
    """

    def evaluate(m: DistanceOracle, q: Point) -> list[tuple[Point, float]]:
        return metric_range(tree, m, q, e)

    shared = _run_batch(
        metric,
        queries,
        evaluate,
        workers=workers,
        tree=tree,
        pool=pool,
        pool_command=pool_command,
    )
    return [list(result) for result in shared]


def batch_distance(
    metric: DistanceOracle,
    pairs: Sequence[tuple[Point, Point]],
    *,
    workers: int = 0,
    pool=None,
) -> list[float]:
    """Metric distances for many point pairs, in input order.

    Pairs sharing their second element reuse the cached graph keyed at
    that expansion centre (the ODJ seed observation applied to ad-hoc
    distance workloads).  Like the other batch entry points, a
    duplicate pair is computed once, a mid-batch obstacle mutation
    raises :class:`DatasetError`, and ``workers >= 2`` fans the
    distinct pairs over a per-batch fork pool.  A persistent ``pool``
    handed in serves them instead, whatever ``workers`` says (here the
    pool alone has always been the request to fan out).
    """
    return _run_batch(
        metric,
        [(p, q) for p, q in pairs],
        lambda m, pair: m.distance(*pair),
        workers=workers if pool is None else max(workers, 2),
        pool=pool,
        pool_command=("distance",),
    )
