"""Batch query execution: one command vocabulary, three routes.

A workload of many query points against the same datasets is the
common production shape (the paper's experiments run 200-query
workloads).  A batch is a *command* and a list of items:

* ``("nearest", set_name, k)`` over query points,
* ``("range", set_name, e)`` over query points,
* ``("distance",)`` over ``(a, b)`` point pairs

— the key :class:`~repro.serve.server.QueryServer` coalesces requests
on.  :func:`evaluate` is the one place a command is decoded; every
route runs it.  :func:`run_batch` dedupes the items (each distinct one
is evaluated once, the rest booked as ``batch_memo_hits``), routes the
distinct ones and guards the obstacle version:

* **sequential** (``workers`` < 2, or one distinct item) — through the
  database's shared context: warm R-tree buffers and graph cache;
* **fork** — one forked child per chunk, which inherits the database
  in memory (:func:`repro.serve.pool.fork_batch`); sequential where
  the platform cannot fork;
* **persistent** — the long-lived snapshot-warm-started
  :class:`~repro.serve.pool.PersistentWorkerPool`
  (``db.serving_pool(workers)``, created on the first batch that fans
  out).

The two parallel routes share one worker body, one reply and one
collect loop (:mod:`repro.serve.pool`).  Every batch snapshots the
obstacle version on entry and verifies it before returning: a
mid-batch obstacle mutation raises :class:`~repro.errors.DatasetError`
instead of silently returning answers computed against a mix of
obstacle versions.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.nearest import obstacle_nearest
from repro.core.range import obstacle_range
from repro.errors import DatasetError, QueryError


def evaluate(db, command: tuple, items: Sequence) -> list:
    """One answer per item of ``items`` under ``command``, through
    ``db``'s shared context and the per-point queries — the same call
    in the parent and in every worker, which is what makes every
    route's answers bit-identical."""
    context = db.context
    kind = command[0]
    if kind == "distance":
        return [context.distance(a, b) for a, b in items]
    if kind == "nearest":
        __, set_name, k = command
        tree = db.entity_tree(set_name)
        return [
            obstacle_nearest(tree, context.source, q, k, context=context)
            for q in items
        ]
    if kind == "range":
        __, set_name, e = command
        tree = db.entity_tree(set_name)
        return [
            obstacle_range(tree, context.source, q, e, context=context)
            for q in items
        ]
    raise QueryError(f"unknown batch command {kind!r}")


def run_batch(
    db, command: tuple, items: Sequence, *, workers: int, pool: str | None
) -> list:
    """``evaluate(db, command, items)``, deduplicated, routed and
    version-guarded (see the module docstring) — the one place a route
    is chosen.  ``pool`` is ``"persistent"`` (``db.serving_pool``) or
    anything else for fork per batch; either engages only from
    ``workers >= 2`` and two distinct items."""
    from repro.serve.pool import fork_available, fork_batch  # imports this module

    context = db.context
    stats = context.stats
    version = context.version
    # The distinct items in first-occurrence order, and each one's slot.
    order: dict = {}
    for item in items:
        order.setdefault(item, len(order))
    distinct = list(order)
    stats.batch_memo_hits += len(items) - len(distinct)

    fan_out = workers > 1 and len(distinct) > 1
    if fan_out and pool == "persistent":
        evaluated = db.serving_pool(workers).run_batch(command, distinct)
        stats.parallel_batches += 1
        stats.pool_batches += 1
    elif fan_out and fork_available():
        evaluated = fork_batch(db, command, distinct, workers)
        stats.parallel_batches += 1
    else:
        evaluated = evaluate(db, command, distinct)
    if context.version != version:
        # Results computed so far span two obstacle sets and must not
        # be returned as one batch.
        raise DatasetError(
            "obstacle set mutated during batch execution "
            f"(version {version} -> {context.version}); the partial "
            "answers span two obstacle versions — re-run the batch "
            "after quiescing updates"
        )
    answers = [evaluated[order[item]] for item in items]
    if command[0] == "distance":
        return answers
    return [list(answer) for answer in answers]  # one list per occurrence
