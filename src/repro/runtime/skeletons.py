"""Shared traversal skeletons of the query runtime.

Every best-first algorithm in the codebase — incremental Euclidean
nearest neighbours [HS99], incremental closest pairs [HS98, CMTV00] —
is the same loop: a priority queue mixes *internal* items (R-tree
nodes or node pairs, keyed by a lower bound) with *final* items (data
entries or data pairs, keyed by their exact distance); popping a final
item emits it, popping an internal item expands it.  The seed code
duplicated that heap loop per module; :func:`best_first` is the single
shared skeleton, and the ``euclidean`` iterators are parameterizations
of it (see :mod:`repro.euclidean.nearest`,
:mod:`repro.euclidean.closest`).

:func:`emit_in_metric_order` is the other shared loop: the deferred
emit of incremental ONN and iOCP, which turns a stream in ascending
lower-bound (Euclidean) order into one in ascending exact order.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: One expansion: ``(keys, is_final, make)``.  ``keys[i]`` is the exact
#: distance (final batch) or a lower bound (internal batch) of the
#: ``i``-th child of the expanded item, ``make(i)`` builds its payload.
Batch = tuple[Sequence[float], bool, Callable[[int], Any]]


def best_first(
    seeds: Batch,
    expand: Callable[[Any], Batch],
) -> Iterator[tuple[Any, float]]:
    """The generic best-first skeleton.

    Yields ``(payload, key)`` for final items in ascending key order;
    popping an internal item calls ``expand(payload)`` for the batch of
    its children.  Correctness requires the usual lower-bound property:
    every key of a batch is no smaller than the key of the item it was
    expanded from.

    The queue holds one entry per batch, not per item: the batch's
    smallest unreleased ``(key, seq)``, where ``seq`` numbers items in
    the order they were produced (ties pop first-produced first).
    Popping it releases the batch's next one, so the pop order — and
    with it every ``expand`` call — is that of pushing all items, while
    ``make`` runs only for items that are actually popped.  A batch
    stays the two arrays its stable sort gives; only the key and index
    of a released item become Python numbers, so a batch of thousands
    of which a few are popped costs its sort and those few.
    """
    # A batch is (sorted keys, their indices in production order, seq
    # of index 0, is_final, make); the heap holds (key, seq, rank, batch)
    # for the rank-th smallest key of each batch that has one left.
    heap: list[tuple[float, int, int, tuple]] = []
    produced = 0

    def admit(keys: Sequence[float], is_final: bool, make: Callable) -> None:
        nonlocal produced
        keys = np.asarray(keys, dtype=np.float64)
        order = keys.argsort(kind="stable")
        release((keys[order], order, produced, is_final, make), 0)
        produced += len(keys)

    def release(batch: tuple, rank: int) -> None:
        keys, order, base = batch[:3]
        if rank < len(keys):
            item = (keys.item(rank), base + order.item(rank), rank, batch)
            heapq.heappush(heap, item)

    admit(*seeds)
    while heap:
        key, seq, rank, batch = heapq.heappop(heap)
        release(batch, rank + 1)
        __, __, base, is_final, make = batch
        payload = make(seq - base)
        if is_final:
            yield payload, key
        else:
            admit(*expand(payload))


def take(stream: Iterator[T], k: int) -> list[T]:
    """The first ``k`` items of ``stream`` (fewer when it ends early)."""
    return list(islice(stream, k))


def emit_in_metric_order(
    candidates: Iterable[tuple[T, float]],
    evaluate: Callable[[T, float], float],
) -> Iterator[tuple[T, float]]:
    """The deferred-emit loop shared by incremental ONN and iOCP
    (paper Sec. 6's methodology).

    ``candidates`` arrive in ascending *lower-bound* order (Euclidean);
    ``evaluate(payload, lower_bound)`` produces the exact metric key.
    A held item is emitted as soon as its exact key is no larger than
    the newest candidate's lower bound: every later candidate has a
    larger lower bound — hence a larger exact key — so ascending exact
    order is guaranteed without a predefined cutoff.
    """
    hold: list[tuple[float, int, T]] = []
    seq = 0
    for payload, lower in candidates:
        while hold and hold[0][0] <= lower:
            key, __, ready = heapq.heappop(hold)
            yield ready, key
        heapq.heappush(hold, (evaluate(payload, lower), seq, payload))
        seq += 1
    while hold:
        key, __, ready = heapq.heappop(hold)
        yield ready, key
