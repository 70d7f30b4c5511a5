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

:func:`bounded_expansion` is the other shared loop: Fig. 5's single
bounded Dijkstra from a query point that settles many candidates in
one traversal.  The obstructed metric's range refinement (OR and
ODJ's per-seed elimination) now batches its candidates through a
:class:`~repro.runtime.metric.DistanceField` instead — candidates stay
out of the cached graph, so the field's provisional Dijkstra survives
across calls — but the expansion skeleton remains the reference
formulation (and the standalone ``core.range`` path still uses it).
"""

from __future__ import annotations

import heapq
from itertools import count, islice
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.geometry.point import Point
from repro.visibility.graph import VisibilityGraph

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
    ``make`` runs only for items that are actually popped.
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
        release((keys[order].tolist(), order.tolist(), produced, is_final, make), 0)
        produced += len(keys)

    def release(batch: tuple, rank: int) -> None:
        keys, order, base = batch[:3]
        if rank < len(keys):
            heapq.heappush(heap, (keys[rank], base + order[rank], rank, batch))

    admit(*seeds)
    while heap:
        key, __, rank, batch = heapq.heappop(heap)
        release(batch, rank + 1)
        __, order, __, is_final, make = batch
        payload = make(order[rank])
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


def bounded_expansion(
    graph: VisibilityGraph,
    q: Point,
    e: float,
    candidates: Iterable[Point],
) -> list[tuple[Point, float]]:
    """The expansion loop of Fig. 5: one bounded Dijkstra from ``q``,
    reporting candidate entities as they are settled.

    Shared by OR, the per-seed elimination step of ODJ, and the
    obstructed metric's range refinement.  Terminates as soon as the
    queue empties or every candidate has been reported.
    """
    candidates = set(candidates)
    pending = candidates - {q}
    result: list[tuple[Point, float]] = []
    if graph.has_node(q) and q in candidates:
        # The query point coincides with an entity: distance zero.
        result.append((q, 0.0))
    visited: set[Point] = set()
    tiebreak = count()
    heap: list[tuple[float, int, Point]] = [(0.0, next(tiebreak), q)]
    while heap and pending:
        d, __, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node in pending:
            result.append((node, d))
            pending.discard(node)
        for nbr, w in graph.neighbors(node).items():
            if nbr not in visited:
                nd = d + w
                if nd <= e:
                    heapq.heappush(heap, (nd, next(tiebreak), nbr))
    return result
