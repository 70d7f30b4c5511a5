"""Obstacle closest pairs — OCP and iOCP (paper Sec. 6, Figs. 11-12).

OCP mirrors ONN: the k Euclidean closest pairs seed the result, their
largest obstructed distance bounds the incremental Euclidean
closest-pair stream, and the bound shrinks as better pairs are found.

iOCP removes the fixed ``k``: a retrieved pair can be *emitted* once
its obstructed distance is no larger than the Euclidean distance of the
most recent pair, since every later pair has a larger Euclidean — and
therefore larger obstructed — distance.  This serves browsing and
complex queries with unknown-in-advance stopping conditions.

Exact evaluations are :meth:`QueryContext.distance
<repro.runtime.context.QueryContext.distance>` centred on the ``s``
side, so graphs cached per first-element point are reused across
pairs, mirroring ODJ's seed reuse.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterator

from repro.core.distance import ObstacleSource
from repro.errors import QueryError
from repro.euclidean.closest import IncrementalClosestPairs
from repro.geometry.point import Point
from repro.index.rstar import RStarTree
from repro.runtime.context import QueryContext
from repro.runtime.skeletons import emit_in_metric_order


def obstacle_closest_pairs(
    tree_s: RStarTree,
    tree_t: RStarTree,
    obstacle_source: ObstacleSource,
    k: int,
    *,
    context: QueryContext | None = None,
) -> list[tuple[Point, Point, float]]:
    """The ``k`` pairs with smallest obstructed distance.

    Returns ``(s, t, d_O)``, the ``k`` smallest by ``(d_O, s, t)`` in
    that order; fewer than ``k`` when ``|S| * |T| < k``.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    context = context or QueryContext(obstacle_source)
    stream = IncrementalClosestPairs(tree_s, tree_t)
    result: list[tuple[float, Point, Point]] = []
    for s, t, __ in stream:
        insort(result, (context.distance(t, s), s, t))
        if len(result) == k:
            break
    if not result:
        return []
    # With fewer than k seeds the stream is spent: nothing below runs.
    d_emax = result[-1][0]
    for s, t, d_e in stream:
        if d_e > d_emax:
            break
        d = context.distance(t, s, bound=d_emax)
        # Keep the k smallest by (d, s, t): a pair tied with the k-th
        # wins by its points, not by when the stream yielded it.
        if (d, s, t) < result[-1]:
            result.pop()
            insort(result, (d, s, t))
            d_emax = result[-1][0]
    return [(s, t, d) for d, s, t in result]


def iter_obstacle_closest_pairs(
    tree_s: RStarTree,
    tree_t: RStarTree,
    obstacle_source: ObstacleSource,
    *,
    context: QueryContext | None = None,
) -> Iterator[tuple[Point, Point, float]]:
    """Incremental OCP (paper Fig. 12): pairs in ascending obstructed
    distance, no ``k`` parameter — consume as many as needed.
    """
    context = context or QueryContext(obstacle_source)
    candidates = (
        ((s, t), d_e) for s, t, d_e in IncrementalClosestPairs(tree_s, tree_t)
    )
    evaluated = emit_in_metric_order(
        candidates, lambda pair, __: context.distance(pair[1], pair[0])
    )
    return ((s, t, d) for (s, t), d in evaluated)
