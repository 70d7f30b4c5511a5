"""Obstacle nearest-neighbour query — ONN (paper Sec. 4, Fig. 9).

The k Euclidean NNs seed the result; their largest obstructed distance
is a shrinking threshold ``d_Emax``.  Further Euclidean neighbours are
retrieved *incrementally* and evaluated until the next one's Euclidean
distance exceeds ``d_Emax`` — at that point no unseen entity can beat
the current k-th obstructed distance (Euclidean lower bound).

Obstructed distances share one growing local graph around the query
point (the paper reuses ``G'`` across computations); candidates are
evaluated against a cached distance field from ``q``
(:class:`repro.core.distance.SourceDistanceField`) rather than by
per-candidate graph surgery, and losing candidates abort their Fig. 8
iteration early once their provisional lower bound exceeds the current
threshold.

Pass a :class:`~repro.runtime.context.QueryContext` to reuse cached
graphs across queries.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterator

from repro.core.distance import ObstacleSource, SourceDistanceField
from repro.errors import QueryError
from repro.euclidean.nearest import IncrementalNearestNeighbors
from repro.geometry.point import Point
from repro.index.rstar import RStarTree
from repro.runtime.context import QueryContext
from repro.runtime.skeletons import emit_in_metric_order, take


def obstacle_nearest(
    entity_tree: RStarTree,
    obstacle_source: ObstacleSource,
    q: Point,
    k: int,
    *,
    context: QueryContext | None = None,
) -> list[tuple[Point, float]]:
    """The ``k`` entities with smallest obstructed distance from ``q``.

    Returns ``(entity, d_O)``, the ``k`` smallest by ``(d_O, entity)``
    in that order; fewer than ``k`` when the dataset is smaller.
    Unreachable entities (sealed off by obstacles) have distance
    ``inf`` and lose to any reachable one.  A candidate's Fig. 8 loop
    stops once its distance exceeds the current k-th (``d_Emax``).
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    context = context or QueryContext(obstacle_source)
    stream = IncrementalNearestNeighbors(entity_tree, q)
    seeds = take(stream, k)
    if not seeds:
        return []
    # The field's graph starts from the obstacles within the k-th
    # Euclidean radius (Fig. 9), and one batched evaluation serves
    # every seed.
    field = context.field_for(q, seeds[-1][1])
    points = [p for p, __ in seeds]
    result = sorted(zip(field.batch_eval(points), points))
    # With fewer than k seeds the stream is spent: nothing below runs.
    d_emax = result[-1][0]
    for p, d_e in stream:
        if d_e > d_emax:
            break
        d = field.distance_to(p, bound=d_emax)
        if (d, p) < result[-1]:  # at a tie with the k-th, the smaller point
            result.pop()
            insort(result, (d, p))
            d_emax = result[-1][0]
    return [(p, d) for d, p in result]


def iter_obstacle_nearest(
    entity_tree: RStarTree,
    obstacle_source: ObstacleSource,
    q: Point,
    *,
    context: QueryContext | None = None,
) -> Iterator[tuple[Point, float]]:
    """Incremental ONN: yields ``(entity, d_O)`` in ascending obstructed
    distance, without a predefined ``k``.

    An entity whose obstructed distance is <= the Euclidean distance of
    the most recently retrieved Euclidean neighbour can be emitted
    immediately: later neighbours have larger Euclidean — hence larger
    obstructed — distances.
    """
    context = context or QueryContext(obstacle_source)
    field: SourceDistanceField | None = None

    def evaluate(p: Point, d_e: float) -> float:
        nonlocal field
        if field is None:  # rooted on the first candidate's radius
            field = context.field_for(q, d_e)
        return field.distance_to(p)

    return emit_in_metric_order(IncrementalNearestNeighbors(entity_tree, q), evaluate)
