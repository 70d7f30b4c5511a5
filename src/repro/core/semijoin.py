"""Obstacle distance semi-join.

Paper Sec. 2.1 lists the distance semi-join among the classical query
types: "return for each point s in S its nearest neighbour t in T",
and notes it can be answered either (i) by performing a NN query in T
for each object in S, or (ii) by outputting closest pairs incrementally
until the NN for each entity in S is retrieved.  This is (i) under the
obstructed metric: one ONN query per ``s``, so each answer is
``obstacle_nearest(T, s, 1)``'s to the last bit.  Fed by the closest-pair
stream, (ii) would evaluate ``d_O(t, s)`` from the other side and was
several times slower on street grids.

*One* :class:`~repro.runtime.context.QueryContext` spans the whole
semi-join, so repeated source points are answered from the persistent
graph cache instead of re-deriving their visibility graphs.
"""

from __future__ import annotations

from repro.core.distance import ObstacleSource
from repro.core.nearest import obstacle_nearest
from repro.geometry.point import Point
from repro.index.rstar import RStarTree
from repro.runtime.context import QueryContext


def obstacle_semijoin(
    tree_s: RStarTree,
    tree_t: RStarTree,
    obstacle_source: ObstacleSource,
    *,
    context: QueryContext | None = None,
) -> dict[Point, tuple[Point, float]]:
    """For each ``s`` in S, its obstructed nearest neighbour in T.

    Returns ``{s: (t, d_O(s, t))}``.  Duplicate coordinates in S
    collapse onto one key (points are value-typed).  Empty T yields an
    empty mapping.
    """
    if len(tree_s) == 0 or len(tree_t) == 0:
        return {}
    context = context or QueryContext(obstacle_source)
    result: dict[Point, tuple[Point, float]] = {}
    for s, __ in tree_s.items():
        if s not in result:
            result[s] = obstacle_nearest(
                tree_t, obstacle_source, s, 1, context=context
            )[0]
    return result
