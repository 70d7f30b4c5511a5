"""Obstacle distance semi-join.

Paper Sec. 2.1 lists the distance semi-join among the classical query
types: "return for each point s in S its nearest neighbour t in T",
and notes it can be answered either (i) by performing a NN query in T
for each object in S, or (ii) by outputting closest pairs incrementally
until the NN for each entity in S is retrieved.  Both strategies are
implemented under the obstructed metric:

* ``strategy="nn"`` — one ONN query per s (simple; good when |S| is
  small or the pairs are far apart);
* ``strategy="cp"`` — consume the incremental obstacle closest-pair
  stream (iOCP, Fig. 12) and keep the first pair seen for each s
  (good when nearest neighbours are found early in the stream).

Either way *one* :class:`~repro.runtime.context.QueryContext` spans
the whole semi-join, so repeated source points are answered from the
persistent graph cache instead of re-deriving their visibility graphs
(the seed rebuilt all machinery per ``s``).
"""

from __future__ import annotations

from repro.core.closest import iter_obstacle_closest_pairs
from repro.core.distance import ObstacleSource
from repro.core.nearest import obstacle_nearest
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index.rstar import RStarTree
from repro.runtime.context import QueryContext


def obstacle_semijoin(
    tree_s: RStarTree,
    tree_t: RStarTree,
    obstacle_source: ObstacleSource,
    *,
    strategy: str = "cp",
    context: QueryContext | None = None,
) -> dict[Point, tuple[Point, float]]:
    """For each ``s`` in S, its obstructed nearest neighbour in T.

    Returns ``{s: (t, d_O(s, t))}``.  Duplicate coordinates in S
    collapse onto one key (points are value-typed).  Empty T yields an
    empty mapping.
    """
    if strategy not in ("nn", "cp"):
        raise QueryError(f"unknown semijoin strategy {strategy!r}")
    if len(tree_s) == 0 or len(tree_t) == 0:
        return {}
    context = context or QueryContext(obstacle_source)
    result: dict[Point, tuple[Point, float]] = {}
    if strategy == "nn":
        for s, __ in tree_s.items():
            if s not in result:
                result[s] = obstacle_nearest(
                    tree_t, obstacle_source, s, 1, context=context
                )[0]
        return result
    remaining = {s for s, __ in tree_s.items()}
    pairs = iter_obstacle_closest_pairs(
        tree_s, tree_t, obstacle_source, context=context
    )
    for s, t, d in pairs:
        if s in remaining:
            remaining.discard(s)
            result[s] = (t, d)
            if not remaining:
                break
    return result
