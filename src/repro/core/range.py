"""Obstacle range query — OR (paper Sec. 3, Fig. 5).

Candidates are the entities within *Euclidean* distance ``e`` (a
superset of the answer); the relevant obstacles are those intersecting
the same disk (no farther obstacle can shorten or block a path of
length <= ``e``).  One distance field rooted at ``q`` over the local
visibility graph then reports every candidate whose obstructed
distance is within ``e`` — a single traversal for all candidates, not
one shortest-path run each (:meth:`QueryContext.refine_many
<repro.runtime.context.QueryContext.refine_many>` with one centre).

Pass a :class:`~repro.runtime.context.QueryContext` to share cached
visibility graphs across queries.
"""

from __future__ import annotations

from repro.core.distance import ObstacleSource
from repro.errors import QueryError
from repro.euclidean.range import entities_in_range
from repro.geometry.point import Point
from repro.index.rstar import RStarTree
from repro.runtime.context import QueryContext


def obstacle_range(
    entity_tree: RStarTree,
    obstacle_source: ObstacleSource,
    q: Point,
    e: float,
    *,
    context: QueryContext | None = None,
) -> list[tuple[Point, float]]:
    """Entities within obstructed distance ``e`` of ``q``.

    Returns ``(entity, d_O(entity, q))`` pairs in ascending obstructed
    distance.  With ``context`` the local visibility graph for ``q``
    is fetched from (and retained in) the shared cache.
    """
    if e < 0:
        raise QueryError(f"negative range: {e}")
    context = context or QueryContext(obstacle_source)
    candidates = entities_in_range(entity_tree, q, e)
    if not candidates:
        return []
    result = context.refine_many([q], e, [candidates])[0]
    result.sort(key=lambda pair: pair[1])
    return result
