"""Obstacle range query — OR (paper Sec. 3, Fig. 5).

Candidates are the entities within *Euclidean* distance ``e`` (a
superset of the answer); the relevant obstacles are those intersecting
the same disk (no farther obstacle can shorten or block a path of
length <= ``e``).  One Dijkstra-style expansion from ``q`` over the
local visibility graph then reports every candidate whose obstructed
distance is within ``e`` — a single traversal for all candidates, not
one shortest-path run each.

The implementation is the shared runtime skeleton
(:func:`repro.runtime.queries.metric_range`) parameterized with the
obstructed metric; pass a :class:`~repro.runtime.context.QueryContext`
to share cached visibility graphs across queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.distance import ObstacleSource
from repro.geometry.point import Point
from repro.index.rstar import RStarTree
from repro.runtime.metric import resolve_metric
from repro.runtime.queries import metric_range

if TYPE_CHECKING:
    from repro.runtime.context import QueryContext


def obstacle_range(
    entity_tree: RStarTree,
    obstacle_source: ObstacleSource,
    q: Point,
    e: float,
    *,
    context: "QueryContext | None" = None,
) -> list[tuple[Point, float]]:
    """Entities within obstructed distance ``e`` of ``q``.

    Returns ``(entity, d_O(entity, q))`` pairs in ascending obstructed
    distance.  With ``context`` the local visibility graph for ``q``
    is fetched from (and retained in) the shared cache.
    """
    metric = resolve_metric(obstacle_source, context)
    return metric_range(entity_tree, metric, q, e)
