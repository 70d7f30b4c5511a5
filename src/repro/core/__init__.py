"""The paper's contribution: obstructed spatial query processing.

All four query types share the same skeleton: a Euclidean query on the
R-trees produces a candidate superset (by the Euclidean lower-bound
property ``d_E <= d_O``), and local visibility graphs built on-line
from only the relevant obstacles eliminate the false hits.

* :func:`obstacle_range` — OR, paper Fig. 5
* :func:`obstacle_nearest` / :func:`iter_obstacle_nearest` — ONN, Fig. 9
* :func:`obstacle_distance_join` — ODJ, Fig. 10
* :func:`obstacle_closest_pairs` / :func:`iter_obstacle_closest_pairs`
  — OCP / iOCP, Figs. 11-12
* :class:`ObstacleDatabase` — the user-facing facade
"""

from repro.core.source import (
    CompositeObstacleIndex,
    ObstacleIndex,
    ShardedObstacleIndex,
    build_obstacle_index,
    build_sharded_obstacle_index,
)
from repro.core.range import obstacle_range
from repro.core.nearest import iter_obstacle_nearest, obstacle_nearest
from repro.core.join import obstacle_distance_join
from repro.core.closest import iter_obstacle_closest_pairs, obstacle_closest_pairs
from repro.core.semijoin import obstacle_semijoin
from repro.core.engine import ObstacleDatabase

__all__ = [
    "ObstacleIndex",
    "CompositeObstacleIndex",
    "ShardedObstacleIndex",
    "build_obstacle_index",
    "build_sharded_obstacle_index",
    "obstacle_range",
    "obstacle_nearest",
    "iter_obstacle_nearest",
    "obstacle_distance_join",
    "obstacle_closest_pairs",
    "iter_obstacle_closest_pairs",
    "obstacle_semijoin",
    "ObstacleDatabase",
]
