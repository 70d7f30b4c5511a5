"""The unified query runtime.

All six obstructed query types of the paper share one machinery —
R*-tree retrieval feeding an incrementally grown local visibility
graph.  This package owns that machinery once, instead of per query:

* :class:`~repro.runtime.context.QueryContext` — the shared execution
  state: obstacle source, persistent versioned LRU graph cache
  (:class:`~repro.runtime.cache.VisibilityGraphCache`), and
  :class:`~repro.runtime.stats.RuntimeStats` hooks;
* :class:`~repro.runtime.metric.DistanceOracle` — the metric
  abstraction, with :class:`~repro.runtime.metric.ObstructedMetric`
  and :class:`~repro.runtime.metric.EuclideanMetric` implementations;
* :mod:`~repro.runtime.queries` — metric-parameterized query
  skeletons (range / nearest / join / closest pairs / semi-join), of
  which both the ``euclidean`` and ``core`` query functions are thin
  parameterizations;
* :mod:`~repro.runtime.skeletons` — the generic best-first traversal
  and the shared bounded-Dijkstra expansion;
* :mod:`~repro.runtime.batch` — the batch command vocabulary, decoded
  in one function, and the route that dedupes a batch, guards its
  obstacle version and runs it sequentially or over the worker pool
  of :mod:`repro.serve.pool` (forked per batch, or persistent);
* :mod:`~repro.runtime.sharding` — the spatial shard grid and the
  per-shard version stamps backing
  :class:`~repro.core.source.ShardedObstacleIndex`;
* :mod:`~repro.runtime.policy` — cache tuning policies: the static
  default and :class:`~repro.runtime.policy.AdaptiveCachePolicy`,
  which learns the snap quantum and LRU capacity from the observed
  centre stream (``cache_policy="adaptive"``).
"""

from repro.runtime.cache import CachedGraph, VisibilityGraphCache
from repro.runtime.context import QueryContext
from repro.runtime.metric import (
    DistanceField,
    DistanceOracle,
    EuclideanMetric,
    ObstructedMetric,
    resolve_metric,
)
from repro.runtime.policy import (
    AdaptiveCachePolicy,
    CachePolicy,
    resolve_cache_policy,
)
from repro.runtime.queries import (
    iter_metric_closest_pairs,
    iter_metric_nearest,
    metric_closest_pairs,
    metric_distance_join,
    metric_nearest,
    metric_range,
    metric_semijoin,
)
from repro.runtime.sharding import ShardGrid, ShardVersionStamp
from repro.runtime.skeletons import (
    best_first,
    emit_in_metric_order,
    take,
)
from repro.runtime.stats import RuntimeStats

__all__ = [
    "QueryContext",
    "RuntimeStats",
    "VisibilityGraphCache",
    "CachedGraph",
    "CachePolicy",
    "AdaptiveCachePolicy",
    "resolve_cache_policy",
    "DistanceOracle",
    "DistanceField",
    "EuclideanMetric",
    "ObstructedMetric",
    "resolve_metric",
    "metric_range",
    "metric_nearest",
    "iter_metric_nearest",
    "metric_distance_join",
    "metric_closest_pairs",
    "iter_metric_closest_pairs",
    "metric_semijoin",
    "ShardGrid",
    "ShardVersionStamp",
    "best_first",
    "emit_in_metric_order",
    "take",
]
