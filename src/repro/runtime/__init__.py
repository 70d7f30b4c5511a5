"""The unified query runtime.

All six obstructed query types of the paper share one machinery —
R*-tree retrieval feeding an incrementally grown local visibility
graph.  This package owns that machinery once, instead of per query:

* :class:`~repro.runtime.context.QueryContext` — the shared execution
  state: obstacle source, persistent versioned LRU graph cache
  (:class:`~repro.runtime.cache.VisibilityGraphCache`), and
  :class:`~repro.runtime.stats.RuntimeStats` hooks; the ``core``
  queries call its ``distance``, ``field_for`` and ``refine_many``
  directly;
* :mod:`~repro.runtime.skeletons` — the generic best-first traversal
  the ``euclidean`` iterators parameterize, and the deferred emit of
  incremental ONN and iOCP;
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
from repro.runtime.policy import (
    AdaptiveCachePolicy,
    CachePolicy,
    resolve_cache_policy,
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
    "ShardGrid",
    "ShardVersionStamp",
    "best_first",
    "emit_in_metric_order",
    "take",
]
