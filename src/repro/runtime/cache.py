"""The persistent, versioned visibility-graph cache.

Local visibility graphs are the expensive artefact of every obstructed
query: each one costs obstacle R-tree retrievals plus one rotational
sweep per node.  The paper reuses the graph *within* one query (Fig. 8
grows ``G'`` in place); this cache extends the reuse *across* queries:
graphs are keyed by their expansion centre (the ``q`` of Fig. 8's
range retrievals), retained under a true LRU policy, and stamped with
the obstacle-set version so dynamic obstacle updates invalidate them
lazily instead of eagerly rebuilding.

Each entry also records the *coverage radius* — the largest disk
around the centre whose obstacles are guaranteed present — so a later
query with a larger reach tops the graph up incrementally rather than
rebuilding from scratch, and a query whose reach is already covered
skips the obstacle retrieval entirely.

Two admission refinements sit on top of the plain LRU:

* **Spatial keys** (``snap``): with a positive snapping quantum, cache
  keys are grid cells instead of exact centre coordinates, so a query
  whose centre falls in the cell of an existing entry *shares* that
  entry's graph (moving queries, dense batch workloads).  Correctness
  stays with the caller: the runtime only reuses an off-centre entry
  after guaranteeing the required disk is inside the entry's coverage
  disk (extend-and-promote, see
  :meth:`repro.runtime.context.QueryContext.entry_for`).
* **Shard-aware admission**: entries can be registered under the shard
  keys their coverage disk touches, so a shard mutation reaches exactly
  the entries that could be affected (``entries_for_shards``) instead
  of scanning the whole cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable

from repro.geometry.point import Point
from repro.obs.trace import TRACER
from repro.runtime.sharding import stamp_is_stale
from repro.runtime.stats import RuntimeStats
from repro.visibility.graph import VisibilityGraph


class CachedGraph:
    """One cache entry: a graph plus its provenance.

    ``covered`` is the radius around ``center`` up to which *all*
    obstacles are known to be in the graph; ``version`` is the obstacle
    source's version at build time — a plain integer for monolithic
    sources, or a per-shard
    :class:`~repro.runtime.sharding.ShardVersionStamp` for sharded
    ones (then only mutations in shards the graph actually touched
    make the entry stale).
    """

    __slots__ = ("graph", "center", "covered", "version")

    def __init__(
        self,
        graph: VisibilityGraph,
        center: Point,
        covered: float,
        version: "int | object",
    ) -> None:
        self.graph = graph
        self.center = center
        self.covered = covered
        self.version = version

    def __repr__(self) -> str:
        return (
            f"CachedGraph(center={self.center!r}, covered={self.covered:g}, "
            f"version={self.version}, nodes={self.graph.node_count})"
        )


class VisibilityGraphCache:
    """A true LRU over :class:`CachedGraph` entries, shared across queries.

    Lookups ``get(center, version)`` return ``None`` both on a plain
    miss and when the stored entry was built against an older obstacle
    version (the stale entry is dropped on the spot).  Hits move the
    entry to the most-recently-used position — unlike the seed's FIFO
    eviction, a graph that keeps being useful is never the one evicted.

    ``snap`` is the spatial-key quantum: ``0`` (the default) keys
    entries by exact centre point; a positive value keys them by the
    grid cell of side ``snap`` containing the centre, so near-duplicate
    centres share one entry.  At most one entry lives per cell — a
    second centre in an occupied cell is served the resident entry (a
    *spatial* hit) rather than admitted alongside it.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        snap: float = 0.0,
        stats: RuntimeStats | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if snap < 0:
            raise ValueError(f"snap quantum must be >= 0, got {snap}")
        self._capacity = capacity
        self._snap = snap
        self._entries: OrderedDict[Hashable, CachedGraph] = OrderedDict()
        #: shard key -> cache keys of the entries registered under it.
        self._by_shard: dict[int, set[Hashable]] = {}
        #: cache key -> shard keys the entry is registered under.
        self._entry_shards: dict[Hashable, frozenset[int]] = {}
        self.stats = stats if stats is not None else RuntimeStats()

    @property
    def capacity(self) -> int:
        """Maximum number of retained graphs."""
        return self._capacity

    @property
    def snap(self) -> float:
        """The spatial-key quantum (0 = exact centre keys)."""
        return self._snap

    def configure(
        self, *, snap: float | None = None, capacity: int | None = None
    ) -> bool:
        """Retune the spatial-key quantum and/or LRU capacity in place.

        The adaptive cache policy's actuator: answers never depend on
        the key scheme (reuse stays behind the caller's coverage
        guard), so retuning is always safe — it only moves *which*
        entries share a key and how many are retained.

        A snap change re-keys every stored entry in LRU order.  Two
        entries colliding under the new quantum keep the more recently
        used one (the loser is booked as an eviction, exactly like a
        capacity overflow); shard registrations follow the surviving
        entries to their new keys.  A capacity shrink evicts the LRU
        tail immediately.  Returns ``True`` when anything changed.
        """
        changed = False
        if capacity is not None and capacity != self._capacity:
            if capacity < 1:
                raise ValueError(
                    f"cache capacity must be >= 1, got {capacity}"
                )
            self._capacity = capacity
            while len(self._entries) > self._capacity:
                victim, __ = self._entries.popitem(last=False)
                self._unregister_shards(victim)
                self.stats.graph_cache_evictions += 1
            changed = True
        if snap is not None and snap != self._snap:
            if snap < 0:
                raise ValueError(f"snap quantum must be >= 0, got {snap}")
            old = list(self._entries.items())
            old_shards = self._entry_shards
            self._snap = snap
            self._entries = OrderedDict()
            self._by_shard = {}
            self._entry_shards = {}
            for old_key, entry in old:  # LRU order: later wins collisions
                key = self.key_for(entry.center)
                if key in self._entries:
                    self._unregister_shards(key)
                    self.stats.graph_cache_evictions += 1
                self._entries[key] = entry
                self._entries.move_to_end(key)
                self._register_shards(key, old_shards.get(old_key))
            changed = True
        return changed

    def key_for(self, center: Point) -> Hashable:
        """The cache key ``center`` maps to (the centre itself with
        exact keys, its grid cell with a positive ``snap``)."""
        if self._snap <= 0:
            return center
        snap = self._snap
        return (round(center.x / snap), round(center.y / snap))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, center: Point) -> bool:
        return self.key_for(center) in self._entries

    def get(self, center: Point, version: int) -> CachedGraph | None:
        """The live entry for ``center``, or ``None``.

        With spatial keys the returned entry's ``center`` may differ
        from the argument (a near-duplicate centre sharing the cell);
        callers needing disk coverage around the *argument* must widen
        their radius by the centre offset (the runtime's
        ``entry_for`` / ``cover`` do).  A version mismatch counts as an
        invalidation *and* a miss; the stale entry is evicted
        immediately so it can never be consulted again.
        """
        key = self.key_for(center)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.graph_cache_misses += 1
            TRACER.count("graph_cache.miss")
            return None
        if stamp_is_stale(entry.version, version):
            self._remove(key)
            self.stats.graph_cache_invalidations += 1
            self.stats.graph_cache_misses += 1
            TRACER.count("graph_cache.invalidation")
            TRACER.count("graph_cache.miss")
            return None
        self._entries.move_to_end(key)
        self.stats.graph_cache_hits += 1
        TRACER.count("graph_cache.hit")
        return entry

    def put(
        self, entry: CachedGraph, *, shards: Iterable[int] | None = None
    ) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail on overflow.

        ``shards`` registers the entry under the shard keys its
        coverage disk touches (see :meth:`entries_for_shards`); pass
        ``None`` for monolithic sources.
        """
        key = self.key_for(entry.center)
        if key in self._entries:
            self._unregister_shards(key)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._register_shards(key, shards)
        while len(self._entries) > self._capacity:
            victim, __ = self._entries.popitem(last=False)
            self._unregister_shards(victim)
            self.stats.graph_cache_evictions += 1

    def discard(self, entry: CachedGraph) -> bool:
        """Drop ``entry`` (by identity) if it is currently stored.

        The runtime's rebuild-fallback: when an in-place repair is not
        possible the entry is discarded so the next lookup rebuilds.
        Booked as an invalidation.
        """
        key = self.key_for(entry.center)
        if self._entries.get(key) is not entry:
            return False
        self._remove(key)
        self.stats.graph_cache_invalidations += 1
        return True

    def refresh_shards(
        self, entry: CachedGraph, shards: Iterable[int] | None
    ) -> None:
        """Re-register a stored entry's shard keys (after its coverage
        disk grew or its stamp was refreshed).  A no-op for entries not
        currently stored (held references)."""
        key = self.key_for(entry.center)
        if self._entries.get(key) is not entry:
            return
        self._unregister_shards(key)
        self._register_shards(key, shards)

    def entries(self) -> list[CachedGraph]:
        """Every stored entry, in LRU order."""
        return list(self._entries.values())

    def entries_for_shards(self, shards: Iterable[int]) -> list[CachedGraph]:
        """The entries registered under any of the given shard keys.

        This is the mutation fan-in: a shard mutation repairs or drops
        exactly these entries — O(affected), not O(cache size).
        """
        keys: set[Hashable] = set()
        for shard in shards:
            keys.update(self._by_shard.get(shard, ()))
        return [self._entries[k] for k in keys if k in self._entries]

    def shard_keys(self) -> dict[int, int]:
        """Shard key -> number of registered entries (introspection;
        rim-shard rebalancing migrates keys by re-``put``-ing entries
        with their new shard sets)."""
        return {shard: len(keys) for shard, keys in self._by_shard.items()}

    def keys(self) -> list[Point]:
        """Entry centres in LRU order (least recently used first)."""
        return [entry.center for entry in self._entries.values()]

    def clear(self) -> None:
        """Drop every cached graph."""
        self._entries.clear()
        self._by_shard.clear()
        self._entry_shards.clear()

    # ------------------------------------------------------------- internals
    def _remove(self, key: Hashable) -> None:
        del self._entries[key]
        self._unregister_shards(key)

    def _register_shards(
        self, key: Hashable, shards: Iterable[int] | None
    ) -> None:
        if shards is None:
            return
        shard_set = frozenset(shards)
        self._entry_shards[key] = shard_set
        for shard in shard_set:
            self._by_shard.setdefault(shard, set()).add(key)

    def _unregister_shards(self, key: Hashable) -> None:
        shard_set = self._entry_shards.pop(key, None)
        if shard_set is None:
            return
        for shard in shard_set:
            keys = self._by_shard.get(shard)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_shard[shard]
