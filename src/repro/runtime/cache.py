"""The persistent, versioned visibility-graph cache.

Local visibility graphs are the expensive artefact of every obstructed
query: each one costs obstacle R-tree retrievals plus the visibility
tests of its node pairs.  The paper reuses the graph *within* one query (Fig. 8
grows ``G'`` in place); this cache extends the reuse *across* queries:
graphs are keyed by their expansion centre (the ``q`` of Fig. 8's
range retrievals), retained under a true LRU policy, and stamped with
the obstacle source's version of their coverage disk, so dynamic
obstacle updates invalidate them lazily instead of eagerly rebuilding.

Each entry also records the *coverage radius* — the largest disk
around the centre whose obstacles are guaranteed present — so a later
query with a larger reach tops the graph up incrementally rather than
rebuilding from scratch, and a query whose reach is already covered
skips the obstacle retrieval entirely — as does one whose reach stays
inside the entry's *clear radius*, where no obstacle outside the graph
lies.

With a positive snapping quantum (``snap``), cache keys are grid cells
instead of exact centre coordinates, so a query whose centre falls in
the cell of an existing entry *shares* that entry's graph (moving
queries, dense batch workloads).  Correctness stays with the caller:
the runtime only reuses an off-centre entry after guaranteeing the
required disk is inside the entry's coverage disk (extend-and-promote,
see :meth:`repro.runtime.context.QueryContext.entry_for`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable

from repro.geometry.point import Point
from repro.obs.trace import TRACER
from repro.runtime.stats import RuntimeStats
from repro.visibility.graph import VisibilityGraph

#: ``version_for(center, radius)``: an obstacle source's stamp of a disk.
VersionFor = Callable[[Point, float], "tuple[int, ...]"]


class CachedGraph:
    """One cache entry: a graph plus its provenance.

    ``covered`` is the radius around ``center`` up to which *all*
    obstacles are known to be in the graph; ``version`` is the obstacle
    source's ``version_for(center, covered)`` taken just before the
    retrieval the graph was built, grown or rebuilt from — the entry is
    fresh exactly while the source still answers the same tuple.

    ``clear_sq`` / ``clear_d`` are the last retrieval's *clear radius*
    (:class:`~repro.euclidean.range.Retrieval`), lowered by routed
    inserts outside the coverage disk: growing the coverage to any ``r``
    with ``r * r < clear_sq and r < clear_d`` needs no retrieval.  The
    default ``0.0`` (a source without bounds) is none; a snapshot
    carries both bounds.
    """

    __slots__ = ("graph", "center", "covered", "version", "clear_sq", "clear_d")

    def __init__(
        self,
        graph: VisibilityGraph,
        center: Point,
        covered: float,
        version: tuple[int, ...],
        clear_sq: float = 0.0,
        clear_d: float = 0.0,
    ) -> None:
        self.graph = graph
        self.center = center
        self.covered = covered
        self.version = version
        self.clear_sq = clear_sq
        self.clear_d = clear_d

    def fresh(self, version_for: VersionFor) -> bool:
        """Whether the source still stamps this entry's disk as it did
        when the graph was retrieved."""
        return self.version == version_for(self.center, self.covered)

    def __repr__(self) -> str:
        return (
            f"CachedGraph(center={self.center!r}, covered={self.covered:g}, "
            f"version={self.version}, nodes={self.graph.node_count})"
        )


class VisibilityGraphCache:
    """A true LRU over :class:`CachedGraph` entries, shared across queries.

    Lookups ``get(center, version_for)`` return ``None`` both on a plain
    miss and when the stored entry's stamp no longer equals
    ``version_for(entry.center, entry.covered)`` (the stale entry is
    dropped on the spot).  Hits move the entry to the most-recently-used
    position — unlike the seed's FIFO eviction, a graph that keeps being
    useful is never the one evicted.

    ``snap`` is the spatial-key quantum: ``0`` (the default) keys
    entries by exact centre point; a positive value keys them by the
    grid cell of side ``snap`` containing the centre, so near-duplicate
    centres share one entry.  At most one entry lives per cell — a
    second centre in an occupied cell is served the resident entry (a
    *spatial* hit) rather than admitted alongside it.
    """

    # benchmarks/e2e/e2e_trace.py wraps this name (a `runtime.cache` wrap point).
    entries_for_shards = None

    def __init__(
        self,
        capacity: int = 64,
        *,
        snap: float = 0.0,
        stats: RuntimeStats | None = None,
    ) -> None:
        _check(snap, capacity)
        self._capacity = capacity
        self._snap = snap
        self._entries: OrderedDict[Hashable, CachedGraph] = OrderedDict()
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
        capacity overflow).  A capacity shrink evicts the LRU tail
        immediately.  Both values are validated before anything
        changes.  Returns ``True`` when anything changed.
        """
        _check(
            self._snap if snap is None else snap,
            self._capacity if capacity is None else capacity,
        )
        changed = False
        if capacity is not None and capacity != self._capacity:
            self._capacity = capacity
            self._evict_overflow()
            changed = True
        if snap is not None and snap != self._snap:
            old = list(self._entries.values())
            self._snap = snap
            self._entries = OrderedDict()
            for entry in old:  # LRU order: later wins collisions
                key = self.key_for(entry.center)
                if key in self._entries:
                    self.stats.graph_cache_evictions += 1
                self._entries[key] = entry
                self._entries.move_to_end(key)
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

    def get(self, center: Point, version_for: VersionFor) -> CachedGraph | None:
        """The live entry for ``center``, or ``None``.

        With spatial keys the returned entry's ``center`` may differ
        from the argument (a near-duplicate centre sharing the cell);
        callers needing disk coverage around the *argument* must widen
        their radius by the centre offset (the runtime's
        ``entry_for`` / ``cover`` do).  An entry whose stamp differs
        from ``version_for(entry.center, entry.covered)`` counts as an
        invalidation *and* a miss; it is evicted immediately so it can
        never be consulted again.
        """
        key = self.key_for(center)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.graph_cache_misses += 1
            TRACER.count("graph_cache.miss")
            return None
        if not entry.fresh(version_for):
            del self._entries[key]
            self.stats.graph_cache_invalidations += 1
            self.stats.graph_cache_misses += 1
            TRACER.count("graph_cache.invalidation")
            TRACER.count("graph_cache.miss")
            return None
        self._entries.move_to_end(key)
        self.stats.graph_cache_hits += 1
        TRACER.count("graph_cache.hit")
        return entry

    def put(self, entry: CachedGraph) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail on overflow."""
        key = self.key_for(entry.center)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._evict_overflow()

    def discard(self, entry: CachedGraph) -> bool:
        """Drop ``entry`` (by identity) if it is currently stored.

        The runtime's rebuild-fallback: when an in-place repair is not
        possible the entry is discarded so the next lookup rebuilds.
        Booked as an invalidation.
        """
        key = self.key_for(entry.center)
        if self._entries.get(key) is not entry:
            return False
        del self._entries[key]
        self.stats.graph_cache_invalidations += 1
        return True

    def entries(self) -> list[CachedGraph]:
        """Every stored entry, in LRU order."""
        return list(self._entries.values())

    def keys(self) -> list[Point]:
        """Entry centres in LRU order (least recently used first)."""
        return [entry.center for entry in self._entries.values()]

    def clear(self) -> None:
        """Drop every cached graph."""
        self._entries.clear()

    def _evict_overflow(self) -> None:
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.stats.graph_cache_evictions += 1


def _check(snap: float, capacity: int) -> None:
    if capacity < 1:
        raise ValueError(f"cache capacity must be >= 1, got {capacity}")
    if snap < 0:
        raise ValueError(f"snap quantum must be >= 0, got {snap}")
