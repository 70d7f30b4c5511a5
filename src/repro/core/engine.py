"""`ObstacleDatabase` — the user-facing facade.

Owns the obstacle dataset(s) and any number of named entity datasets,
all indexed by R*-trees with counted, buffered page accesses, and
exposes every query type of the paper::

    db = ObstacleDatabase(obstacles)
    db.add_entity_set("restaurants", points)
    db.range("restaurants", q, e)              # OR   (Fig. 5)
    db.nearest("restaurants", q, k)            # ONN  (Fig. 9)
    db.inearest("restaurants", q)              # incremental ONN
    db.distance_join("homes", "shops", e)      # ODJ  (Fig. 10)
    db.closest_pairs("homes", "shops", k)      # OCP  (Fig. 11)
    db.iclosest_pairs("homes", "shops")        # iOCP (Fig. 12)
    db.semijoin("homes", "shops")              # distance semi-join (Sec. 2.1)
    db.obstructed_distance(a, b)               # Fig. 8

Every query runs through one persistent
:class:`~repro.runtime.context.QueryContext` owned by the database:
visibility graphs survive in a versioned LRU cache across queries.
Every mutation (:meth:`insert_obstacle`, :meth:`delete_obstacle`,
:meth:`insert_entity`, :meth:`delete_entity`) is one record down one
write path, ``_commit``: journal, apply (cached graphs are repaired
in place), announce, compaction check.  Batch entry points
(:meth:`batch_nearest`, :meth:`batch_range`, :meth:`batch_distance`)
are one command each for :mod:`repro.runtime.batch`: they amortize the
context across whole workloads, and fan out over worker processes
when asked (``workers=``) — either a forked child per chunk or, with
``pool="persistent"``, the long-lived snapshot-warm-started
:meth:`serving_pool` (shut down via :meth:`close` or the context
manager); both run the same worker body.  Adding a dataset is
announced on the same feed as every record.  Obstacle storage is
either one monolithic R*-tree per set or, with ``shards=N``, a
spatially sharded store whose mutations leave cached graphs over other
shards current.
"""

from __future__ import annotations

import os
from math import inf
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.closest import iter_obstacle_closest_pairs, obstacle_closest_pairs
from repro.core.join import obstacle_distance_join
from repro.core.nearest import iter_obstacle_nearest, obstacle_nearest
from repro.core.range import obstacle_range
from repro.core.semijoin import obstacle_semijoin
from repro.core.source import (
    CompositeObstacleIndex,
    ObstacleIndex,
    ShardedObstacleIndex,
    _MutationFeed,
    build_obstacle_index,
    build_sharded_obstacle_index,
)
from repro.errors import DatasetError, QueryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.index.bulk import str_pack
from repro.index.rstar import RStarTree
from repro.model import Obstacle
from repro.obs import MetricsRegistry, TRACER
from repro.persist.journal import (
    MutationJournal,
    MutationRecord,
    entity_record,
    obstacle_record,
)
from repro.runtime.batch import run_batch
from repro.runtime.context import QueryContext
from repro.runtime.policy import CachePolicy
from repro.runtime.stats import RuntimeStats
from repro.visibility.csr import frozen
from repro.visibility.kernel.backend import resolve_backend

ObstacleLike = Obstacle | Polygon | Rect
PointLike = Point | tuple[float, float]


class ObstacleDatabase:
    """A spatial database answering queries under the obstructed metric.

    Parameters
    ----------
    obstacles:
        The primary obstacle dataset; rectangles and polygons are
        wrapped into :class:`~repro.model.Obstacle` records with ids
        assigned from one global sequence.
    bulk:
        Build trees by STR packing (default) or by repeated insertion.
    page_size, buffer_fraction:
        Simulated page layout and LRU sizing for every tree (paper:
        4 KB pages, 10 % buffers).
    graph_cache_size:
        LRU capacity of the shared visibility-graph cache.
    graph_cache_snap:
        Spatial-key quantum of the graph cache.  ``0`` (default) keys
        cached graphs by exact expansion centre; a positive value
        snaps centres to a grid of that cell size, so near-duplicate
        centres (moving queries, dense batches) share one
        coverage-guarded graph.
    shards:
        ``None`` (default) stores each obstacle set in one monolithic
        R-tree.  An integer switches to spatially sharded storage
        (:class:`~repro.core.source.ShardedObstacleIndex`): obstacles
        are partitioned over a Hilbert-keyed grid of at least that
        many cells, retrievals fan out only to the shards intersecting
        the query disk, and dynamic obstacle updates invalidate cached
        visibility graphs per shard instead of globally.
    backend:
        The name of the visibility backend that decides every pair:
        ``"numpy-kernel"`` (``None``, the default), or ``"naive"``,
        the scalar oracle.
    cache_policy:
        The graph-cache tuning policy (``"static"``, ``"adaptive"``,
        or a :class:`~repro.runtime.policy.CachePolicy` instance).
        ``None`` (default) is static.  The adaptive policy
        observes the live centre stream and retunes the snap quantum
        and LRU capacity online; answers are bit-identical under any
        policy.
    durable:
        The path of a write-ahead mutation journal file
        (:mod:`repro.persist.journal`).  Every obstacle/entity
        mutation is appended and fsynced *before* it is applied, so
        after a crash ``ObstacleDatabase.load(base, durable=path)``
        replays the journal over the base snapshot and answers
        bit-identically to a process that never crashed.  ``None``
        (default) means not durable.  :meth:`save` anchors the journal
        to the saved base snapshot and truncates it; once anchored,
        the journal is auto-folded into the base when it outgrows
        :meth:`~repro.persist.journal.MutationJournal.outgrew`'s
        trigger (or explicitly via :meth:`compact`).
    """

    def __init__(
        self,
        obstacles: Iterable[ObstacleLike],
        *,
        bulk: bool = True,
        page_size: int = 4096,
        buffer_fraction: float = 0.1,
        max_entries: int | None = None,
        min_entries: int | None = None,
        graph_cache_size: int = 64,
        graph_cache_snap: float = 0.0,
        shards: int | None = None,
        backend: "str | None" = None,
        cache_policy: "str | CachePolicy | None" = None,
        durable: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if shards is not None and shards < 1:
            raise DatasetError(f"shards must be >= 1, got {shards}")
        if graph_cache_snap < 0:
            raise DatasetError(
                f"graph_cache_snap must be >= 0, got {graph_cache_snap}"
            )
        self._init_state(
            tree_kwargs=dict(
                page_size=page_size,
                buffer_fraction=buffer_fraction,
                max_entries=max_entries,
                min_entries=min_entries,
            ),
            bulk=bulk,
            shards=shards,
            graph_cache_size=graph_cache_size,
            graph_cache_snap=graph_cache_snap,
            next_oid=0,
            backend=backend,
            cache_policy=cache_policy,
        )
        self.add_obstacle_set("obstacles", obstacles)
        if durable is not None:
            self._attach_journal(MutationJournal.create(durable))

    def _init_state(
        self,
        *,
        tree_kwargs: dict,
        bulk: bool,
        shards: int | None,
        graph_cache_size: int,
        graph_cache_snap: float,
        next_oid: int,
        backend: "str | None",
        cache_policy: "str | CachePolicy | None",
    ) -> None:
        """Every attribute of a database that holds no dataset yet —
        the one initialiser behind ``__init__`` and :meth:`_restore`."""
        self._graph_cache_snap = graph_cache_snap
        self._shards = shards
        self._bulk = bulk
        self._tree_kwargs = tree_kwargs
        self._next_oid = next_oid
        self._graph_cache_size = graph_cache_size
        self._cache_policy = cache_policy
        self._runtime_stats = RuntimeStats()
        # Resolved here so an unknown name fails before any dataset loads.
        self._backend = resolve_backend(backend).name
        self._entity_trees: dict[str, RStarTree] = {}
        self._obstacle_indexes: dict[
            str, ObstacleIndex | ShardedObstacleIndex
        ] = {}
        self._context: QueryContext | None = None
        self._serving_pool = None
        self._metrics: MetricsRegistry | None = None
        self._journal = None
        # (applied MutationRecord, before), or (None, scope) for a new dataset
        self._feed = _MutationFeed()

    # ------------------------------------------------------------ datasets
    def add_obstacle_set(self, name: str, obstacles: Iterable[ObstacleLike]) -> None:
        """Register an additional obstacle dataset under ``name``.

        The paper notes the extension to multiple obstacle datasets is
        straightforward: all registered sets obstruct movement.
        Registering a set swaps the context's obstacle source, dropping
        all cached visibility graphs.
        """
        if name in self._obstacle_indexes:
            raise DatasetError(f"obstacle set {name!r} already exists")
        records = [self._coerce_obstacle(o) for o in obstacles]
        kwargs = dict(bulk=self._bulk, name=f"obstacles:{name}", **self._tree_kwargs)
        if self._shards is not None:
            self._obstacle_indexes[name] = build_sharded_obstacle_index(
                records, shards=self._shards, **kwargs
            )
        else:
            self._obstacle_indexes[name] = build_obstacle_index(records, **kwargs)
        self._rebuild_context()
        self._shape_changed("obstacle")

    def add_entity_set(self, name: str, points: Iterable[PointLike]) -> None:
        """Register a named entity dataset (points of interest)."""
        if name in self._entity_trees:
            raise DatasetError(f"entity set {name!r} already exists")
        tree = RStarTree(name=f"entities:{name}", **self._tree_kwargs)
        items = [(p, Rect.from_point(p)) for p in map(self._coerce_point, points)]
        if self._bulk:
            str_pack(tree, items)
        else:
            for p, rect in items:
                tree.insert(p, rect)
        self._entity_trees[name] = tree
        self._shape_changed("entity")

    def insert_entity(self, name: str, point: PointLike) -> None:
        """Insert one entity into an existing dataset."""
        p = self._coerce_point(point)
        self.entity_tree(name)  # resolve (and fail) pre-journal
        self._commit(entity_record("insert", name, p))

    def delete_entity(self, name: str, point: PointLike) -> bool:
        """Delete one entity; returns ``True`` when found."""
        p = self._coerce_point(point)
        self.entity_tree(name)
        return self._commit(entity_record("delete", name, p))

    # ------------------------------------------------- dynamic obstacles
    def insert_obstacle(
        self, obstacle: ObstacleLike, *, set_name: str = "obstacles"
    ) -> Obstacle:
        """Insert one obstacle into an existing obstacle set.

        Returns the stored :class:`~repro.model.Obstacle` record (with
        its database-assigned id), which can later be passed to
        :meth:`delete_obstacle`.  The mutation is routed repair-first:
        every cached visibility graph is visited; one whose coverage
        disk the new obstacle intersects is patched in place (one
        ``add_obstacle``), the others get a version-stamp refresh; a
        graph is rebuilt only when repair is impossible
        (rebuild-fallback) — queries never consult a stale graph.
        """
        stored = self._coerce_obstacle(obstacle)
        self._obstacle_index_named(set_name)  # resolve (and fail) pre-journal
        self._commit(obstacle_record("insert", set_name, stored), stored)
        return stored

    def delete_obstacle(
        self, obstacle: Obstacle | int, *, set_name: str = "obstacles"
    ) -> bool:
        """Delete one obstacle (by record or by id) from an obstacle set.

        Returns ``True`` when found.  Like :meth:`insert_obstacle` the
        delete is repair-first: affected cached graphs are patched by
        :meth:`~repro.visibility.graph.VisibilityGraph.remove_obstacle`
        (a local repair of the obstacle's visibility shadow) instead
        of being dropped for a from-scratch rebuild.
        """
        index = self._obstacle_index_named(set_name)
        if isinstance(obstacle, int):
            obstacle = index.find(obstacle)
            if obstacle is None:
                return False
        return self._commit(obstacle_record("delete", set_name, obstacle), obstacle)

    # ------------------------------------------------------ the write path
    def _commit(self, record: MutationRecord, obstacle: Obstacle | None = None) -> bool:
        """The one write path of the database: journal the record
        (fsynced, *before* anything changes, so a crash after this line
        recovers the mutation), apply it, and fold the journal once that
        append makes it outgrow its base
        (:meth:`~repro.persist.journal.MutationJournal.due`).  Returns
        whether the mutation found its target (always, for an insert)."""
        journal = self._journal
        if journal is not None:
            with TRACER.span("journal.append", scope=record.scope, op=record.op):
                journal.append(record)
        found = self._apply(record, obstacle)
        if journal is not None and journal.due():
            self.compact()
        return found

    def _apply(self, record: MutationRecord, obstacle: Obstacle | None) -> bool:
        """Apply one record to the named index or entity tree, then
        announce it on the database's feed — the step :meth:`_commit`
        shares with :func:`~repro.persist.journal.apply_record`
        (recovery, pool-worker replay), which must not journal.

        The index runs its own listeners (the graph cache's repair-first
        pass) inside ``insert`` / ``delete``, so the pool and the hub,
        who listen here, hear of a mutation after the cache absorbed it,
        and with it the version (entity set: size) its set had *before*
        it — what a mirror of the set must have been at to be current;
        one that found nothing is not announced.  ``obstacle`` is an
        obstacle record's :class:`~repro.model.Obstacle`.
        """
        found = True
        if record.scope == "obstacle":
            index = self._obstacle_index_named(record.set_name)
            before = index.version
            if record.op == "insert":
                index.insert(obstacle)
                self._next_oid = max(self._next_oid, obstacle.oid + 1)
            else:
                found = index.delete(obstacle)
        else:
            tree = self.entity_tree(record.set_name)
            before = len(tree)
            rect = Rect.from_point(record.point)
            if record.op == "insert":
                tree.insert(record.point, rect)
            else:
                found = tree.delete(record.point, rect)
        if found:
            self._feed.notify(record, before)
        return found

    def _obstacle_index_named(
        self, name: str
    ) -> ObstacleIndex | ShardedObstacleIndex:
        try:
            return self._obstacle_indexes[name]
        except KeyError:
            raise DatasetError(f"unknown obstacle set {name!r}") from None

    # -------------------------------------------------------------- access
    def entity_tree(self, name: str) -> RStarTree:
        """The R*-tree indexing entity set ``name``."""
        try:
            return self._entity_trees[name]
        except KeyError:
            raise DatasetError(f"unknown entity set {name!r}") from None

    @property
    def obstacle_index(
        self,
    ) -> ObstacleIndex | CompositeObstacleIndex | ShardedObstacleIndex:
        """The (possibly composite or sharded) obstacle source."""
        return self._context.source  # type: ignore[union-attr,return-value]

    @property
    def obstacle_tree(self) -> RStarTree:
        """The primary obstacle R*-tree (monolithic storage only)."""
        index = self._obstacle_indexes["obstacles"]
        if isinstance(index, ShardedObstacleIndex):
            raise DatasetError(
                "sharded obstacle storage has no single primary tree; "
                "use obstacle_index.trees() or obstacle_index.shard(key)"
            )
        return index.tree

    @property
    def context(self) -> QueryContext:
        """The persistent query runtime shared by every query."""
        assert self._context is not None
        return self._context

    @property
    def cache_policy(self) -> str:
        """The active cache policy's name (``"static"``/``"adaptive"``)
        — what a worker process must be told to resolve the same kind."""
        return self.context.policy.name

    def universe(self) -> Rect | None:
        """MBR over obstacles and all entity sets."""
        rects = [idx.universe() for idx in self._obstacle_indexes.values()]
        rects += [t.mbr() for t in self._entity_trees.values()]
        rects = [r for r in rects if r is not None]
        return Rect.union_all(rects) if rects else None

    def _rebuild_context(self) -> None:
        indexes = list(self._obstacle_indexes.values())
        source = indexes[0] if len(indexes) == 1 else CompositeObstacleIndex(indexes)
        self._context = QueryContext(
            source,
            cache_size=self._graph_cache_size,
            snap=self._graph_cache_snap,
            stats=self._runtime_stats,
            backend=self._backend,
            policy=self._cache_policy,
        )

    # --------------------------------------------------------- serving pool
    def serving_pool(self, workers: int):
        """The persistent warm-started worker pool serving this database.

        Created lazily (snapshotting the current state so workers warm
        start); reused across batches until :meth:`close` or a worker
        count change.  The batch methods engage it via
        ``pool="persistent"``; callers wanting direct pool batches can
        use the returned
        :class:`~repro.serve.pool.PersistentWorkerPool` themselves.
        """
        from repro.serve.pool import PersistentWorkerPool

        if workers < 2:
            raise QueryError(
                f"a serving pool needs >= 2 workers, got {workers}"
            )
        pool = self._serving_pool
        if pool is not None and not pool._shut and pool.workers == workers:
            return pool
        self.close()
        self._serving_pool = PersistentWorkerPool(self, workers)
        return self._serving_pool

    def _shape_changed(self, scope: str) -> None:
        """A dataset of ``scope`` (``"obstacle"`` or ``"entity"``) was
        added — a change no mutation record expresses.  It is announced
        on the feed as ``(None, scope)``: a pool discards its workers
        (the next dispatch respawns them from a fresh snapshot), and a
        hub re-evaluates every subscription for an obstacle set, which
        may reach any of them; a new entity set is named by none.  Records
        journaled before the change would replay over a base snapshot
        missing the new set, so an anchored journal folds at once (the
        rewritten base includes the set) and an unanchored one —
        nothing recoverable yet — is truncated."""
        self._feed.notify(None, scope)
        journal = self._journal
        if journal is not None:
            self.compact() if journal.base_path else journal.reset()

    def close(self) -> None:
        """Release serving resources (the persistent worker pool).

        Idempotent; the database remains fully usable for library
        calls afterwards — a later ``pool="persistent"`` batch simply
        respawns the pool from a fresh snapshot.
        """
        if self._serving_pool is not None:
            self._serving_pool.shutdown()
            self._serving_pool = None

    def __enter__(self) -> "ObstacleDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------- persistence
    def save(
        self,
        path: "str | os.PathLike[str]",
        *,
        dataset_refs: "Mapping[str, str | os.PathLike[str]] | None" = None,
        include_cache: bool = True,
    ) -> None:
        """Write a page-backed snapshot of this database to ``path``.

        The snapshot captures every R*-tree node-per-page (page ids,
        buffer residency and access counters included), every obstacle
        set (monolithic or sharded, with per-shard versions and grid
        geometry), and — unless ``include_cache=False`` — every cached
        visibility graph with its coverage and version stamp, so
        :meth:`load` warm-starts.
        ``dataset_refs`` records source dataset files by content hash;
        a later load verifies them (hash, not mtime) and refuses drift.

        On a durable database (``durable=``) a successful save also
        *anchors* the journal: ``path`` becomes the base snapshot the
        journal folds into, and the journal is truncated — every
        journaled mutation is now inside the base.
        """
        from repro.persist.store import save_database

        save_database(
            self, path, dataset_refs=dataset_refs, include_cache=include_cache
        )
        if self._journal is not None:
            self._journal.reset()
            self._journal.base_path = os.fspath(path)

    @classmethod
    def load(
        cls,
        path: "str | os.PathLike[str]",
        *,
        backend: "str | None" = None,
        cache_policy: "str | CachePolicy | None" = None,
        durable: "str | os.PathLike[str] | None" = None,
    ) -> "ObstacleDatabase":
        """Restore a database saved by :meth:`save`.

        The restored database is observationally identical to the
        saved one — bit-identical query answers and identical simulated
        page-miss counts on any access sequence — and its runtime is
        warm: restored cache entries are re-admitted under their
        spatial keys and shard registrations, and the mutation feed is
        re-subscribed, so post-load mutations still route repair-first.
        Corrupt, truncated or future-version files raise
        :class:`~repro.errors.DatasetError` naming the path and offset,
        without constructing any partial database.

        ``durable`` names the mutation journal written ahead of the
        base snapshot (crash recovery): its durable record prefix is
        replayed over the restored state — a torn tail from a mid-append
        crash is truncated away, mid-record corruption raises
        :class:`~repro.errors.DatasetError` naming path and offset —
        and the journal stays attached, anchored to ``path``, so the
        recovered database keeps journaling.
        """
        from repro.persist.store import load_database

        return load_database(
            path, backend=backend, cache_policy=cache_policy, durable=durable
        )

    # ------------------------------------------------------------- journal
    @property
    def journal(self):
        """The attached :class:`~repro.persist.journal.MutationJournal`
        (``None`` when the database is not durable)."""
        return self._journal

    def _attach_journal(self, journal) -> None:
        """Wire an open journal to this database (constructor or
        post-replay from :func:`~repro.persist.store.load_database`)."""
        journal.stats = self._runtime_stats
        self._journal = journal

    def compact(self) -> None:
        """Fold the journal into a new base snapshot, then truncate it.

        The base is rewritten through the durable atomic-replace path
        (:func:`~repro.persist.framing.atomic_write_bytes`), so a
        ``kill -9`` at any point leaves either the old base plus the
        full journal, or the new base plus the (about-to-be-)empty
        journal — recovery is correct from both.  Requires a durable
        database that has been anchored by :meth:`save` or restored by
        :meth:`load`.
        """
        if self._journal is None:
            raise DatasetError(
                "compact() needs a durable database (open with durable=...)"
            )
        base = self._journal.base_path
        if base is None:
            raise DatasetError(
                "compact() needs a base snapshot: call save() first"
            )
        with TRACER.span("journal.compact", base=base):
            self.save(base)
            self._runtime_stats.compactions += 1
            self._runtime_stats.compaction_bytes += os.path.getsize(base)

    def _snapshot_state(self) -> dict:
        """The parts of this database a snapshot serializes (the
        inverse of :meth:`_restore`)."""
        return {
            "tree_kwargs": dict(self._tree_kwargs),
            "bulk": self._bulk,
            "shards": self._shards,
            "graph_cache_size": self._graph_cache_size,
            "graph_cache_snap": self._graph_cache_snap,
            "next_oid": self._next_oid,
            "obstacle_indexes": self._obstacle_indexes,
            "entity_trees": self._entity_trees,
        }

    @classmethod
    def _restore(
        cls,
        *,
        obstacle_indexes: "dict[str, ObstacleIndex | ShardedObstacleIndex]",
        entity_trees: dict[str, RStarTree],
        **state,
    ) -> "ObstacleDatabase":
        """Assemble a database around already-restored indexes.

        Bypasses the building constructor entirely: ``state`` goes to
        :meth:`_init_state`, the obstacle and entity trees are
        installed verbatim and only the runtime context is created
        fresh (which re-subscribes the mutation feed).  The caller
        (:mod:`repro.persist.store`) re-admits the restored cache
        entries afterwards.
        """
        db = object.__new__(cls)
        db._init_state(**state)
        db._entity_trees.update(entity_trees)
        db._obstacle_indexes.update(obstacle_indexes)
        db._rebuild_context()
        return db

    # -------------------------------------------------------------- queries
    def range(self, name: str, q: PointLike, e: float) -> list[tuple[Point, float]]:
        """OR: entities of ``name`` within obstructed distance ``e`` of ``q``."""
        with TRACER.span("query.range", set=name, e=e):
            return obstacle_range(
                self.entity_tree(name),
                self.obstacle_index,
                self._coerce_point(q),
                e,
                context=self._context,
            )

    def nearest(self, name: str, q: PointLike, k: int = 1) -> list[tuple[Point, float]]:
        """ONN: the ``k`` obstructed nearest neighbours of ``q``."""
        with TRACER.span("query.nearest", set=name, k=k):
            return obstacle_nearest(
                self.entity_tree(name),
                self.obstacle_index,
                self._coerce_point(q),
                k,
                context=self._context,
            )

    def inearest(self, name: str, q: PointLike) -> Iterator[tuple[Point, float]]:
        """Incremental ONN: neighbours in ascending obstructed distance."""
        return iter_obstacle_nearest(
            self.entity_tree(name),
            self.obstacle_index,
            self._coerce_point(q),
            context=self._context,
        )

    def distance_join(
        self,
        s_name: str,
        t_name: str,
        e: float,
        *,
        hilbert_order_seeds: bool = True,
    ) -> list[tuple[Point, Point, float]]:
        """ODJ: pairs within obstructed distance ``e``."""
        with TRACER.span("query.distance_join", s=s_name, t=t_name, e=e):
            return obstacle_distance_join(
                self.entity_tree(s_name),
                self.entity_tree(t_name),
                self.obstacle_index,
                e,
                hilbert_order_seeds=hilbert_order_seeds,
                universe=self.universe(),
                context=self._context,
            )

    def closest_pairs(
        self, s_name: str, t_name: str, k: int = 1
    ) -> list[tuple[Point, Point, float]]:
        """OCP: the ``k`` obstructed closest pairs."""
        with TRACER.span("query.closest_pairs", s=s_name, t=t_name, k=k):
            return obstacle_closest_pairs(
                self.entity_tree(s_name),
                self.entity_tree(t_name),
                self.obstacle_index,
                k,
                context=self._context,
            )

    def iclosest_pairs(
        self, s_name: str, t_name: str
    ) -> Iterator[tuple[Point, Point, float]]:
        """iOCP: closest pairs in ascending obstructed distance."""
        return iter_obstacle_closest_pairs(
            self.entity_tree(s_name),
            self.entity_tree(t_name),
            self.obstacle_index,
            context=self._context,
        )

    def semijoin(
        self, s_name: str, t_name: str, *, strategy: str = "cp"
    ) -> dict[Point, tuple[Point, float]]:
        """Distance semi-join: each entity of ``s_name`` mapped to its
        obstructed nearest neighbour in ``t_name``."""
        with TRACER.span("query.semijoin", s=s_name, t=t_name):
            return obstacle_semijoin(
                self.entity_tree(s_name),
                self.entity_tree(t_name),
                self.obstacle_index,
                strategy=strategy,
                context=self._context,
            )

    def obstructed_distance(self, a: PointLike, b: PointLike) -> float:
        """The obstructed distance between two arbitrary points.

        Served by the database's persistent context: the local graph
        around ``b`` is cached, so repeated evaluations against the
        same target skip both the obstacle retrieval and the graph
        construction.
        """
        with TRACER.span("query.distance"):
            return self.context.distance(
                self._coerce_point(a), self._coerce_point(b)
            )

    # ---------------------------------------------------------------- batch
    def batch_nearest(
        self,
        name: str,
        qs: Iterable[PointLike],
        k: int = 1,
        *,
        workers: int | None = None,
        pool: str | None = None,
    ) -> list[list[tuple[Point, float]]]:
        """ONN for many query points through the batch engine.

        Returns one result list per query point, in input order;
        duplicate query points are computed once.  ``workers``
        (``None`` or 0 = sequential through the shared context) fans
        distinct points over worker processes, and ``pool`` picks how
        they start: ``"fork"`` (``None``) forks one child per chunk —
        sequential where the platform cannot fork — and
        ``"persistent"`` reuses the warm :meth:`serving_pool`.  A
        mid-batch obstacle mutation raises :class:`DatasetError`
        instead of returning mixed-version answers.
        """
        queries = [self._coerce_point(q) for q in qs]
        return self._batch(("nearest", name, k), queries, workers, pool, set=name)

    def batch_range(
        self,
        name: str,
        qs: Iterable[PointLike],
        e: float,
        *,
        workers: int | None = None,
        pool: str | None = None,
    ) -> list[list[tuple[Point, float]]]:
        """OR for many query points through the batch engine.

        Returns one result list per query point, in input order;
        duplicate query points are computed once.  ``workers`` and
        ``pool`` parallelize exactly as for :meth:`batch_nearest`.
        """
        queries = [self._coerce_point(q) for q in qs]
        return self._batch(("range", name, e), queries, workers, pool, set=name)

    def batch_distance(
        self,
        pairs: Sequence[tuple[PointLike, PointLike]],
        *,
        workers: int | None = None,
        pool: str | None = None,
    ) -> list[float]:
        """Obstructed distances for many point pairs.

        Sequential by default (pairs sharing a target reuse its cached
        graph); duplicate pairs are computed once, and ``workers`` and
        ``pool`` parallelize exactly as for :meth:`batch_nearest`.
        """
        coerced = [
            (self._coerce_point(a), self._coerce_point(b)) for a, b in pairs
        ]
        return self._batch(("distance",), coerced, workers, pool)

    def _batch(
        self,
        command: tuple,
        items: list,
        workers: int | None,
        pool: str | None,
        **attrs,
    ) -> list:
        """The batch methods' one body: validate the arguments
        (``None`` means ``0`` workers and the ``"fork"`` kind), fail on
        an unknown entity set before any fan-out, and run the batch
        (:func:`~repro.runtime.batch.run_batch`, which picks the
        route)."""
        count = 0 if workers is None else workers
        if count < 0:
            raise QueryError(f"worker count must be >= 0, got {count}")
        if pool not in (None, "fork", "persistent"):
            raise QueryError(
                f"unknown batch pool kind {pool!r} (expected 'fork' or "
                f"'persistent')"
            )
        if command[0] != "distance":
            self.entity_tree(command[1])
        with TRACER.span(
            f"query.batch_{command[0]}", **attrs, n=len(items), workers=count
        ):
            return run_batch(self, command, items, workers=count, pool=pool)

    def shortest_path(
        self, a: PointLike, b: PointLike
    ) -> tuple[float, list[Point]]:
        """The obstructed distance *and* one shortest obstacle-avoiding
        route between two arbitrary points.

        The distance is computed first (Fig. 8); every obstacle that can
        touch a path of that length lies within the disk of that radius
        around ``b``, so the route read back off the cached graph
        serving ``b`` (:meth:`~repro.visibility.csr.CSRGraph.route`) is
        a true shortest path.  A read: the cached graph, its freeze and
        its memos stay as they are.  Returns ``(inf, [])`` when no path
        exists.
        """
        start = self._coerce_point(a)
        end = self._coerce_point(b)
        if start == end:
            return 0.0, [start]
        d = self.obstructed_distance(start, end)
        if d == inf:
            return inf, []
        graph = self.context.entry_for(end, d).graph
        csr = frozen(graph, stats=self.context.stats)
        if csr.direct_leg(start, end, graph) == d:
            return d, [start, end]
        return d, csr.route(start, end, graph)

    # ---------------------------------------------------------------- stats
    def metrics(self) -> MetricsRegistry:
        """The unified metrics registry over this database.

        One :class:`~repro.obs.metrics.MetricsRegistry` per database
        (created lazily, always live): the ``runtime`` group mirrors
        :meth:`runtime_stats`, ``pages`` mirrors :meth:`stats` with a
        ``tree`` label, and ``pool`` reports the persistent serving
        pool while one is up.  Export via ``snapshot()`` / ``to_json()``
        / ``to_prometheus()``.
        """
        if self._metrics is None:
            self._metrics = MetricsRegistry.for_database(self)
        return self._metrics

    def _trees(
        self, *, entities: bool = True
    ) -> Iterator[tuple[str, RStarTree]]:
        """The one walk over this database's R-trees: every (shard)
        tree of every obstacle set, then — unless ``entities`` is off —
        every entity tree, each with the key :meth:`stats` reports it
        under (a sharded set's trees share their set's key)."""
        for name, idx in self._obstacle_indexes.items():
            sharded = isinstance(idx, ShardedObstacleIndex)
            for tree in idx.trees():
                yield (f"obstacles:{name}" if sharded else tree.name), tree
        if entities:
            for tree in self._entity_trees.values():
                yield tree.name, tree

    def stats(self) -> Mapping[str, Mapping[str, int]]:
        """Per-tree page-access counters (reads / misses / writes).

        Sharded obstacle sets are reported under their set name with
        counters summed over the per-shard trees, so workloads read
        the same keys regardless of the storage layout.
        """
        zero = {"reads": 0, "misses": 0, "writes": 0}
        # a sharded set reports its row even while it has no shard
        out: dict[str, dict[str, int]] = {
            f"obstacles:{name}": dict(zero)
            for name, idx in self._obstacle_indexes.items()
            if isinstance(idx, ShardedObstacleIndex)
        }
        for key, tree in self._trees():
            total = out.setdefault(key, dict(zero))
            for counter, value in tree.counter.snapshot().items():
                total[counter] += value
        return out

    def runtime_stats(self) -> dict[str, int | float | str]:
        """Counters of the shared query runtime (graph builds, cache
        hits/misses/evictions/invalidations, distance calls, anchor
        counts/timings and the active visibility ``backend``)."""
        return self._runtime_stats.snapshot()

    def reset_stats(self, *, clear_buffers: bool = False) -> None:
        """Zero all counters; optionally cold-start every cache.

        ``clear_buffers=True`` is the benchmark-isolation mode: it
        empties the R-tree page buffers *and* the visibility-graph
        cache, so consecutive workload measurements on one database do
        not prime each other.
        """
        for __, tree in self._trees():
            tree.reset_stats(clear_buffer=clear_buffers)
        if clear_buffers and self._context is not None:
            self._context.invalidate()
        self._runtime_stats.reset()

    # -------------------------------------------------------------- helpers
    def _coerce_obstacle(self, value: ObstacleLike) -> Obstacle:
        if isinstance(value, Obstacle):
            value = value.polygon
        elif isinstance(value, Rect):
            value = Polygon.from_rect(value)
        elif not isinstance(value, Polygon):
            raise DatasetError(
                f"cannot interpret {type(value).__name__} as an obstacle"
            )
        obstacle = Obstacle(self._next_oid, value)
        self._next_oid += 1
        return obstacle

    @staticmethod
    def _coerce_point(value: PointLike) -> Point:
        if isinstance(value, Point):
            return value
        if isinstance(value, tuple) and len(value) == 2:
            return Point(value[0], value[1])
        raise QueryError(f"cannot interpret {value!r} as a point")
