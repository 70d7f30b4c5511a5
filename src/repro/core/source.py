"""Obstacle sources: counted access to the obstacle R-tree(s).

The query algorithms never touch the obstacle R-tree directly; they go
through an :class:`ObstacleIndex`, which performs the filter/refinement
range retrieval of relevant obstacles (paper Sec. 3).  The paper notes
that "the extension to multiple obstacle datasets is straightforward" —
:class:`CompositeObstacleIndex` is that extension: it unions the
relevant obstacles of several indexes.

:class:`ShardedObstacleIndex` is the scale-out variant: one dataset
spatially partitioned over a :class:`~repro.runtime.sharding.ShardGrid`
into many small per-shard R-trees.  Range retrievals fan out only to
the shards whose cells intersect the query disk.

Every source answers ``version_for(center, radius)``: a tuple of ints
that moves whenever the obstacles intersecting that disk may have
changed.  A cached visibility graph built over the disk is current
exactly while the tuple is unchanged
(:meth:`repro.runtime.context.QueryContext.version_for`).
"""

from __future__ import annotations

import weakref
from math import inf
from typing import Callable, Iterable, Sequence

from repro.errors import DatasetError
from repro.euclidean.range import obstacles_in_range
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rstar import RStarTree
from repro.model import Obstacle
from repro.runtime.sharding import ShardGrid


#: Signature of a mutation listener: ``callback(kind, obstacle)``.
#: Each mutation fires two synchronous notifications: a
#: ``"pre-insert"`` / ``"pre-delete"`` immediately *before* the
#: mutation is applied (so listeners can snapshot which of their
#: derived structures are still consistent with the pre-mutation
#: state) and the matching ``"insert"`` / ``"delete"`` immediately
#: *after* (so version stamps taken inside the callback describe the
#: post-mutation state).  A delete that finds nothing fires only the
#: ``pre-`` notification.
MutationListener = Callable[[str, Obstacle], None]


class _MutationFeed:
    """Weakly-held mutation listeners of one obstacle source — or of
    one database, whose feed carries each applied
    :class:`~repro.persist.journal.MutationRecord` instead of a
    ``(kind, obstacle)`` pair.

    The query runtime subscribes its repair-first cache maintenance
    here (:meth:`repro.runtime.context.QueryContext._on_obstacle_mutation`).
    Bound-method listeners are held through ``weakref.WeakMethod`` so a
    source never keeps a dead ``QueryContext`` (and its graph cache)
    alive; dead references are pruned on notify.  Plain functions and
    lambdas have no bound instance to track and are held strongly —
    their lifetime is the subscriber's responsibility.
    """

    __slots__ = ("_subs",)

    def __init__(self) -> None:
        self._subs: list[Callable[[], Callable[..., None] | None]] = []

    def subscribe(self, callback: Callable[..., None]) -> None:
        try:
            ref: Callable[[], Callable[..., None] | None] = weakref.WeakMethod(
                callback  # type: ignore[arg-type]
            )
        except TypeError:
            ref = lambda cb=callback: cb  # noqa: E731
        self._subs.append(ref)

    def notify(self, *event: object) -> None:
        if not self._subs:
            return
        live = []
        for ref in self._subs:
            callback = ref()
            if callback is not None:
                live.append(ref)
                callback(*event)
        self._subs = live


class ObstacleIndex:
    """A single obstacle dataset behind an R-tree.

    The index is *versioned*: every mutation (insert/delete) bumps
    ``version``, and the query runtime stamps each cached visibility
    graph with the version it was built against (:meth:`version_for`),
    so stale graphs are discarded lazily at their next lookup instead
    of being rebuilt eagerly on every update.  The version also folds
    in the tree's entry count, so even mutations applied directly to
    ``tree`` (bypassing :meth:`insert`/:meth:`delete`) are detected — a
    balanced sequence of direct inserts and deletes in *this one tree*
    between two queries is the one drift this cannot see; route
    mutations through the index (or
    :class:`~repro.core.engine.ObstacleDatabase`) for full tracking.

    A write made here, behind a database's back
    (``db.obstacle_index.insert(...)``), is heard by this index's own
    listeners only: the graph cache repairs from it, but it is not
    journaled (so not durable), and the serving pool sees the version
    drift at its next dispatch and respawns.  The database's
    ``insert_obstacle`` / ``delete_obstacle`` are the write path that
    reaches all of them.
    """

    def __init__(self, tree: RStarTree, *, mutations: int = 0) -> None:
        self.tree = tree
        self._mutations = mutations
        self._feed = _MutationFeed()

    @property
    def mutation_count(self) -> int:
        """Indexed mutations applied so far (half of the version's
        mutation weight).  Persisted by snapshots — restoring it keeps
        the restored index's :attr:`version` identical to the live
        one's, so serialized graph stamps stay comparable."""
        return self._mutations

    def subscribe(self, callback: MutationListener) -> None:
        """Register a (weakly held) mutation listener; every
        :meth:`insert` / :meth:`delete` calls it twice — ``pre-insert``
        / ``pre-delete`` just before applying, ``insert`` / ``delete``
        just after (a not-found delete fires only the ``pre-``)."""
        self._feed.subscribe(callback)

    @property
    def version(self) -> int:
        """Changes on every indexed mutation (the weight-2 counter
        strictly dominates the +-1 size change); also moves when the
        tree is resized behind the index's back."""
        return 2 * self._mutations + len(self.tree)

    def version_for(self, center: Point, radius: float) -> tuple[int, ...]:
        """The stamp of a graph built over any disk: ``(version,)``."""
        return (self.version,)

    def obstacles_in_range(self, center: Point, radius: float) -> list[Obstacle]:
        """Obstacles intersecting the disk (filtered by MBR, refined
        against the polygon)."""
        if radius == inf:
            return [data for data, __ in self.tree.items()]
        return obstacles_in_range(self.tree, center, radius)

    def insert(self, obstacle: Obstacle) -> None:
        """Add one obstacle and bump the version."""
        self._feed.notify("pre-insert", obstacle)
        self.tree.insert(obstacle, obstacle.mbr)
        self._mutations += 1
        self._feed.notify("insert", obstacle)

    def delete(self, obstacle: Obstacle) -> bool:
        """Remove one obstacle; bumps the version when found."""
        self._feed.notify("pre-delete", obstacle)
        found = self.tree.delete(obstacle, obstacle.mbr)
        if found:
            self._mutations += 1
            self._feed.notify("delete", obstacle)
        return found

    def find(self, oid: int) -> Obstacle | None:
        """The obstacle with id ``oid``, or ``None`` (linear scan)."""
        for obstacle, __ in self.tree.items():
            if obstacle.oid == oid:
                return obstacle
        return None

    def universe(self) -> Rect | None:
        """MBR of the whole obstacle dataset (``None`` when empty)."""
        return self.tree.mbr()

    def trees(self) -> list[RStarTree]:
        """The backing R-trees (one, for a monolithic index)."""
        return [self.tree]

    def __len__(self) -> int:
        return len(self.tree)


class CompositeObstacleIndex:
    """Several obstacle datasets queried as one.

    Obstacle ids must be globally unique across the member indexes —
    :class:`repro.core.engine.ObstacleDatabase` assigns them from one
    sequence.
    """

    def __init__(self, indexes: Sequence[ObstacleIndex]) -> None:
        if not indexes:
            raise DatasetError("composite obstacle index needs >= 1 member")
        self.indexes = list(indexes)

    def subscribe(self, callback: MutationListener) -> None:
        """Register a mutation listener with every member index."""
        for index in self.indexes:
            index.subscribe(callback)

    def version_for(self, center: Point, radius: float) -> tuple[int, ...]:
        """The members' stamps, concatenated: a change in one member is
        never cancelled out by a change in another."""
        return tuple(v for idx in self.indexes for v in idx.version_for(center, radius))

    def obstacles_in_range(self, center: Point, radius: float) -> list[Obstacle]:
        """Union of the members' relevant obstacles."""
        result: list[Obstacle] = []
        seen: set[int] = set()
        for index in self.indexes:
            for obs in index.obstacles_in_range(center, radius):
                if obs.oid not in seen:
                    seen.add(obs.oid)
                    result.append(obs)
        return result

    def universe(self) -> Rect | None:
        """MBR over all member datasets."""
        rects = [idx.universe() for idx in self.indexes]
        rects = [r for r in rects if r is not None]
        if not rects:
            return None
        return Rect.union_all(rects)

    def trees(self) -> list[RStarTree]:
        """The backing R-trees of every member index."""
        return [tree for idx in self.indexes for tree in idx.trees()]

    def __len__(self) -> int:
        return sum(len(idx) for idx in self.indexes)


class ShardedObstacleIndex:
    """One obstacle dataset spatially partitioned into per-shard R-trees.

    Each occupied grid cell owns a full :class:`ObstacleIndex` (its own
    versioned R-tree); an obstacle is stored in every shard its MBR
    overlaps, and retrievals dedupe by obstacle id — the same union
    semantics as :class:`CompositeObstacleIndex`, but with *spatial*
    membership, so:

    * ``obstacles_in_range`` consults only the shards whose cells
      intersect the query disk (in Hilbert key order, for buffer
      locality and determinism);
    * mutations bump only the versions of the shards they touch, and
      :meth:`version_for` reads only the shards of the disk's cells, so
      a cached visibility graph stays current through mutations in
      shards it never read.

    Shards are created lazily on first insert into their cell and never
    removed — an emptied shard keeps its version history, which is what
    makes stamp comparison sound.
    """

    def __init__(
        self,
        grid: ShardGrid,
        *,
        name: str = "obstacles",
        **tree_kwargs: object,
    ) -> None:
        self.grid = grid
        self.name = name
        self._tree_kwargs = dict(tree_kwargs)
        self._shards: dict[int, ObstacleIndex] = {}
        self._count = 0
        self._feed = _MutationFeed()

    def subscribe(self, callback: MutationListener) -> None:
        """Register a (weakly held) mutation listener; each
        :meth:`insert` / :meth:`delete` notifies it once before and
        once after applying (``pre-`` then plain kind — not per
        shard; a not-found delete fires only the ``pre-``)."""
        self._feed.subscribe(callback)

    # -------------------------------------------------------------- shards
    @property
    def shard_count(self) -> int:
        """Number of occupied shards."""
        return len(self._shards)

    def shard_keys(self) -> list[int]:
        """Occupied shard keys in Hilbert order."""
        return sorted(self._shards)

    def shard(self, key: int) -> ObstacleIndex:
        """The shard stored under ``key`` (raises on unoccupied cells)."""
        try:
            return self._shards[key]
        except KeyError:
            raise DatasetError(f"no shard with key {key}") from None

    def shard_version(self, key: int) -> int:
        """Version of the shard under ``key`` (0 for unoccupied cells)."""
        shard = self._shards.get(key)
        return 0 if shard is None else shard.version

    def occupied_keys_for_disk(self, center: Point, radius: float) -> list[int]:
        """Occupied shard keys whose cells intersect the disk, sorted
        in Hilbert order (the retrieval fan-out set)."""
        if radius == inf:
            return sorted(self._shards)
        grid = self.grid
        keys = {
            grid.key(cx, cy) for cx, cy in grid.cells_for_disk(center, radius)
        }
        return sorted(keys & self._shards.keys())

    def _shard_for_key(self, key: int) -> ObstacleIndex:
        shard = self._shards.get(key)
        if shard is None:
            tree = RStarTree(
                name=f"{self.name}[{key:04d}]",
                **self._tree_kwargs,  # type: ignore[arg-type]
            )
            shard = ObstacleIndex(tree)
            self._shards[key] = shard
        return shard

    def keys_for_obstacle(self, obstacle: Obstacle) -> list[int]:
        """The shard keys of every cell the obstacle's MBR overlaps —
        the shards an insert or delete of it writes to."""
        grid = self.grid
        return sorted(
            {grid.key(cx, cy) for cx, cy in grid.cells_for_rect(obstacle.mbr)}
        )

    # ------------------------------------------------------------ versioning
    @property
    def version(self) -> int:
        """Global version: moves whenever *any* shard mutates."""
        return sum(shard.version for shard in self._shards.values())

    def version_for(self, center: Point, radius: float) -> tuple[int, ...]:
        """One :meth:`shard_version` per grid cell the disk meets (0 for
        a cell without a shard, so a shard created inside the disk
        moves the tuple too)."""
        grid = self.grid
        return tuple(
            self.shard_version(grid.key(cx, cy))
            for cx, cy in grid.cells_for_disk(center, radius)
        )

    # -------------------------------------------------------------- queries
    def obstacles_in_range(self, center: Point, radius: float) -> list[Obstacle]:
        """Obstacles intersecting the disk — fanned out only to the
        shards whose cells intersect it, deduped by obstacle id."""
        result: list[Obstacle] = []
        seen: set[int] = set()
        for key in self.occupied_keys_for_disk(center, radius):
            for obs in self._shards[key].obstacles_in_range(center, radius):
                if obs.oid not in seen:
                    seen.add(obs.oid)
                    result.append(obs)
        return result

    def find(self, oid: int) -> Obstacle | None:
        """The obstacle with id ``oid``, or ``None`` (scans shards)."""
        for key in sorted(self._shards):
            found = self._shards[key].find(oid)
            if found is not None:
                return found
        return None

    def universe(self) -> Rect | None:
        """MBR of the stored obstacles (``None`` when empty).

        This is the *data* MBR, not the (fixed) grid universe.
        """
        rects = [shard.universe() for shard in self._shards.values()]
        rects = [r for r in rects if r is not None]
        return Rect.union_all(rects) if rects else None

    def trees(self) -> list[RStarTree]:
        """The per-shard R-trees, in Hilbert key order."""
        return [self._shards[key].tree for key in sorted(self._shards)]

    def __len__(self) -> int:
        """Number of distinct stored obstacles (spanning obstacles are
        replicated across shards but counted once)."""
        return self._count

    # ------------------------------------------------------------- mutation
    def insert(self, obstacle: Obstacle) -> None:
        """Insert one obstacle into every shard its MBR overlaps."""
        self._feed.notify("pre-insert", obstacle)
        for key in self.keys_for_obstacle(obstacle):
            self._shard_for_key(key).insert(obstacle)
        self._count += 1
        self._feed.notify("insert", obstacle)

    def delete(self, obstacle: Obstacle) -> bool:
        """Delete one obstacle from the shards holding it."""
        self._feed.notify("pre-delete", obstacle)
        found = False
        for key in self.keys_for_obstacle(obstacle):
            shard = self._shards.get(key)
            if shard is not None and shard.delete(obstacle):
                found = True
        if found:
            self._count -= 1
            self._feed.notify("delete", obstacle)
        return found

    @classmethod
    def restore(
        cls,
        grid: ShardGrid,
        *,
        name: str,
        shards: dict[int, ObstacleIndex],
        count: int,
        **tree_kwargs: object,
    ) -> "ShardedObstacleIndex":
        """Snapshot-restore hook: reassemble a sharded index from its
        parts.

        ``shards`` maps shard keys to fully restored per-shard
        :class:`ObstacleIndex` instances; ``count`` is taken verbatim
        (spanning obstacles are replicated, so it is not derivable
        from the shard dict).  A fresh mutation feed is
        created; subscribers re-attach when the runtime context is
        rebuilt around the restored source.
        """
        index = cls(grid, name=name, **tree_kwargs)
        index._shards = dict(shards)
        index._count = count
        return index

    def __repr__(self) -> str:
        return (
            f"ShardedObstacleIndex({self._count} obstacles, "
            f"{len(self._shards)}/{self.grid.cell_count} shards, "
            f"order={self.grid.order})"
        )


def build_obstacle_index(
    obstacles: Iterable[Obstacle],
    *,
    bulk: bool = True,
    name: str = "obstacles",
    **tree_kwargs: object,
) -> ObstacleIndex:
    """Index an obstacle collection with an R*-tree.

    ``bulk=True`` uses STR packing (fast benchmark setup); otherwise
    obstacles are inserted one by one through the full R* insert path.
    """
    from repro.index.bulk import str_pack

    tree = RStarTree(name=name, **tree_kwargs)  # type: ignore[arg-type]
    items = [(obs, obs.mbr) for obs in obstacles]
    if bulk:
        str_pack(tree, items)
    else:
        for obs, rect in items:
            tree.insert(obs, rect)
    return ObstacleIndex(tree)


def build_sharded_obstacle_index(
    obstacles: Iterable[Obstacle],
    *,
    shards: int = 16,
    universe: Rect | None = None,
    bulk: bool = True,
    name: str = "obstacles",
    **tree_kwargs: object,
) -> ShardedObstacleIndex:
    """Index an obstacle collection into a spatially sharded store.

    ``shards`` is a target count — the grid is the tightest power-of-two
    square with at least that many cells.  ``universe`` fixes the grid
    extent (defaults to the collection's MBR; later inserts outside it
    are clamped into the rim shards).  ``bulk=True`` STR-packs each
    shard's tree.
    """
    from repro.index.bulk import str_pack

    items = list(obstacles)
    if universe is None:
        universe = (
            Rect.union_all([obs.mbr for obs in items])
            if items
            else Rect(0.0, 0.0, 1.0, 1.0)
        )
    grid = ShardGrid.for_shards(universe, shards)
    index = ShardedObstacleIndex(grid, name=name, **tree_kwargs)
    if not bulk:
        for obs in items:
            index.insert(obs)
        return index
    per_shard: dict[int, list[Obstacle]] = {}
    for obs in items:
        for key in index.keys_for_obstacle(obs):
            per_shard.setdefault(key, []).append(obs)
    for key in sorted(per_shard):
        shard = index._shard_for_key(key)
        str_pack(shard.tree, [(obs, obs.mbr) for obs in per_shard[key]])
    index._count = len(items)
    return index
