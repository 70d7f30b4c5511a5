"""Obstacle sources: counted access to the obstacle R-tree(s).

The query algorithms never touch the obstacle R-tree directly; they go
through an :class:`ObstacleIndex`, which performs the filter/refinement
range retrieval of relevant obstacles (paper Sec. 3).  The paper notes
that "the extension to multiple obstacle datasets is straightforward" —
:class:`CompositeObstacleIndex` is that extension: it unions the
relevant obstacles of several indexes.

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
from repro.euclidean.range import Retrieval, obstacles_in_range
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rstar import RStarTree
from repro.model import Obstacle


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

    def obstacles_in_range(self, center: Point, radius: float) -> Retrieval:
        """Obstacles intersecting the disk (filtered by MBR, refined
        against the polygon), with the retrieval's clear radius."""
        if radius == inf:
            return Retrieval((data for data, __ in self.tree.items()), inf, inf)
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

    def obstacles_in_range(self, center: Point, radius: float) -> Retrieval:
        """Union of the members' relevant obstacles; its clear radius
        is the least of theirs."""
        result = Retrieval((), inf, inf)
        seen: set[int] = set()
        for index in self.indexes:
            found = index.obstacles_in_range(center, radius)
            result.clear_sq = min(result.clear_sq, found.clear_sq)
            result.clear_d = min(result.clear_d, found.clear_d)
            for obs in found:
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
    """Placeholder: ``benchmarks/e2e/e2e_trace.py`` wraps this
    ``obstacles_in_range`` (a ``core.retrieve`` wrap point); it goes with
    that wrap, ROADMAP item 3(i)."""

    obstacles_in_range = None


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
