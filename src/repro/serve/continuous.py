"""Continuous query subscriptions for moving clients.

The paper closes by flagging queries for *moving* entities as future
work (Sec. 8); :mod:`repro.core.continuous` answers the offline
version (the constant-NN partition of a whole known route).  This
module serves the *online* version: a client registers a standing
nearest-k or range query at its current position, then receives
**incremental result deltas** — not full result lists — whenever

* the client moves (:meth:`ContinuousQueryHub.move`), or
* the database applies a mutation — an obstacle inserted into or
  deleted from any obstacle set, an entity inserted into or deleted
  from the subscription's own entity set: the hub takes one
  subscription to the database's mutation feed and re-evaluates
  exactly the subscriptions whose current result could change;
* the database adds an obstacle set, which the same feed announces:
  every subscription is re-evaluated (a new entity set, announced
  too, changes none).

Re-evaluation runs through the database's shared runtime context, so
it is driven by the repair-first cache: a mutation patches the cached
graphs once (the feed announces it after that pass), and every
affected subscription's refresh is served from the patched graphs
instead of cold rebuilds, while *unaffected* subscriptions are
filtered out geometrically and do no work at all.
The filter is sound by the disk argument used throughout the runtime:
any obstructed path of length ``d`` from position ``q`` stays inside
the disk of radius ``d`` around ``q``, so an obstacle that stays
outside the subscription's result disk (kth distance for nearest-k,
``e`` for range) cannot change which entities are reachable within it,
and an entity outside it is farther than every entity in the result.
A nearest-k subscription with fewer than ``k`` reachable entities has
an unbounded result disk and always refreshes.  A write made at an
index or a tree, behind the database's back, is not announced: its
subscriptions wait for :meth:`~ContinuousQueryHub.refresh` or the
client's next move.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.persist.journal import MutationRecord


@dataclass(frozen=True)
class ResultDelta:
    """The incremental change between two published result states.

    ``added``/``removed`` are ``(entity, distance)`` pairs entering or
    leaving the result; ``changed`` are entities that stay in the
    result at a different obstructed distance (reported with the new
    distance).  Empty deltas (``bool(delta) is False``) mean the
    published state is already current.
    """

    added: tuple[tuple[Point, float], ...]
    removed: tuple[tuple[Point, float], ...]
    changed: tuple[tuple[Point, float], ...]

    def __bool__(self) -> bool:
        return bool(self.added or self.removed or self.changed)


@dataclass
class Subscription:
    """One standing continuous query registered with the hub."""

    sid: int
    kind: str  # "nearest" | "range"
    set_name: str
    position: Point
    k: int = 0
    e: float = 0.0
    #: The result the client last saw (via :meth:`ContinuousQueryHub.poll`).
    published: list[tuple[Point, float]] = field(default_factory=list)
    #: The result at the current position/obstacle state.
    current: list[tuple[Point, float]] = field(default_factory=list)
    #: Full query evaluations performed for this subscription — the
    #: number the mutation filter keeps small.
    reevaluations: int = 0
    active: bool = True

    def result_radius(self) -> float:
        """Radius of the disk that bounds this subscription's result.

        Obstacles farther from the position cannot affect the result;
        ``inf`` when the result is unbounded (nearest-k holding fewer
        than ``k`` entities, i.e. some entities are unreachable).
        """
        if self.kind == "range":
            return self.e
        if len(self.current) < self.k:
            return math.inf
        return self.current[-1][1]


class ContinuousQueryHub:
    """Registry and delta engine for continuous queries over one database.

    Register with :meth:`nearest` / :meth:`range`, drive with
    :meth:`move`, consume with :meth:`poll`; mutations applied by the
    database refresh affected subscriptions automatically (its feed
    announces a record after the graph cache has repaired from it, so
    a refresh lands on already-patched graphs).
    """

    def __init__(self, db) -> None:
        self._db = db
        self._subs: dict[int, Subscription] = {}
        self._ids = itertools.count()
        # One subscription for the database's lifetime, held weakly.
        db._feed.subscribe(self._on_record)

    # -------------------------------------------------------- registration
    def nearest(
        self, set_name: str, position: Point, k: int = 1
    ) -> Subscription:
        """Register a continuous nearest-``k`` query at ``position``.

        The initial result is computed immediately and is pending for
        the first :meth:`poll` (published as all-``added``).
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        sub = Subscription(
            sid=next(self._ids),
            kind="nearest",
            set_name=set_name,
            position=position,
            k=k,
        )
        self._refresh(sub)  # an unknown set raises before registering
        self._subs[sub.sid] = sub
        return sub

    def range(self, set_name: str, position: Point, e: float) -> Subscription:
        """Register a continuous range query of radius ``e``."""
        if e < 0:
            raise QueryError(f"range radius must be >= 0, got {e}")
        sub = Subscription(
            sid=next(self._ids),
            kind="range",
            set_name=set_name,
            position=position,
            e=e,
        )
        self._refresh(sub)
        self._subs[sub.sid] = sub
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Deactivate one subscription (idempotent)."""
        sub.active = False
        self._subs.pop(sub.sid, None)

    # ------------------------------------------------------------- driving
    def move(self, sub: Subscription, position: Point) -> ResultDelta:
        """Move one client and return the delta against its published
        state (the published state advances, as with :meth:`poll`)."""
        self._require_active(sub)
        sub.position = position
        self._refresh(sub)
        return self.poll(sub)

    def poll(self, sub: Subscription) -> ResultDelta:
        """The delta between the client's published and current result;
        publishes the current result."""
        self._require_active(sub)
        delta = _diff(sub.published, sub.current)
        sub.published = list(sub.current)
        return delta

    def refresh(self, sub: Subscription) -> None:
        """Force one full re-evaluation."""
        self._require_active(sub)
        self._refresh(sub)

    # ----------------------------------------------------------- internals
    def _require_active(self, sub: Subscription) -> None:
        if not sub.active or self._subs.get(sub.sid) is not sub:
            raise QueryError(f"subscription {sub.sid} is not active")

    def _refresh(self, sub: Subscription) -> None:
        if sub.kind == "nearest":
            sub.current = list(
                self._db.nearest(sub.set_name, sub.position, sub.k)
            )
        else:
            sub.current = list(
                self._db.range(sub.set_name, sub.position, sub.e)
            )
        sub.reevaluations += 1

    def _on_record(self, record: MutationRecord | None, detail: int | str) -> None:
        """Refresh the subscriptions whose result disk the applied
        mutation reaches: any subscription for an obstacle, those on
        the record's own entity set for an entity.  A new dataset comes
        as ``record=None`` with its scope in ``detail``: a new obstacle
        set may reach anywhere, so every subscription is refreshed; a
        new entity set is named by no subscription (each names a set
        that existed when it registered), so none is."""
        if record is None:
            if detail == "obstacle":
                for sub in list(self._subs.values()):
                    self._refresh(sub)
            return
        if record.scope == "obstacle":
            reach = Rect.from_points(record.vertices).mindist_point
        else:
            reach = record.point.distance
        for sub in list(self._subs.values()):
            if record.scope == "entity" and sub.set_name != record.set_name:
                continue
            radius = sub.result_radius()
            if math.isinf(radius) or reach(sub.position) <= radius:
                self._refresh(sub)

    def __len__(self) -> int:
        return len(self._subs)

    def __repr__(self) -> str:
        return f"ContinuousQueryHub(subscriptions={len(self._subs)})"


def _diff(
    published: list[tuple[Point, float]], current: list[tuple[Point, float]]
) -> ResultDelta:
    """Set-diff two result lists into a :class:`ResultDelta`."""
    old = dict(published)
    new = dict(current)
    added = tuple((p, d) for p, d in current if p not in old)
    removed = tuple((p, d) for p, d in published if p not in new)
    changed = tuple(
        (p, d) for p, d in current if p in old and old[p] != d
    )
    return ResultDelta(added=added, removed=removed, changed=changed)
