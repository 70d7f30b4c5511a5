"""One cache-coherence property over every kind of obstacle source.

A cached graph is current exactly while its source's
``version_for(entry.center, entry.covered)`` is unchanged.  Whatever
happens to the source — routed inserts and deletes (repaired in
place), direct tree edits behind the runtime's back,
coverage growth, a snap retune, a save and load — two things must hold:

* every entry ``cache.get`` serves holds exactly the obstacles
  ``source.obstacles_in_range(entry.center, entry.covered)`` returns;
* ``distance`` equals a cold database's over the same obstacles.

The sources are monolithic and composites of two and of three obstacle
sets.  Obstacles live in the slots of a 10 x 10 lattice of 10-unit cells (at
most one per slot, so they never touch) and queries on the streets
between them; sizes and positions
are generic floats drawn from a seed.  Both checks are steps of the
interleaving, not run after every step: direct edits to two obstacle
sets must be caught even when their version changes cancel out.  Only
a balanced drift within *one* tree is invisible to its version (see
:class:`~repro.core.source.ObstacleIndex`), so a second direct edit
of a tree first validates every entry.
"""

from __future__ import annotations

import random
import tempfile
from math import inf
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ObstacleDatabase, Point, Rect
from repro.core.source import CompositeObstacleIndex
from repro.geometry import Polygon
from repro.model import Obstacle

#: Each kind of source and its number of obstacle sets.
SOURCES = {"composite": 2, "monolithic": 1, "three-sets": 3}
SETS = ("obstacles", "second", "third")
SLOTS = [(i, j) for i in range(10) for j in range(10)]
OPS = (
    "query", "check", "insert", "delete", "direct-insert", "direct-delete",
    "grow", "retune", "save-load",
)
TREE = {"max_entries": 8, "min_entries": 3}


def _slot_rect(slot: tuple[int, int], rng: random.Random) -> Rect:
    x, y = 10 * slot[0], 10 * slot[1]
    return Rect(
        x + 2 + rng.uniform(0, 1.5), y + 2 + rng.uniform(0, 1.5),
        x + 8 - rng.uniform(0, 1.5), y + 8 - rng.uniform(0, 1.5),
    )


def _street_point(rng: random.Random) -> Point:
    along, across = rng.uniform(0, 100), 10 * rng.randrange(11) + rng.uniform(-1.5, 1.5)
    return Point(along, across) if rng.random() < 0.5 else Point(across, along)


class _Scene:
    """The database under test plus the model of what it holds:
    ``live`` maps each obstacle id to its set and slot."""

    def __init__(self, kind: str, rng: random.Random) -> None:
        self.rng = rng
        self.sets = SETS[: SOURCES[kind]]
        self.rects: dict[tuple[int, int], Rect] = {}
        self.live: dict[int, tuple[str, tuple[int, int]]] = {}
        self.next_direct = 10_000
        #: The set of each tree edited directly since every entry was
        #: last validated.
        self.drifted: set[str] = set()
        seeds = rng.sample(SLOTS, rng.randint(4, 16))
        rects = {slot: _slot_rect(slot, rng) for slot in seeds}
        sets = {slot: self.sets[sum(slot) % len(self.sets)] for slot in seeds}
        first = [slot for slot in seeds if sets[slot] == SETS[0]]
        self.db = ObstacleDatabase(
            [rects[slot] for slot in first], **TREE
        )
        self.live.update({oid: (SETS[0], slot) for oid, slot in enumerate(first)})
        for name in self.sets[1:]:
            members = [slot for slot in seeds if sets[slot] == name]
            self.db.add_obstacle_set(name, [rects[slot] for slot in members])
            base = len(self.live)
            self.live.update(
                {base + k: (name, slot) for k, slot in enumerate(members)}
            )
        self.rects.update(rects)

    # ------------------------------------------------------------- model
    def member(self, set_name: str):
        source = self.db.obstacle_index
        if isinstance(source, CompositeObstacleIndex):
            return source.indexes[SETS.index(set_name)]
        return source

    def free_slot(self) -> tuple[int, int] | None:
        taken = {slot for __, slot in self.live.values()}
        free = [slot for slot in SLOTS if slot not in taken]
        return self.rng.choice(free) if free else None

    def pick_set(self) -> str:
        return self.rng.choice(self.sets) if len(self.sets) > 1 else SETS[0]

    # --------------------------------------------------------------- ops
    def apply(self, op: str) -> None:
        getattr(self, "_" + op.replace("-", "_"))()

    def _query(self) -> None:
        p, q = _street_point(self.rng), _street_point(self.rng)
        cold = ObstacleDatabase(
            [self.rects[slot] for __, slot in self.live.values()], **TREE
        )
        assert self.db.obstructed_distance(p, q) == pytest.approx(
            cold.obstructed_distance(p, q), rel=1e-12, abs=1e-12
        ), (p, q)

    def _insert(self) -> None:
        slot = self.free_slot()
        if slot is None:
            return
        set_name = self.pick_set()
        self.rects[slot] = _slot_rect(slot, self.rng)
        stored = self.db.insert_obstacle(self.rects[slot], set_name=set_name)
        self.live[stored.oid] = (set_name, slot)
        self.drifted.clear()  # the repair pass validated every entry

    def _delete(self) -> None:
        if not self.live:
            return
        oid = self.rng.choice(sorted(self.live))
        set_name, __ = self.live.pop(oid)
        assert self.db.delete_obstacle(oid, set_name=set_name)
        self.drifted.clear()

    def _direct_insert(self) -> None:
        slot = self.free_slot()
        if slot is None:
            return
        set_name = self.pick_set()
        self.rects[slot] = _slot_rect(slot, self.rng)
        obstacle = Obstacle(self.next_direct, Polygon.from_rect(self.rects[slot]))
        self._edit_directly(set_name, obstacle, "insert")
        self.live[obstacle.oid] = (set_name, slot)
        self.next_direct += 1

    def _direct_delete(self) -> None:
        if not self.live:
            return
        oid = self.rng.choice(sorted(self.live))
        set_name, __ = self.live[oid]
        obstacle = self.member(set_name).find(oid)
        self._edit_directly(set_name, obstacle, "delete")
        del self.live[oid]

    def _edit_directly(self, set_name: str, obstacle: Obstacle, op: str) -> bool:
        """Apply ``op`` to the set's tree without the set's mutation feed
        hearing of it."""
        if set_name in self.drifted:
            self._check()
        self.drifted.add(set_name)
        getattr(self.member(set_name).tree, op)(obstacle, obstacle.mbr)

    def _grow(self) -> None:
        entries = self.db.context.cache.entries()
        if entries:
            entry = self.rng.choice(entries)
            self.db.context.ensure_coverage(entry, entry.covered + self.rng.uniform(5, 40))

    def _retune(self) -> None:
        self.db.context.cache.configure(snap=self.rng.choice([0.0, 2.0, 7.5]))

    def _save_load(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "db.snap"
            self.db.save(path)
            self.db = ObstacleDatabase.load(path)

    def _check(self) -> None:
        context = self.db.context
        source = context.source
        for entry in context.cache.entries():
            served = context.cache.get(entry.center, context.version_for)
            if served is None:
                continue
            want = {
                o.oid for o in source.obstacles_in_range(served.center, served.covered)
            }
            assert served.graph.obstacle_ids() == want, (served, want)
        self.drifted.clear()


@pytest.mark.parametrize("kind", SOURCES)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=14),
)
def test_served_graphs_match_the_source_and_answers_a_cold_database(kind, seed, ops):
    scene = _Scene(kind, random.Random(seed))
    scene.apply("query")
    for op in ops:
        scene.apply(op)
    scene.apply("check")
    scene.apply("query")
    # The model and the source agree on what is stored.
    stored = {o.oid for o in scene.db.obstacle_index.obstacles_in_range(Point(0, 0), inf)}
    assert stored == set(scene.live)
