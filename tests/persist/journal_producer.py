"""Deterministic journal producer for the crash-recovery tests.

Builds a fixed, seeded *durable* database, anchors a base snapshot,
then applies an endless deterministic mutation stream — run as
``python -m tests.persist.journal_producer BASE.snap DB.journal
COMPACT_BYTES`` from the repo root (the last argument is the
auto-compaction floor the producer runs with).  The consumer test SIGKILLs it mid-stream and recovers
with ``ObstacleDatabase.load(BASE, durable=JOURNAL)``; because the
stream is fully deterministic, the recovered database must equal an
in-process twin that applied exactly the first *n* mutations, where
*n* is whatever record count survived in the journal.

One mutation == one journal record, so the twin knows precisely which
prefix to replay.
"""

from __future__ import annotations

import random
import sys
from typing import Iterator

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.persist import journal as journal_module

from tests.conftest import random_disjoint_rects, random_free_points

SEED = 20040920
SET_NAME = "P"

#: A mutation is ``(kind, payload)``; :func:`apply_mutation` turns it
#: into exactly one journaled database call.
Mutation = tuple


def build_db(journal_path=None) -> ObstacleDatabase:
    """The canonical deterministic database (durable when a journal
    path is given)."""
    rng = random.Random(SEED)
    obstacles = random_disjoint_rects(rng, 14)
    entities = random_free_points(random.Random(SEED + 1), 20, obstacles)
    db = ObstacleDatabase(
        [o.polygon for o in obstacles],
        max_entries=16,
        min_entries=4,
        durable=journal_path,
    )
    db.add_entity_set(SET_NAME, entities)
    return db


def probe_points() -> list[Point]:
    rng = random.Random(SEED + 2)
    obstacles = random_disjoint_rects(random.Random(SEED), 14)
    return random_free_points(rng, 5, obstacles)


def expected_answers(db: ObstacleDatabase) -> list[object]:
    answers: list[object] = []
    for q in probe_points():
        answers.append(db.nearest(SET_NAME, q, 3))
        answers.append(db.range(SET_NAME, q, 18.0))
    return answers


def mutation_stream() -> Iterator[Mutation]:
    """An endless deterministic mix of all four mutation kinds.

    Self-contained bookkeeping (points inserted so far, live obstacle
    ids in insertion order) keeps deletes aimed at things that exist,
    so every mutation journals exactly one record and the stream
    replays identically on any database built by :func:`build_db`.
    """
    rng = random.Random(SEED + 3)
    inserted_points: list[Point] = []
    # Obstacles are deleted by insertion order, not oid: the database
    # assigns ids, and both the producer and the twin see the same
    # sequence, so positions are portable where raw ids need not be.
    live_obstacles = 0
    deleted_obstacles = 0
    while True:
        roll = rng.random()
        if roll < 0.55 or not inserted_points:
            p = Point(rng.uniform(90.0, 120.0), rng.uniform(90.0, 120.0))
            inserted_points.append(p)
            yield ("entity-insert", p)
        elif roll < 0.75:
            yield ("entity-delete", inserted_points.pop(0))
        elif roll < 0.92 or not live_obstacles:
            x = rng.uniform(90.0, 118.0)
            y = rng.uniform(90.0, 118.0)
            live_obstacles += 1
            yield ("obstacle-insert", Rect(x, y, x + 1.5, y + 1.5))
        else:
            live_obstacles -= 1
            yield ("obstacle-delete", deleted_obstacles)
            deleted_obstacles += 1


def apply_mutation(
    db: ObstacleDatabase, mutation: Mutation, obstacle_log: list
) -> None:
    """Apply one stream element; ``obstacle_log`` records inserted
    obstacles so positional deletes resolve to the same obstacle on
    every replica."""
    kind, payload = mutation
    if kind == "entity-insert":
        db.insert_entity(SET_NAME, payload)
    elif kind == "entity-delete":
        db.delete_entity(SET_NAME, payload)
    elif kind == "obstacle-insert":
        obstacle_log.append(db.insert_obstacle(payload))
    else:
        db.delete_obstacle(obstacle_log[payload])


def replay_prefix(db: ObstacleDatabase, count: int) -> None:
    """Apply the first ``count`` stream mutations to ``db``."""
    obstacle_log: list = []
    stream = mutation_stream()
    for __ in range(count):
        apply_mutation(db, next(stream), obstacle_log)


def main(argv: list[str]) -> int:
    """Build the durable database, anchor the base, mutate forever."""
    if len(argv) != 3:
        print(
            "usage: python -m tests.persist.journal_producer "
            "BASE.snap DB.journal COMPACT_BYTES"
        )
        return 2
    base, journal, compact_bytes = argv
    journal_module.COMPACT_BYTES = int(compact_bytes)
    db = build_db(journal)
    db.save(base)
    obstacle_log: list = []
    for mutation in mutation_stream():
        apply_mutation(db, mutation, obstacle_log)
    return 0  # pragma: no cover - the stream never ends


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
