"""Deterministic snapshot producer for the cross-process tests.

Builds a fixed, seeded database, warms its cache, and saves it — run
as ``python -m tests.persist.producer OUT.snap`` from the repo root
(the consumer tests run it in a child interpreter and load the file
themselves).  :func:`build_db` is also imported
by the consumer tests to recreate the identical database in-process
and compare answers, which is sound because the construction is fully
deterministic (seeded RNG, no hash-salted types in any ordering).
"""

from __future__ import annotations

import random
import sys

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point

from tests.conftest import random_disjoint_rects, random_free_points

SEED = 20040314
SNAP = 2.0
SET_NAME = "P"


def probe_points() -> list[Point]:
    """The fixed probe/warm-up query positions."""
    rng = random.Random(SEED + 1)
    obstacles = random_disjoint_rects(random.Random(SEED), 20)
    return random_free_points(rng, 6, obstacles)


def build_db(composite: bool = True, snap: float = SNAP) -> ObstacleDatabase:
    """The canonical deterministic database, cache warmed (by default
    two obstacle sets, every second obstacle in ``"walls"``, with
    spatial keys; ``False, 0.0`` is its one-set exact-key twin)."""
    rng = random.Random(SEED)
    obstacles = random_disjoint_rects(rng, 20)
    entities = random_free_points(random.Random(SEED + 2), 30, obstacles)
    polygons = [o.polygon for o in obstacles]
    db = ObstacleDatabase(
        polygons[::2] if composite else polygons,
        graph_cache_snap=snap,
        max_entries=16,
        min_entries=4,
    )
    if composite:
        db.add_obstacle_set("walls", polygons[1::2])
    db.add_entity_set(SET_NAME, entities)
    for q in probe_points():
        db.nearest(SET_NAME, q, 3)
        db.range(SET_NAME, q, 20.0)
    return db


def expected_answers(db: ObstacleDatabase) -> list[object]:
    """The probe workload's answers on ``db``."""
    answers: list[object] = []
    for q in probe_points():
        answers.append(db.nearest(SET_NAME, q, 3))
        answers.append(db.range(SET_NAME, q, 20.0))
    return answers


def main(argv: list[str]) -> int:
    """Build the canonical database and save it to ``argv[0]``."""
    if len(argv) != 1:
        print("usage: python -m tests.persist.producer OUT.snap")
        return 2
    db = build_db()
    db.save(argv[0])
    print(
        f"wrote {argv[0]}: {len(db.context.cache)} cached graph(s), "
        f"{db.runtime_stats()['graph_builds']} build(s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
