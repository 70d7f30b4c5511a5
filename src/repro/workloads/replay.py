"""Trace replay: drive an :class:`ObstacleDatabase` with a recorded
event stream.

The replay loop is the single execution path shared by the
``repro-workloads`` CLI, the adaptive-policy benchmark, and the
moving-query benches: one event in, one answer out, with the
runtime-stats counters snapshotted at the end.  Because every query
event is answered through the public engine API, replaying one trace
on two databases (different snap quanta, different cache policies)
and comparing the answer streams is a *bit-identical* equivalence
check — the same guarantee the snapped-key parity tests rely on.

The scene is reconstructed from the trace's recipe via
:func:`scene_for`; the synthetic generators are deterministic, so the
recipe pins the exact obstacle and entity geometry without shipping
it in the trace file.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.engine import ObstacleDatabase
from repro.datasets.synthetic import (
    entities_following_obstacles,
    street_grid_obstacles,
)
from repro.errors import DatasetError
from repro.obs.timing import Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model import Obstacle
    from repro.geometry.point import Point
    from repro.workloads.trace import Trace, WorkloadEvent


@lru_cache(maxsize=8)
def scene_for(
    n_obstacles: int, scene_seed: int, n_entities: int
) -> tuple[list["Obstacle"], list["Point"]]:
    """The deterministic (obstacles, entities) scene of a trace recipe.

    Same street-grid recipe as the bench workloads: entities hug
    obstacle boundaries, which is what makes obstructed distances
    diverge from Euclidean ones.
    """
    obstacles = street_grid_obstacles(n_obstacles, seed=scene_seed)
    entities = entities_following_obstacles(
        n_entities,
        obstacles,
        seed=scene_seed * 10_007 + 31,
        on_boundary_fraction=0.5,
        offset_fraction=0.15,
    )
    return obstacles, entities


def database_for_trace(
    trace: "Trace",
    *,
    graph_cache_snap: float = 0.0,
    cache_policy=None,
    graph_cache_size: int = 64,
    max_entries: int = 64,
    durable=None,
) -> ObstacleDatabase:
    """A fully indexed database over the trace's scene.

    The cache knobs are parameters (not trace content) on purpose: one
    trace is replayed under several configurations and the answer
    streams must agree bitwise.  ``durable`` attaches a write-ahead
    mutation journal (the durability benchmark replays one trace
    journaled and one not).
    """
    obstacles, entities = scene_for(
        trace.n_obstacles, trace.scene_seed, trace.n_entities
    )
    db = ObstacleDatabase(
        obstacles,
        max_entries=max_entries,
        min_entries=max(2, int(max_entries * 0.4)),
        graph_cache_snap=graph_cache_snap,
        graph_cache_size=graph_cache_size,
        cache_policy=cache_policy,
        durable=durable,
    )
    db.add_entity_set(trace.set_name, entities)
    return db


def replay_events(
    db: ObstacleDatabase,
    events: list["WorkloadEvent"],
    *,
    set_name: str = "P1",
    reset: bool = True,
    clear_buffers: bool = True,
) -> tuple[list, dict[str, float]]:
    """Replay an event stream; returns ``(answers, metrics)``.

    ``answers`` has one element per event, index-aligned with
    ``events``: the result list for ``nearest`` / ``range``, the float
    for ``distance``, and ``None`` for mutations — so two replays are
    answer-equivalent iff the lists compare equal.  The timer covers
    exactly the engine calls (query *and* mutation), not the
    replay bookkeeping; ``reset=False`` keeps previously accumulated
    counters, ``clear_buffers=False`` keeps the warm caches (the
    warm-start benchmark leg).
    """
    if reset:
        db.reset_stats(clear_buffers=clear_buffers)
    inserted: dict[int, "Obstacle"] = {}
    timer = Timer()
    answers: list = []
    for ev in events:
        if ev.kind == "nearest":
            with timer:
                answers.append(db.nearest(set_name, ev.center, ev.k))
        elif ev.kind == "range":
            with timer:
                answers.append(db.range(set_name, ev.center, ev.e))
        elif ev.kind == "distance":
            with timer:
                answers.append(db.obstructed_distance(ev.source, ev.center))
        elif ev.kind == "insert":
            if ev.tag in inserted:
                raise DatasetError(
                    f"workload replay: duplicate insert tag {ev.tag}"
                )
            with timer:
                inserted[ev.tag] = db.insert_obstacle(ev.rect)
            answers.append(None)
        elif ev.kind == "delete":
            record = inserted.pop(ev.tag, None)
            if record is None:
                raise DatasetError(
                    f"workload replay: delete of unknown tag {ev.tag}"
                )
            with timer:
                db.delete_obstacle(record)
            answers.append(None)
        else:  # unreachable through the trace codec
            raise DatasetError(
                f"workload replay: unknown event kind {ev.kind!r}"
            )
    stats = db.runtime_stats()
    n = max(1, len(events))
    hits = float(stats["graph_cache_hits"])
    misses = float(stats["graph_cache_misses"])
    return answers, {
        "events": float(len(events)),
        "wall_ms_total": timer.elapsed_ms,
        "wall_ms": timer.elapsed_ms / n,
        "graph_builds": float(stats["graph_builds"]),
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": hits / max(1.0, hits + misses),
        "promotions": float(stats["graph_cache_promotions"]),
        "policy_adjustments": float(stats["policy_adjustments"]),
    }


def replay_trace(
    trace: "Trace",
    *,
    graph_cache_snap: float = 0.0,
    cache_policy=None,
    graph_cache_size: int = 64,
) -> tuple[list, dict[str, float]]:
    """Build the trace's database and replay its events."""
    db = database_for_trace(
        trace,
        graph_cache_snap=graph_cache_snap,
        cache_policy=cache_policy,
        graph_cache_size=graph_cache_size,
    )
    try:
        return replay_events(db, trace.events, set_name=trace.set_name)
    finally:
        db.close()
