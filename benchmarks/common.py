"""Shared benchmark infrastructure.

The paper's setup (Sec. 7): |O| = 131,461 LA street MBRs, synthetic
entity sets with |P| from 0.01|O| to 10|O| following the obstacle
distribution, workloads of 200 queries, R*-trees with 4 KB pages and
LRU buffers of 10 % per tree.

Scaled-down defaults keep the pure-Python benches tractable; the
scaling preserves the paper's *regimes*:

* ``REPRO_BENCH_O`` (default 2,000) — obstacle cardinality.  Query
  ranges given as a fraction of the universe side are multiplied by
  ``sqrt(131461 / |O|)`` so the expected number of obstacles/entities
  per query disk matches the paper's.
* ``REPRO_BENCH_QUERIES`` (default 8) — queries per workload (the paper
  uses 200; the shapes stabilise far earlier).
* ``REPRO_BENCH_PAGE_ENTRIES`` (default 64) — R-tree fanout.  The
  paper's 204-entry nodes would make a 2,000-object tree two levels
  deep everywhere; 64 restores the multi-level structure that makes
  page-access curves meaningful at small scale.

Every metric dict produced here uses the same keys, so the pytest
benches and the standalone ``run_all.py`` share one code path.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

from repro.core.engine import ObstacleDatabase
from repro.datasets.synthetic import (
    DEFAULT_UNIVERSE,
    Workload,
    entities_following_obstacles,
    query_points,
    street_grid_obstacles,
)
from repro.geometry.point import Point
from repro.obs.timing import Timer
from repro.workloads.replay import database_for_trace, replay_events, replay_trace
from repro.workloads.trace import WorkloadEvent

#: The paper's obstacle cardinality (LA streets).
PAPER_OBSTACLES = 131_461

BENCH_O = int(os.environ.get("REPRO_BENCH_O", "2000"))
BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "8"))
BENCH_PAGE_ENTRIES = int(os.environ.get("REPRO_BENCH_PAGE_ENTRIES", "64"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))

#: The x-axis values of the paper's figures.
CARDINALITY_RATIOS = (0.1, 0.5, 1.0, 2.0, 10.0)
JOIN_RATIOS = (0.01, 0.05, 0.1, 0.5, 1.0)
RANGE_FRACTIONS = (0.0001, 0.0005, 0.001, 0.005, 0.01)
JOIN_RANGE_FRACTIONS = (0.00001, 0.00005, 0.0001, 0.0005, 0.001)
K_VALUES = (1, 4, 16, 64, 256)


def scale_factor() -> float:
    """Range multiplier keeping per-disk object counts at paper levels."""
    return math.sqrt(PAPER_OBSTACLES / BENCH_O)


def scaled_range(fraction: float) -> float:
    """A query range given as a fraction of the universe side, rescaled
    for the reduced obstacle cardinality.

    Per-query disks: the sqrt scaling keeps the expected number of
    obstacles and entities per disk at the paper's levels (both scale
    with cardinality x area).
    """
    side = DEFAULT_UNIVERSE.width
    return fraction * side * scale_factor()


def scaled_join_range(fraction: float) -> float:
    """Join distance rescaled for the reduced cardinalities.

    Join outputs scale with |S| x |T| x e^2; both cardinalities shrink
    by ``PAPER_OBSTACLES / BENCH_O``, so ``e`` must grow *linearly* by
    the same factor to preserve the paper's result sizes (and with
    them the number of obstructed-distance evaluations).
    """
    side = DEFAULT_UNIVERSE.width
    return fraction * side * (PAPER_OBSTACLES / BENCH_O)


@lru_cache(maxsize=4)
def bench_workload(
    n_obstacles: int, entity_spec: tuple[tuple[str, int], ...], n_queries: int
) -> Workload:
    """Deterministic workload, cached across parameterized bench cases."""
    obstacles = street_grid_obstacles(n_obstacles, seed=BENCH_SEED)
    entity_sets = {
        name: entities_following_obstacles(
            count,
            obstacles,
            seed=BENCH_SEED * 10_007 + 31 * i,
            # Paper setup: entities hug obstacle boundaries (may lie on
            # them), which is what makes obstructed >> Euclidean for
            # points on opposite sides of a street.
            on_boundary_fraction=0.5,
            offset_fraction=0.15,
        )
        for i, (name, count) in enumerate(entity_spec)
    }
    queries = query_points(n_queries, obstacles, seed=BENCH_SEED * 7 + 3)
    return Workload(obstacles=obstacles, entity_sets=entity_sets, queries=queries)


@lru_cache(maxsize=4)
def bench_db(
    n_obstacles: int, entity_spec: tuple[tuple[str, int], ...], n_queries: int
) -> tuple[ObstacleDatabase, Workload]:
    """Workload plus a fully indexed ObstacleDatabase."""
    workload = bench_workload(n_obstacles, entity_spec, n_queries)
    db = ObstacleDatabase(
        workload.obstacles,
        max_entries=BENCH_PAGE_ENTRIES,
        min_entries=max(2, int(BENCH_PAGE_ENTRIES * 0.4)),
    )
    for name, points in workload.entity_sets.items():
        db.add_entity_set(name, points)
    return db, workload


def cardinality_spec() -> tuple[tuple[str, int], ...]:
    """Entity sets for the |P|/|O| sweeps (figs. 13, 15a, 16, 18a)."""
    return tuple(
        (f"P{ratio:g}", max(1, int(ratio * BENCH_O)))
        for ratio in CARDINALITY_RATIOS
    )


def join_spec() -> tuple[tuple[str, int], ...]:
    """Entity sets for the join/CP sweeps (figs. 19-22): S at several
    cardinalities plus the fixed T = 0.1|O|."""
    sets = [(f"S{ratio:g}", max(1, int(ratio * BENCH_O))) for ratio in JOIN_RATIOS]
    sets.append(("T", max(1, int(0.1 * BENCH_O))))
    return tuple(sets)


# --------------------------------------------------------------- measurements
def run_or_workload(
    db: ObstacleDatabase,
    workload: Workload,
    set_name: str,
    queries: list[Point],
    e: float,
) -> dict[str, float]:
    """Execute an OR workload; return the paper's fig. 13-15 metrics."""
    points = workload.entity_sets[set_name]
    db.reset_stats(clear_buffers=True)
    timer = Timer()
    results = []
    for q in queries:
        with timer:
            results.append(db.range(set_name, q, e))
    stats = db.stats()
    n = len(queries)
    false_hits = 0
    hits = 0
    for q, res in zip(queries, results):
        candidates = sum(1 for p in points if p.distance(q) <= e)
        false_hits += candidates - len(res)
        hits += len(res)
    return {
        "entity_pa": stats[f"entities:{set_name}"]["misses"] / n,
        "obstacle_pa": stats["obstacles:obstacles"]["misses"] / n,
        "cpu_ms": timer.elapsed_ms / n,
        "false_hit_ratio": false_hits / hits if hits else 0.0,
        "result_size": hits / n,
    }


def run_onn_workload(
    db: ObstacleDatabase,
    workload: Workload,
    set_name: str,
    queries: list[Point],
    k: int,
) -> dict[str, float]:
    """Execute an ONN workload; return the paper's fig. 16-18 metrics."""
    points = workload.entity_sets[set_name]
    db.reset_stats(clear_buffers=True)
    timer = Timer()
    results = []
    for q in queries:
        with timer:
            results.append(db.nearest(set_name, q, k))
    stats = db.stats()
    n = len(queries)
    false_hits = 0
    for q, res in zip(queries, results):
        euclid_knn = set(sorted(points, key=lambda p: p.distance_sq(q))[:k])
        obstructed = {p for p, __ in res}
        false_hits += len(euclid_knn - obstructed)
    return {
        "entity_pa": stats[f"entities:{set_name}"]["misses"] / n,
        "obstacle_pa": stats["obstacles:obstacles"]["misses"] / n,
        "cpu_ms": timer.elapsed_ms / n,
        "false_hit_ratio": false_hits / (k * n),
    }


def run_odj(
    db: ObstacleDatabase,
    s_name: str,
    t_name: str,
    e: float,
    *,
    hilbert: bool = True,
) -> dict[str, float]:
    """Execute one ODJ; return the paper's fig. 19-20 metrics."""
    db.reset_stats(clear_buffers=True)
    timer = Timer()
    with timer:
        result = db.distance_join(s_name, t_name, e, hilbert_order_seeds=hilbert)
    stats = db.stats()
    entity_pa = (
        stats[f"entities:{s_name}"]["misses"] + stats[f"entities:{t_name}"]["misses"]
    )
    return {
        "entity_pa": float(entity_pa),
        "obstacle_pa": float(stats["obstacles:obstacles"]["misses"]),
        "obstacle_reads": float(stats["obstacles:obstacles"]["reads"]),
        "cpu_s": timer.elapsed,
        "result_size": float(len(result)),
    }


def run_ocp(
    db: ObstacleDatabase, s_name: str, t_name: str, k: int
) -> dict[str, float]:
    """Execute one OCP; return the paper's fig. 21-22 metrics."""
    db.reset_stats(clear_buffers=True)
    timer = Timer()
    with timer:
        result = db.closest_pairs(s_name, t_name, k)
    stats = db.stats()
    entity_pa = (
        stats[f"entities:{s_name}"]["misses"] + stats[f"entities:{t_name}"]["misses"]
    )
    return {
        "entity_pa": float(entity_pa),
        "obstacle_pa": float(stats["obstacles:obstacles"]["misses"]),
        "cpu_s": timer.elapsed,
        "result_size": float(len(result)),
    }


def queries_for(cost_class: int) -> int:
    """Workload size per cost class (1 = cheap ... 4 = very expensive).

    Keeps total bench time bounded while leaving the cheap
    configurations statistically meaningful.
    """
    return max(2, BENCH_QUERIES // cost_class)


def run_repeated_distance(
    db: ObstacleDatabase,
    pairs: list[tuple[Point, Point]],
    *,
    persistent: bool = True,
) -> dict[str, float]:
    """Execute a repeated obstructed-distance workload.

    ``persistent=True`` routes every pair through the database's
    shared :class:`~repro.runtime.context.QueryContext` (graphs cached
    across calls); ``persistent=False`` reproduces the seed behaviour
    — a fresh computer, and therefore a fresh visibility graph, per
    call.  The returned ``graph_builds`` counter is the headline
    metric: the cache's whole purpose is to push it far below the
    number of calls.
    """
    from repro.runtime.context import QueryContext

    db.reset_stats(clear_buffers=True)
    timer = Timer()
    if persistent:
        with timer:
            for a, b in pairs:
                db.obstructed_distance(a, b)
        graph_builds = db.runtime_stats()["graph_builds"]
    else:
        builds = 0
        with timer:
            for a, b in pairs:
                context = QueryContext(db.obstacle_index)
                context.distance(a, b)
                builds += context.stats.graph_builds
        graph_builds = builds
    stats = db.stats()
    n = len(pairs)
    return {
        "obstacle_pa": stats["obstacles:obstacles"]["misses"] / n,
        "obstacle_reads": stats["obstacles:obstacles"]["reads"] / n,
        "cpu_ms": timer.elapsed_ms / n,
        "graph_builds": float(graph_builds),
    }


@lru_cache(maxsize=4)
def batch_bench_db(
    n_obstacles: int,
    entity_spec: tuple[tuple[str, int], ...],
    n_queries: int,
    shards: int | None = None,
) -> tuple[ObstacleDatabase, Workload]:
    """Like :func:`bench_db`, with optional sharded obstacle storage.

    Cached separately per ``shards`` value so sharded/monolithic
    comparisons run on the *same* workload object.
    """
    workload = bench_workload(n_obstacles, entity_spec, n_queries)
    db = ObstacleDatabase(
        workload.obstacles,
        max_entries=BENCH_PAGE_ENTRIES,
        min_entries=max(2, int(BENCH_PAGE_ENTRIES * 0.4)),
        shards=shards,
    )
    for name, points in workload.entity_sets.items():
        db.add_entity_set(name, points)
    return db, workload


def run_batch_nearest(
    db: ObstacleDatabase,
    set_name: str,
    queries: list[Point],
    k: int,
    *,
    workers: int = 0,
) -> tuple[list, dict[str, float]]:
    """Execute one ``batch_nearest`` workload; returns (results, metrics).

    ``workers=0`` is the sequential single-context path; ``workers>=2``
    exercises the parallel batch engine.  Metrics report wall-clock and
    the runtime's parallel/memo counters (page accesses are only
    meaningful for the sequential path — fork workers keep theirs).
    """
    db.reset_stats(clear_buffers=True)
    timer = Timer()
    with timer:
        results = db.batch_nearest(set_name, queries, k, workers=workers)
    runtime = db.runtime_stats()
    return results, {
        "cpu_s": timer.elapsed,
        "workers": float(workers),
        "parallel_batches": float(runtime["parallel_batches"]),
        "batch_memo_hits": float(runtime["batch_memo_hits"]),
    }


def parallel_speedup_target(
    workers: int,
    *,
    full: float = 2.0,
    reduced: float = 1.3,
    min_full_cores: int = 4,
) -> float | None:
    """The wall-clock speedup bar a ``workers``-worker pool must clear
    on this machine — or ``None`` when no parallel speedup is
    observable at all (fewer than 2 cores: parity-only runners).

    Every ``>= Nx`` parallel-speedup assertion in the benches and CI
    legs must route through this gate: on 2-3 cores a ``workers``-wide
    pool cannot reach the full bar by arithmetic, so the requirement
    drops to "clearly parallel", and on a single core it vanishes.
    """
    cores = os.cpu_count() or 1
    if cores < 2:
        return None
    return full if cores >= min(workers, min_full_cores) else reduced


# ----------------------------------------------------- moving-query workload
#: Steps of the moving-query benchmark path.
BENCH_MOVING_STEPS = int(os.environ.get("REPRO_BENCH_MOVING_STEPS", "48"))

#: Spatial cache quantum of the moving-query comparison, as a fraction
#: of the universe side.
MOVING_SNAP_FRACTION = 0.004

#: Per-step displacement of the moving query point, as a fraction of
#: the universe side (an order of magnitude below the snap quantum:
#: the near-duplicate-centre regime the spatial key targets).
MOVING_STEP_FRACTION = 0.0004


def moving_snap() -> float:
    """The spatial-key quantum used by the moving-query benches."""
    return DEFAULT_UNIVERSE.width * MOVING_SNAP_FRACTION


def moving_query_path(workload: Workload, n_steps: int) -> list[Point]:
    """A straight free-space trajectory of ``n_steps`` query positions.

    Starting from a workload query point, the path advances by
    ``MOVING_STEP_FRACTION`` of the universe side per step — a
    continuous-query client reporting its position every tick.  The
    anchor and direction are chosen so every position stays outside
    obstacle interiors (street-grid scenes have straight corridors): a
    centre *inside* an obstacle is disconnected from everything, and
    proving those ``inf`` distances would measure full-universe
    retrievals instead of cache behaviour.
    """
    step = DEFAULT_UNIVERSE.width * MOVING_STEP_FRACTION
    obstacles = workload.obstacles
    candidates = [
        [
            Point(q0.x + i * step * dx, q0.y + i * step * dy)
            for i in range(n_steps)
        ]
        for q0 in workload.queries
        for dx, dy in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.6), (-1.0, 0.0))
    ]
    for path in candidates:
        if all(
            not (
                obs.mbr.contains_point(p)
                and obs.polygon.contains_or_boundary(p)
            )
            for p in path
            for obs in obstacles
        ):
            return path
    return candidates[0]  # no fully-free line: degrade gracefully


def moving_query_db(
    n_obstacles: int, snap: float, *, shards: int | None = None
) -> tuple[ObstacleDatabase, Workload]:
    """A database (with the given graph-cache snap quantum) over the
    standard bench workload, plus that workload."""
    workload = bench_workload(n_obstacles, (("P1", n_obstacles),), 8)
    db = ObstacleDatabase(
        workload.obstacles,
        max_entries=BENCH_PAGE_ENTRIES,
        min_entries=max(2, int(BENCH_PAGE_ENTRIES * 0.4)),
        graph_cache_snap=snap,
        shards=shards,
    )
    for name, points in workload.entity_sets.items():
        db.add_entity_set(name, points)
    return db, workload


def run_moving_query(
    db: ObstacleDatabase,
    workload: Workload,
    path: list[Point],
    *,
    set_name: str = "P1",
    n_sources: int = 4,
    cold: bool = True,
) -> tuple[list[list[float]], dict[str, float]]:
    """Execute a moving-query workload; returns (answers, metrics).

    At every path step the obstructed distances from the query's
    ``n_sources`` Euclidean-nearest entities are evaluated — the
    continuous-ONN inner loop.  ``graph_builds`` is the headline
    metric: with exact cache keys every step's centre is new (one full
    build per step); with a spatial key consecutive steps share
    coverage-guarded graphs.  ``cold=False`` keeps the graph cache and
    page buffers (counters are still zeroed) — the warm-start leg of
    the snapshot benchmark, where the cache arrived from disk.

    The execution engine is the shared workload-replay loop
    (:func:`repro.workloads.replay.replay_events`): the trajectory is
    lowered to ``distance`` events, replayed, and regrouped per step.
    """
    entities = workload.entity_sets[set_name]
    events = [
        WorkloadEvent("distance", center=q, source=p)
        for q in path
        for p in sorted(entities, key=q.distance)[:n_sources]
    ]
    flat, metrics = replay_events(
        db, events, set_name=set_name, clear_buffers=cold
    )
    answers = [
        flat[i : i + n_sources] for i in range(0, len(flat), n_sources)
    ]
    return answers, {
        "cpu_ms": metrics["cpu_ms_total"] / len(path),
        "graph_builds": metrics["graph_builds"],
        "cache_hits": metrics["cache_hits"],
        "cache_misses": metrics["cache_misses"],
        "promotions": metrics["promotions"],
    }


def snapshot_warm_comparison(
    n_obstacles: int, steps: int, snapshot_path: str
) -> tuple[bool, dict[str, float]]:
    """Cold-start vs snapshot warm-start on the moving-query workload.

    Runs the trajectory on a cold database (exact cache keys, so every
    step costs one full graph build), snapshots the now-warm database,
    restores it from disk, and replays the identical trajectory on the
    restored runtime.  Returns ``(answers_match, metrics)`` where the
    metrics carry the headline ``builds_cold`` / ``builds_warm`` pair
    (the acceptance bar: warm must build >= 3x fewer full graphs) plus
    snapshot size and save/load wall-clock.
    """
    db, workload = moving_query_db(n_obstacles, 0.0)
    path = moving_query_path(workload, steps)
    cold_answers, cold_metrics = run_moving_query(db, workload, path)
    save_timer = Timer()
    with save_timer:
        db.save(snapshot_path)
    load_timer = Timer()
    with load_timer:
        warm_db = ObstacleDatabase.load(snapshot_path)
    warm_answers, warm_metrics = run_moving_query(
        warm_db, workload, path, cold=False
    )
    builds_cold = cold_metrics["graph_builds"]
    builds_warm = warm_metrics["graph_builds"]
    reduction = builds_cold / builds_warm if builds_warm else float("inf")
    return cold_answers == warm_answers, {
        "builds_cold": builds_cold,
        "builds_warm": builds_warm,
        "build_reduction": reduction,
        "cold_ms": cold_metrics["cpu_ms"],
        "warm_ms": warm_metrics["cpu_ms"],
        "snapshot_bytes": float(os.path.getsize(snapshot_path)),
        "save_s": save_timer.elapsed,
        "load_s": load_timer.elapsed,
    }


# ------------------------------------------------- sustained serving workload
#: Steps (batches) of the sustained-serving benchmark.
BENCH_SERVE_STEPS = int(os.environ.get("REPRO_BENCH_SERVE_STEPS", "12"))

#: Moving clients served per step (one query per client per batch).
BENCH_SERVE_CLIENTS = 4


def serve_bench_db(
    n_obstacles: int, *, snap: float | None = None
) -> tuple[ObstacleDatabase, Workload]:
    """A *fresh* (never cached) database over the standard workload.

    The sustained-serving benches mutate their databases mid-run, so
    sharing the ``lru_cache``-backed :func:`bench_db` instances would
    poison every later bench on the same workload.  The workload object
    itself is still shared — only the indexes are rebuilt.
    """
    workload = bench_workload(n_obstacles, (("P1", n_obstacles),), 8)
    db = ObstacleDatabase(
        workload.obstacles,
        max_entries=BENCH_PAGE_ENTRIES,
        min_entries=max(2, int(BENCH_PAGE_ENTRIES * 0.4)),
        graph_cache_snap=moving_snap() if snap is None else snap,
    )
    for name, points in workload.entity_sets.items():
        db.add_entity_set(name, points)
    return db, workload


def serve_client_paths(
    workload: Workload, n_clients: int, n_steps: int
) -> list[list[Point]]:
    """Free-space trajectories for ``n_clients`` moving clients.

    Each client advances ``MOVING_STEP_FRACTION`` of the universe side
    per step from its own anchor query point — the near-duplicate-
    centre regime where a warm worker's snapped graph cache keeps
    serving without new builds, while a fork-per-batch child (whose
    cache updates die with it) rebuilds every step.  Clients with no
    obstacle-free straight line degrade to a stationary client.
    """
    step = DEFAULT_UNIVERSE.width * MOVING_STEP_FRACTION
    obstacles = workload.obstacles
    paths: list[list[Point]] = []
    for q0 in workload.queries:
        if len(paths) == n_clients:
            break
        for dx, dy in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
            path = [
                Point(q0.x + i * step * dx, q0.y + i * step * dy)
                for i in range(n_steps)
            ]
            if all(
                not (
                    obs.mbr.contains_point(p)
                    and obs.polygon.contains_or_boundary(p)
                )
                for p in path
                for obs in obstacles
            ):
                paths.append(path)
                break
        else:
            paths.append([q0] * n_steps)
    while len(paths) < n_clients:
        paths.append(list(paths[len(paths) % max(1, len(paths))]))
    return paths


def serve_mutation_schedule(
    workload: Workload, n_steps: int, *, period: int = 4
):
    """Per-step mutation actions for the mixed serving load.

    Every ``period`` steps a small free-space rectangle is inserted;
    two steps later it is deleted again, so the scene ends where it
    started and every (insert, delete) pair exercises the pool's
    replayable delta feed plus the cache's repair-first path.  Entries
    are ``("insert", tag, Rect)`` / ``("delete", tag)`` / ``None``.
    """
    from repro.geometry.rect import Rect

    side = DEFAULT_UNIVERSE.width * 0.002
    free_rects = []
    for q in workload.queries:
        r = Rect(q.x - 3 * side, q.y - 3 * side, q.x - 2 * side, q.y - 2 * side)
        if all(not r.intersects(obs.mbr) for obs in workload.obstacles):
            free_rects.append(r)
    schedule: list[tuple | None] = [None] * n_steps
    tag = 0
    for step in range(1, n_steps - 2, period):
        if tag >= len(free_rects):
            break
        schedule[step] = ("insert", tag, free_rects[tag])
        schedule[step + 2] = ("delete", tag)
        tag += 1
    return schedule


def run_sustained_serve(
    db: ObstacleDatabase,
    paths: list[list[Point]],
    schedule,
    *,
    set_name: str = "P1",
    k: int = 2,
    workers: int = 0,
    pool: str | None = None,
) -> tuple[list, dict[str, float]]:
    """Drive a mixed mutate/query/moving-client load; returns
    ``(answers, metrics)``.

    Each step applies that step's mutation (if any) and then serves one
    ``batch_nearest`` holding every client's current position, through
    the engine selected by ``workers``/``pool`` (sequential,
    fork-per-batch, or the persistent pool).  Metrics report sustained
    throughput (``qps``), per-batch latency percentiles from a
    :class:`~repro.serve.stats.LatencyHistogram` (``p50_ms`` /
    ``p99_ms``), and the deterministic ``graph_builds`` /
    ``pool_batches`` counters that explain *why* the engines differ.
    """
    from repro.serve.stats import LatencyHistogram

    db.reset_stats(clear_buffers=True)
    hist = LatencyHistogram()
    records: dict[int, object] = {}
    answers = []
    total = Timer()
    n_steps = len(paths[0])
    for step in range(n_steps):
        action = schedule[step] if step < len(schedule) else None
        if action is not None:
            if action[0] == "insert":
                __, tag, rect = action
                records[tag] = db.insert_obstacle(rect)
            else:
                db.delete_obstacle(records.pop(action[1]))
        batch = [path[step] for path in paths]
        step_timer = Timer()
        with step_timer, total:
            answers.append(
                db.batch_nearest(set_name, batch, k, workers=workers, pool=pool)
            )
        hist.record(step_timer.elapsed)
    runtime = db.runtime_stats()
    n_queries = n_steps * len(paths)
    return answers, {
        "qps": n_queries / total.elapsed if total.elapsed else float("inf"),
        "elapsed_s": total.elapsed,
        "p50_ms": hist.percentile(50) * 1000.0,
        "p99_ms": hist.percentile(99) * 1000.0,
        "graph_builds": float(runtime["graph_builds"]),
        "pool_batches": float(runtime["pool_batches"]),
        "parallel_batches": float(runtime["parallel_batches"]),
    }


def serve_warm_start_builds(
    db: ObstacleDatabase,
    centres: list[Point],
    *,
    set_name: str = "P1",
    k: int = 2,
    workers: int = 4,
) -> float:
    """Graph builds observed while warm workers serve covered centres.

    The parent first answers the batch sequentially (warming its
    snapped graph cache at every centre), counters are zeroed, and the
    persistent pool — whose workers boot from a snapshot *including*
    that warm cache — serves the identical batch.  Workers ship their
    runtime counters back on every reply, so the parent's
    ``graph_builds`` counts worker builds too; the acceptance bar is
    exactly ``0.0``.
    """
    db.batch_nearest(set_name, centres, k)
    db.reset_stats()
    db.batch_nearest(set_name, centres, k, workers=workers, pool="persistent")
    return float(db.runtime_stats()["graph_builds"])


def timed_graph_build(
    n_rects: int, method: str, seed: int = 7
) -> tuple[float, int]:
    """Build the (tangent) visibility graph over a street-grid scene
    with the given visibility backend; returns ``(seconds,
    edge_count)``."""
    from repro.datasets.synthetic import street_grid_obstacles
    from repro.visibility import VisibilityGraph

    obstacles = street_grid_obstacles(n_rects, seed=seed)
    timer = Timer()
    with timer:
        graph = VisibilityGraph.build([], obstacles, method=method)
    return timer.elapsed, graph.edge_count


# --------------------------------------------------------- tracing overhead
def trace_overhead_comparison(
    n_obstacles: int,
    *,
    rounds: int = 5,
    passes: int = 3,
    sample: float = 0.25,
) -> dict[str, float]:
    """Wall-clock cost of the tracing instrumentation on a warm
    nearest-query workload.

    Three timed configurations, best-of-``rounds`` each (minimum, not
    mean — scheduler noise only ever adds time), taken round by round
    — stub, disabled, sampled, then the next round — so a machine that
    changes speed mid-run slows all three alike instead of landing in
    the ratio:

    - ``stub``: the tracer's entry points replaced with bare lambdas,
      the cheapest the call sites can possibly be (the baseline a
      build without instrumentation would approach);
    - ``disabled``: the real tracer at sample rate 0 — the shipped
      default no-op fast path;
    - ``sampled``: sample rate ``sample``, slow log parked far above
      any real latency so the sink never fires.

    Each round replays the moving-query path ``passes`` times against
    the warmed cache, so the tracer call sites dominate proportionally
    to their true per-query density.  Returns the three timings plus
    the derived overhead ratios against the stub baseline.
    """
    import time

    from repro.obs.slowlog import SLOW_LOG
    from repro.obs.trace import NULL_SPAN, TRACER

    db, workload = moving_query_db(n_obstacles, moving_snap())
    probes = moving_query_path(workload, 12)

    def run() -> None:
        for __ in range(passes):
            for q in probes:
                db.nearest("P1", q, 4)

    def timed() -> float:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    run()  # warm-up: graphs built, buffers resident
    prev_rate = TRACER.sample_rate
    prev_threshold = SLOW_LOG.threshold_ms
    t_stub = t_disabled = t_sampled = float("inf")
    try:
        SLOW_LOG.threshold_ms = 1e9
        for __ in range(rounds):
            # Stub baseline: shadow the instance methods with bare no-ops.
            TRACER.span = lambda name, **attrs: NULL_SPAN  # type: ignore[method-assign]
            TRACER.count = lambda name, n=1: None  # type: ignore[method-assign]
            TRACER.tracing = lambda: False  # type: ignore[method-assign]
            TRACER.graft = lambda payload: None  # type: ignore[method-assign]
            try:
                t_stub = min(t_stub, timed())
            finally:
                del TRACER.span, TRACER.count, TRACER.tracing, TRACER.graft
            TRACER.configure(0.0)
            t_disabled = min(t_disabled, timed())
            TRACER.configure(sample)
            t_sampled = min(t_sampled, timed())
    finally:
        TRACER.configure(prev_rate)
        TRACER.last_root = None
        SLOW_LOG.threshold_ms = prev_threshold
        SLOW_LOG.clear()
    return {
        "stub_s": t_stub,
        "disabled_s": t_disabled,
        "sampled_s": t_sampled,
        "sample_rate": sample,
        "queries_per_round": float(passes * len(probes)),
        "disabled_overhead": t_disabled / t_stub - 1.0,
        "sampled_overhead": t_sampled / t_stub - 1.0,
    }


def kernel_comparison(n_rects: int) -> dict[str, float]:
    """Visibility-backend comparison on one scene: per-backend build
    times, the numpy kernel's speedup, an edge-parity flag, and the
    kernel's batched-vs-per-source sweep ratio
    (:func:`batched_sweep_comparison`)."""
    results: dict[str, float] = {}
    edges = {}
    for method in ("python-sweep", "numpy-kernel"):
        seconds, edge_count = timed_graph_build(n_rects, method)
        results[f"{method}_s"] = seconds
        edges[method] = edge_count
    results["speedup"] = results["python-sweep_s"] / results["numpy-kernel_s"]
    results["edges"] = float(edges["python-sweep"])
    results["edges_match"] = float(
        edges["python-sweep"] == edges["numpy-kernel"]
    )
    results.update(batched_sweep_comparison(n_rects))
    return results


def tangent_build_match(n_rects: int, *, seed: int = 7) -> float:
    """Whether the numpy kernel's graph over a street-grid scene holds
    exactly the node pairs the scalar reference keeps —
    ``is_visible`` and the tangent rule (``is_tangent_at``), pair by
    pair (``tests/reference_field.py::tangent_edges``) — as 1.0 / 0.0."""
    from repro.datasets.synthetic import street_grid_obstacles
    from repro.visibility import VisibilityGraph
    from tests.reference_field import tangent_edges

    obstacles = street_grid_obstacles(n_rects, seed=seed)
    graph = VisibilityGraph.build([], obstacles, method="numpy-kernel")
    edges = {frozenset((u, v)) for u in graph.nodes() for v in graph.neighbors(u)}
    return float(edges == tangent_edges(graph))


def batched_sweep_comparison(n_rects: int, *, seed: int = 7) -> dict[str, float]:
    """Every node of one street-grid scene swept by the numpy kernel in
    one ``visible_from_many`` call against one ``visible_from`` call
    per node (what a graph build cost before sources were batched):
    best-of-rounds seconds each (nine rounds of milliseconds on small
    scenes, two of seconds on large ones), their ratio, and whether
    the two returned the same lists in the same order."""
    from repro.datasets.synthetic import street_grid_obstacles
    from repro.visibility import VisibilityGraph, resolve_backend

    rounds = 9 if n_rects <= 50 else 2
    obstacles = street_grid_obstacles(n_rects, seed=seed)
    graph = VisibilityGraph.build([], obstacles, method="numpy-kernel")
    backend = resolve_backend("numpy-kernel")
    nodes = list(graph.nodes())
    per_source_s = batched_s = math.inf
    for __ in range(rounds):
        timer = Timer()
        with timer:
            looped = [backend.visible_from(u, graph) for u in nodes]
        per_source_s = min(per_source_s, timer.elapsed)
        timer = Timer()
        with timer:
            batched = backend.visible_from_many(nodes, graph)
        batched_s = min(batched_s, timer.elapsed)
    return {
        "per_source_s": per_source_s,
        "batched_s": batched_s,
        "batch_speedup": per_source_s / batched_s,
        "batch_match": float(batched == looped),
    }


# ------------------------------------------------- Euclidean iterators
#: The cardinalities of the end-to-end benchmark's ``paper-join``
#: workload: |S| = 0.001 |O|, |T| = 0.1 |O| at the paper's |O|.
EUCLIDEAN_BENCH_S = 131
EUCLIDEAN_BENCH_T = 13_146

#: Required speedups of the array-evaluated traversals over the scalar
#: oracle at those cardinalities: the distance join at e = 0.1 % of the
#: universe side, and the first 64 incremental closest pairs.  The
#: join, one array pass over its leaf pairs, measured 13.0-14.4x in
#: five runs on a 2-core x86-64 Linux machine; the closest pairs, which
#: read a node shared by one batch once, 10.4-15.2x.  Each bar is the
#: largest round number 1.5x under its minimum.
EUCLIDEAN_JOIN_SPEEDUP = 8.0
EUCLIDEAN_CLOSEST_SPEEDUP = 6.0
EUCLIDEAN_CLOSEST_K = 64


def euclidean_iterator_comparison() -> dict[str, dict[str, float]]:
    """The R-tree distance join and the incremental closest-pair stream
    as ``src/`` runs them (one numpy pass per node, one queue entry per
    expanded node) against the scalar oracle of
    ``tests/euclidean/reference.py`` (one ``Rect`` call per entry, one
    queue entry per item), on the same two bulk-loaded 204-entry trees
    of uniform points.

    One row per traversal: best-of-three seconds per side, their
    ratio, the required ratio, and ``match`` — the same values in the
    same order.
    """
    import random
    from itertools import islice

    from repro.euclidean import IncrementalClosestPairs, distance_join
    from repro.geometry.rect import Rect
    from repro.index import RStarTree, str_pack
    from tests.euclidean import reference

    rng = random.Random(BENCH_SEED)
    side = DEFAULT_UNIVERSE.width

    def tree(n: int) -> RStarTree:
        pts = [Point(rng.uniform(0, side), rng.uniform(0, side)) for __ in range(n)]
        return str_pack(RStarTree(), [(p, Rect.from_point(p)) for p in pts])

    tree_s, tree_t = tree(EUCLIDEAN_BENCH_S), tree(EUCLIDEAN_BENCH_T)
    e = 0.001 * side
    k = EUCLIDEAN_CLOSEST_K
    sides = {
        "join": (
            lambda: reference.distance_join(tree_s, tree_t, e),
            lambda: distance_join(tree_s, tree_t, e),
            EUCLIDEAN_JOIN_SPEEDUP,
        ),
        "closest": (
            lambda: list(islice(reference.closest_pairs(tree_s, tree_t), k)),
            lambda: list(islice(IncrementalClosestPairs(tree_s, tree_t), k)),
            EUCLIDEAN_CLOSEST_SPEEDUP,
        ),
    }
    rows = {}
    for name, (oracle, array, target) in sides.items():
        oracle_s = array_s = math.inf
        for __ in range(3):
            timer = Timer()
            with timer:
                want = oracle()
            oracle_s = min(oracle_s, timer.elapsed)
            timer = Timer()
            with timer:
                got = array()
            array_s = min(array_s, timer.elapsed)
        rows[name] = {
            "oracle_s": oracle_s,
            "array_s": array_s,
            "speedup": oracle_s / array_s,
            "target": target,
            "results": float(len(got)),
            "match": float(got == want),
        }
    return rows


def field_engine_comparison(
    n_obstacles: int, rounds: int, *, n_queries: int = 4
) -> dict[str, float]:
    """A warm-cache range+nearest stream against one cold round.

    The stream revisits a handful of centres ``rounds`` times — the
    serving steady state the frozen graphs target: after the first
    visit the arrays and the field rooted at the centre are memoized,
    so a repeat visit reduces to one vectorized last leg per
    candidate.  Returns the stream's CPU time and freeze / build
    counts and two exactness flags against a fresh database that
    answers each query once, cold: ``parity`` (every round's answers
    bit-identical to the cold ones) and ``counters_match`` (the
    revisits cost no graph build and no obstacle page read beyond the
    cold round's).
    """
    workload = bench_workload(
        n_obstacles, (("P1", n_obstacles),), n_queries
    )
    e = scaled_range(0.001) * math.sqrt(BENCH_O / n_obstacles)
    one_round = [
        WorkloadEvent(kind, center=q, k=4, e=e)
        for q in workload.queries
        for kind in ("range", "nearest")
    ]
    runs: dict[int, tuple[list, dict[str, float]]] = {}
    for n_rounds in (1, rounds):
        db = ObstacleDatabase(
            workload.obstacles,
            max_entries=BENCH_PAGE_ENTRIES,
            min_entries=max(2, int(BENCH_PAGE_ENTRIES * 0.4)),
        )
        db.add_entity_set("P1", workload.entity_sets["P1"])
        answers, metrics = replay_events(
            db, one_round * n_rounds, set_name="P1"
        )
        runtime = db.runtime_stats()
        pages = db.stats()["obstacles:obstacles"]
        runs[n_rounds] = (
            answers,
            {
                "cpu_s": metrics["cpu_ms_total"] / 1000.0,
                "graph_builds": float(runtime["graph_builds"]),
                "field_freezes": float(runtime["field_freezes"]),
                "obstacle_reads": float(pages["reads"]),
            },
        )
    cold_answers, cold = runs[1]
    warm_answers, warm = runs[rounds]
    return {
        "cpu_s": warm["cpu_s"],
        "cold_round_cpu_s": cold["cpu_s"],
        "queries": float(len(one_round) * rounds),
        "graph_builds": warm["graph_builds"],
        "field_freezes": warm["field_freezes"],
        "parity": float(warm_answers == cold_answers * rounds),
        "counters_match": float(
            warm["graph_builds"] == cold["graph_builds"]
            and warm["obstacle_reads"] == cold["obstacle_reads"]
        ),
    }


#: Source pool of the repeated-source warm stream (the profiles draw a
#: few dozen sources for thousands of fresh goals; 8 for 876 here).
STREAM_SOURCES = 8


def distance_stream_comparison(
    n_obstacles: int,
    n_calls: int = 1000,
    *,
    warm_calls: int = 100,
    sources: int = 0,
) -> dict[str, float]:
    """A warm stream on one hot graph: point-to-point distances with
    an ONN and an OR every 16 ops (the shipped profiles' cadence).

    Every goal and centre is a fresh point jittered (the zipf-hotspot
    profile's radius) around one anchor at the centre of its cache
    cell, so all ops share one cached graph whose coverage the warm-up
    saturates.  So is every distance's source, unless ``sources`` is
    positive: then sources are drawn from a fixed pool of that many
    such points, as the profiles draw them from their entity sets.  An
    op only reads the graph.  A distance from a fresh source sweeps
    both endpoints against the frozen arrays in one backend call and
    searches them; one from a source seen before reads the source's
    memoized field and probes the goal's last leg with the exact
    oracle, sweeping nothing unless the probe gives up.  Returns the
    CPU time, ``parity`` (the answers bit-identical to a cold
    exact-key database's, which builds a graph of its own per centre)
    and the counts over the timed ops: ``field_freezes``,
    ``node_growth`` of the hot graph, ``backend_calls`` (at most one
    per distance; per ONN / OR one for the centre — its candidates'
    last legs are probed — and one per candidate whose probe gave up)
    and ``last_leg_fallbacks`` (probes that gave up, of a distance's
    goal or of a field's candidate).
    """
    import random

    from repro.workloads.profiles import (
        HOTSPOT_JITTER_FRACTION,
        _free_jitter,
        _is_free,
    )

    workload = bench_workload(n_obstacles, (("P1", n_obstacles),), 4)
    obstacles = workload.obstacles
    jitter = HOTSPOT_JITTER_FRACTION * DEFAULT_UNIVERSE.width
    snap = 4.0 * jitter
    rng = random.Random(BENCH_SEED)
    cells = (
        Point(round(q.x / snap) * snap, round(q.y / snap) * snap)
        for q in workload.queries
    )
    anchor = next(cell for cell in cells if _is_free(cell, obstacles))

    def fresh() -> Point:
        return _free_jitter(rng, anchor, jitter, obstacles, DEFAULT_UNIVERSE)

    pool = [fresh() for __ in range(sources)]
    events = []
    for i in range(warm_calls + n_calls):
        kind = {14: "nearest", 15: "range"}.get(i % 16, "distance")
        events.append(
            WorkloadEvent(
                kind,
                center=fresh(),
                source=rng.choice(pool) if pool else fresh(),
                k=2,
                e=jitter,
            )
        )

    def database(graph_cache_snap: float) -> ObstacleDatabase:
        db = ObstacleDatabase(
            obstacles,
            max_entries=BENCH_PAGE_ENTRIES,
            min_entries=max(2, int(BENCH_PAGE_ENTRIES * 0.4)),
            graph_cache_snap=graph_cache_snap,
            cache_policy="static",
        )
        db.add_entity_set("P1", workload.entity_sets["P1"])
        return db

    db = database(snap)
    context = db.context
    entry = context.entry_for(anchor, 6.0 * jitter)
    replay_events(db, events[:warm_calls], set_name="P1", reset=False)
    backend = context.backend
    sweep = backend.visible_ids
    calls = [0]

    def counted(scenes):
        calls[0] += 1
        return sweep(scenes)

    backend.visible_ids = counted
    nodes = entry.graph.node_count
    freezes = context.stats.field_freezes
    fallbacks = context.stats.last_leg_fallbacks
    timed = events[warm_calls:]
    answers, metrics = replay_events(db, timed, set_name="P1", reset=False)
    reference, __ = replay_events(database(0.0), timed, set_name="P1")
    return {
        "cpu_s": metrics["cpu_ms_total"] / 1000.0,
        "calls": float(n_calls),
        "field_ops": float(sum(ev.kind != "distance" for ev in timed)),
        "graph_nodes": float(nodes),
        "graphs": float(len(context.cache)),
        "parity": float(answers == reference),
        "field_freezes": float(context.stats.field_freezes - freezes),
        "node_growth": float(entry.graph.node_count - nodes),
        "backend_calls": float(calls[0]),
        "last_leg_fallbacks": float(context.stats.last_leg_fallbacks - fallbacks),
    }


# ---------------------------------------------------- adaptive cache policy
#: Profiles of the adaptive-policy comparison, in reporting order.
POLICY_PROFILES = (
    "uniform",
    "zipf-hotspot",
    "commuter",
    "flash-crowd",
    "churn-heavy",
)

#: A profile is a *win* when adaptive beats the best static config by
#: this factor on graph builds or hit rate...
POLICY_WIN_RATIO = 1.3
#: ...and a *loss* when adaptive needs more than this multiple of the
#: best static config's graph builds.
POLICY_LOSS_TOLERANCE = 1.05

#: Scene size of the policy comparison (kept below the other benches:
#: fifteen hundred replayed events dominate, not the scene).
POLICY_BENCH_OBSTACLES = 120
POLICY_BENCH_ENTITIES = 120

#: Events per profile trace; 0 keeps each profile's own default count
#: (the committed-baseline configuration).
BENCH_POLICY_EVENTS = int(os.environ.get("REPRO_BENCH_POLICY_EVENTS", "0"))


def adaptive_policy_comparison(
    n_obstacles: int = POLICY_BENCH_OBSTACLES,
    *,
    seed: int = BENCH_SEED,
    n_entities: int = POLICY_BENCH_ENTITIES,
) -> dict[str, object]:
    """Adaptive policy vs the best static knob, per workload profile.

    Every profile trace is replayed three times on identical scenes:
    exact keys (``snap=0``), the hand-tuned moving-query quantum
    (:func:`moving_snap`), and ``cache_policy="adaptive"`` learning
    its own knobs.  "Best static" is picked per profile *after the
    fact* — the strongest possible opponent.  The acceptance gate:
    adaptive wins (``>= POLICY_WIN_RATIO`` fewer graph builds or higher
    hit rate) on at least two profiles, and never needs more than
    ``POLICY_LOSS_TOLERANCE`` times the best static's builds on any.
    Answers must be bit-identical across all three replays (the
    coverage guard makes every snap/capacity decision
    answer-preserving), and generating a trace twice from one seed
    must be byte-identical (``trace_deterministic``).
    """
    from repro.workloads.profiles import generate_trace
    from repro.workloads.trace import encode_trace

    results: dict[str, object] = {}
    wins = 0
    losses = 0
    parity_all = True
    deterministic_all = True
    adjustments = 0.0
    n_events = BENCH_POLICY_EVENTS or None
    for profile in POLICY_PROFILES:
        trace = generate_trace(
            profile, seed=seed, n_events=n_events,
            n_obstacles=n_obstacles, n_entities=n_entities,
        )
        again = generate_trace(
            profile, seed=seed, n_events=n_events,
            n_obstacles=n_obstacles, n_entities=n_entities,
        )
        deterministic = encode_trace(trace) == encode_trace(again)
        a_exact, m_exact = replay_trace(trace, graph_cache_snap=0.0)
        a_snap, m_snap = replay_trace(trace, graph_cache_snap=moving_snap())
        a_adapt, m_adapt = replay_trace(trace, cache_policy="adaptive")
        parity = a_exact == a_snap == a_adapt
        best_builds = min(m_exact["graph_builds"], m_snap["graph_builds"])
        best_hit = max(m_exact["hit_rate"], m_snap["hit_rate"])
        build_ratio = best_builds / max(1.0, m_adapt["graph_builds"])
        if best_hit > 0.0:
            hit_ratio = m_adapt["hit_rate"] / best_hit
        else:
            hit_ratio = math.inf if m_adapt["hit_rate"] > 0.0 else 1.0
        win = build_ratio >= POLICY_WIN_RATIO or hit_ratio >= POLICY_WIN_RATIO
        loss = m_adapt["graph_builds"] > best_builds * POLICY_LOSS_TOLERANCE
        wins += win
        losses += loss
        parity_all &= parity
        deterministic_all &= deterministic
        adjustments += m_adapt["policy_adjustments"]
        results[profile] = {
            "events": m_adapt["events"],
            "builds_exact": m_exact["graph_builds"],
            "builds_snapped": m_snap["graph_builds"],
            "builds_adaptive": m_adapt["graph_builds"],
            "build_ratio": build_ratio,
            "hit_rate_static": best_hit,
            "hit_rate_adaptive": m_adapt["hit_rate"],
            "hit_ratio": hit_ratio,
            "adjustments": m_adapt["policy_adjustments"],
            "win": float(win),
            "loss": float(loss),
            "parity": float(parity),
        }
    results["wins"] = float(wins)
    results["losses"] = float(losses)
    results["parity"] = float(parity_all)
    results["trace_deterministic"] = float(deterministic_all)
    results["policy_adjustments"] = adjustments
    results["gate_ok"] = float(wins >= 2 and losses == 0 and parity_all)
    return results


# ---------------------------------------------- journal durability comparison
#: Scene/trace size of the durability comparison.  ``churn-heavy`` is
#: the mutation-dense profile — the workload a write-ahead journal
#: exists for.
JOURNAL_BENCH_OBSTACLES = 120
JOURNAL_BENCH_ENTITIES = 120

#: The acceptance bar: journaling a mutation must cost at least this
#: many times fewer durable bytes than re-writing the full snapshot
#: after every mutation.
JOURNAL_BYTES_RATIO_BAR = 5.0


def journal_durability_comparison(
    workdir: str,
    *,
    seed: int = BENCH_SEED,
    n_obstacles: int = JOURNAL_BENCH_OBSTACLES,
    n_entities: int = JOURNAL_BENCH_ENTITIES,
) -> dict[str, float]:
    """Write-ahead journaling vs full-snapshot-per-save on a churn trace.

    One churn-heavy trace is replayed twice on identical scenes.  The
    *durable* side opens the database with ``durable=`` and anchors a
    base snapshot, so every mutation appends one fsynced journal
    record; the *rewrite* side models durability-by-checkpoint — it
    saves the entire snapshot after every mutation, the only
    durability story the engine had before the journal.  Compared on
    durable bytes written per mutation (``bytes_ratio``, gated at
    ``>= JOURNAL_BYTES_RATIO_BAR``) and wall-clock per durable
    mutation (``save_speedup``).

    Also verified here, because the benchmark has the journal at a
    realistic size: crash-recovery parity (reopen base + journal as a
    restarted process would; every query event must answer
    bit-identically) and compaction (fold + truncate leaves an empty
    journal and a loadable base).  ``write_amplification`` is physical
    durable bytes over appended journal bytes during the replay — 1.0
    unless auto-compaction rewrote the base mid-replay.
    """
    from repro.persist.journal import MutationJournal
    from repro.workloads.profiles import generate_trace

    trace = generate_trace(
        "churn-heavy",
        seed=seed,
        n_obstacles=n_obstacles,
        n_entities=n_entities,
    )
    mutation_kinds = ("insert", "delete")
    query_events = [
        ev for ev in trace.events if ev.kind not in mutation_kinds
    ][:30]

    # -- durable side: journal-per-mutation --------------------------------
    journal_path = os.path.join(workdir, "bench.journal")
    base_path = os.path.join(workdir, "base.snap")
    db = database_for_trace(trace, durable=journal_path)
    db.save(base_path)
    base_bytes = float(os.path.getsize(base_path))
    replay_events(db, trace.events, set_name=trace.set_name)
    stats = db.runtime_stats()
    journal_appends = float(stats["journal_appends"])
    journal_bytes = float(stats["journal_bytes"])
    write_amplification = (
        journal_bytes + float(stats["compaction_bytes"])
    ) / max(1.0, journal_bytes)
    with open(journal_path, "rb") as fh:
        journal_blob = fh.read()

    # -- crash-recovery parity ---------------------------------------------
    recovered = ObstacleDatabase.load(base_path, durable=journal_path)
    live_answers, __ = replay_events(db, query_events, set_name=trace.set_name)
    rec_answers, __ = replay_events(
        recovered, query_events, set_name=trace.set_name
    )
    recovery_parity = float(live_answers == rec_answers)
    recovered.journal.close()
    recovered.close()

    # -- incremental append cost (isolated from query work) ----------------
    copy_path = os.path.join(workdir, "copy.journal")
    with open(copy_path, "wb") as fh:
        fh.write(journal_blob)
    probe, entries = MutationJournal.recover(copy_path)
    probe.close()
    scratch = MutationJournal.create(os.path.join(workdir, "scratch.journal"))
    incr_timer = Timer()
    with incr_timer:
        for __seq, record in entries:
            scratch.append(record)
    scratch.close()
    incr_ms_per_mutation = incr_timer.elapsed_ms / max(1, len(entries))

    # -- compaction ---------------------------------------------------------
    db.compact()
    compaction_ok = float(
        db.journal.record_count == 0
        and db.runtime_stats()["compactions"] >= 1
        and os.path.getsize(base_path) > 0
    )
    db.journal.close()
    db.close()

    # -- rewrite side: full snapshot after every mutation -------------------
    db2 = database_for_trace(trace)
    snap2 = os.path.join(workdir, "rewrite.snap")
    db2.save(snap2)
    inserted = {}
    full_bytes = 0.0
    n_mutations = 0
    full_timer = Timer()
    for ev in trace.events:
        if ev.kind == "insert":
            inserted[ev.tag] = db2.insert_obstacle(ev.rect)
        elif ev.kind == "delete":
            db2.delete_obstacle(inserted.pop(ev.tag))
        else:
            continue
        n_mutations += 1
        with full_timer:
            db2.save(snap2)
        full_bytes += float(os.path.getsize(snap2))
    db2.close()
    full_ms_per_mutation = full_timer.elapsed_ms / max(1, n_mutations)
    full_bytes_per_mutation = full_bytes / max(1, n_mutations)
    journal_bytes_per_mutation = journal_bytes / max(1.0, journal_appends)
    bytes_ratio = full_bytes_per_mutation / max(1.0, journal_bytes_per_mutation)
    save_speedup = full_ms_per_mutation / max(1e-9, incr_ms_per_mutation)
    return {
        "events": float(len(trace.events)),
        "mutations": float(n_mutations),
        "journal_appends": journal_appends,
        "journal_bytes": journal_bytes,
        "base_bytes": base_bytes,
        "journal_bytes_per_mutation": journal_bytes_per_mutation,
        "full_bytes_per_mutation": full_bytes_per_mutation,
        "bytes_ratio": bytes_ratio,
        "incremental_ok": float(bytes_ratio >= JOURNAL_BYTES_RATIO_BAR),
        "write_amplification": write_amplification,
        "recovery_parity": recovery_parity,
        "compaction_ok": compaction_ok,
        "incr_ms_per_mutation": incr_ms_per_mutation,
        "full_ms_per_mutation": full_ms_per_mutation,
        "save_speedup": save_speedup,
        # The raw speedup is wall-clock (runner-dependent); the gated
        # verdict only asks for >= 2x, far under the measured ~10x.
        "save_speedup_ok": float(save_speedup >= 2.0),
    }
