"""Standalone experiment harness: regenerate every paper figure.

Prints one text table per figure (13-22), in the same layout as the
paper's plots: the x-axis parameter against the plotted series (page
accesses per tree, CPU time, false-hit ratios).

Usage::

    python benchmarks/run_all.py                      # all figures
    python benchmarks/run_all.py 13 17 21             # a subset
    python benchmarks/run_all.py --smoke              # CI: tiny fixed-size run
    python benchmarks/run_all.py --json BENCH_x.json  # + machine-readable dump

``--json PATH`` (composable with every other mode) writes one JSON
document with the run configuration and the per-benchmark metric rows
— the machine-readable perf trajectory tracked across PRs.

Environment knobs are shared with the pytest benches (see
``benchmarks/common.py``): REPRO_BENCH_O, REPRO_BENCH_QUERIES,
REPRO_BENCH_PAGE_ENTRIES.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (  # noqa: E402
    BENCH_O,
    BENCH_QUERIES,
    CARDINALITY_RATIOS,
    JOIN_RANGE_FRACTIONS,
    JOIN_RATIOS,
    K_VALUES,
    RANGE_FRACTIONS,
    bench_db,
    cardinality_spec,
    join_spec,
    queries_for,
    run_ocp,
    run_odj,
    run_onn_workload,
    run_or_workload,
    run_repeated_distance,
    scale_factor,
    scaled_join_range,
    scaled_range,
)
from repro.obs.experiment import ExperimentSeries, format_table


#: Per-benchmark metric rows of the current run, keyed by benchmark
#: title — dumped verbatim by ``--json``.
RESULTS: dict[str, object] = {}


def _record(title: str, x_label: str, rows: list[tuple[float, dict]]) -> None:
    RESULTS[title] = {
        "x_label": x_label,
        "rows": [{"x": x, **metrics} for x, metrics in rows],
    }


def _print(title: str, x_label: str, rows: list[tuple[float, dict]], keys: list[tuple[str, str]]) -> None:
    _record(title, x_label, rows)
    series = [ExperimentSeries(label) for __, label in keys]
    for x, metrics in rows:
        for s, (key, __) in zip(series, keys):
            s.add(x, metrics[key])
    print(format_table(title, x_label, series))
    print()


def fig13() -> None:
    db, wl = bench_db(BENCH_O, cardinality_spec(), BENCH_QUERIES)
    e = scaled_range(0.001)
    rows = []
    for ratio in CARDINALITY_RATIOS:
        rows.append(
            (ratio, run_or_workload(db, wl, f"P{ratio:g}", wl.queries, e))
        )
    _print(
        "Fig. 13 - OR cost vs |P|/|O| (e=0.1%)",
        "|P|/|O|",
        rows,
        [("entity_pa", "data R-tree PA"), ("obstacle_pa", "obstacle R-tree PA"),
         ("cpu_ms", "CPU (ms)")],
    )


def fig14() -> None:
    db, wl = bench_db(BENCH_O, cardinality_spec(), BENCH_QUERIES)
    rows = []
    for fraction in RANGE_FRACTIONS:
        cost = 1 if fraction <= 0.001 else (2 if fraction <= 0.005 else 4)
        queries = wl.queries[: queries_for(cost)]
        rows.append(
            (fraction * 100, run_or_workload(db, wl, "P1", queries, scaled_range(fraction)))
        )
    _print(
        "Fig. 14 - OR cost vs e (|P|=|O|)",
        "e (% of side)",
        rows,
        [("entity_pa", "data R-tree PA"), ("obstacle_pa", "obstacle R-tree PA"),
         ("cpu_ms", "CPU (ms)")],
    )


def fig15() -> None:
    db, wl = bench_db(BENCH_O, cardinality_spec(), BENCH_QUERIES)
    e = scaled_range(0.001)
    rows_a = [
        (ratio, run_or_workload(db, wl, f"P{ratio:g}", wl.queries, e))
        for ratio in CARDINALITY_RATIOS
    ]
    _print(
        "Fig. 15a - OR false-hit ratio vs |P|/|O| (e=0.1%)",
        "|P|/|O|",
        rows_a,
        [("false_hit_ratio", "false-hit ratio")],
    )
    rows_b = []
    for fraction in RANGE_FRACTIONS:
        cost = 1 if fraction <= 0.001 else (2 if fraction <= 0.005 else 4)
        queries = wl.queries[: queries_for(cost)]
        rows_b.append(
            (fraction * 100, run_or_workload(db, wl, "P1", queries, scaled_range(fraction)))
        )
    _print(
        "Fig. 15b - OR false-hit ratio vs e (|P|=|O|)",
        "e (% of side)",
        rows_b,
        [("false_hit_ratio", "false-hit ratio")],
    )


def fig16() -> None:
    db, wl = bench_db(BENCH_O, cardinality_spec(), BENCH_QUERIES)
    rows = []
    for ratio in CARDINALITY_RATIOS:
        cost = 2 if ratio >= 1 else 3
        queries = wl.queries[: queries_for(cost)]
        rows.append((ratio, run_onn_workload(db, wl, f"P{ratio:g}", queries, 16)))
    _print(
        "Fig. 16 - ONN cost vs |P|/|O| (k=16)",
        "|P|/|O|",
        rows,
        [("entity_pa", "data R-tree PA"), ("obstacle_pa", "obstacle R-tree PA"),
         ("cpu_ms", "CPU (ms)")],
    )


def fig17() -> None:
    db, wl = bench_db(BENCH_O, cardinality_spec(), BENCH_QUERIES)
    rows = []
    for k in K_VALUES:
        cost = 1 if k <= 16 else (2 if k <= 64 else 4)
        queries = wl.queries[: queries_for(cost)]
        rows.append((k, run_onn_workload(db, wl, "P1", queries, k)))
    _print(
        "Fig. 17 - ONN cost vs k (|P|=|O|)",
        "k",
        rows,
        [("entity_pa", "data R-tree PA"), ("obstacle_pa", "obstacle R-tree PA"),
         ("cpu_ms", "CPU (ms)")],
    )


def fig18() -> None:
    db, wl = bench_db(BENCH_O, cardinality_spec(), BENCH_QUERIES)
    rows_a = []
    for ratio in CARDINALITY_RATIOS:
        cost = 2 if ratio >= 1 else 3
        queries = wl.queries[: queries_for(cost)]
        rows_a.append((ratio, run_onn_workload(db, wl, f"P{ratio:g}", queries, 16)))
    _print(
        "Fig. 18a - ONN false-hit ratio vs |P|/|O| (k=16)",
        "|P|/|O|",
        rows_a,
        [("false_hit_ratio", "false-hit ratio")],
    )
    rows_b = []
    for k in K_VALUES:
        cost = 1 if k <= 16 else (2 if k <= 64 else 4)
        queries = wl.queries[: queries_for(cost)]
        rows_b.append((k, run_onn_workload(db, wl, "P1", queries, k)))
    _print(
        "Fig. 18b - ONN false-hit ratio vs k (|P|=|O|)",
        "k",
        rows_b,
        [("false_hit_ratio", "false-hit ratio")],
    )


def fig19() -> None:
    db, __ = bench_db(BENCH_O, join_spec(), BENCH_QUERIES)
    e = scaled_join_range(0.0001)
    rows = [(r, run_odj(db, f"S{r:g}", "T", e)) for r in JOIN_RATIOS]
    _print(
        "Fig. 19 - ODJ cost vs |S|/|O| (e=0.01%, |T|=0.1|O|)",
        "|S|/|O|",
        rows,
        [("entity_pa", "data R-trees PA"), ("obstacle_pa", "obstacle R-tree PA"),
         ("cpu_s", "CPU (s)"), ("result_size", "result pairs")],
    )


def fig20() -> None:
    db, __ = bench_db(BENCH_O, join_spec(), BENCH_QUERIES)
    rows = [
        (f * 100, run_odj(db, "S0.1", "T", scaled_join_range(f)))
        for f in JOIN_RANGE_FRACTIONS
    ]
    _print(
        "Fig. 20 - ODJ cost vs e (|S|=|T|=0.1|O|)",
        "e (% of side)",
        rows,
        [("entity_pa", "data R-trees PA"), ("obstacle_pa", "obstacle R-tree PA"),
         ("cpu_s", "CPU (s)"), ("result_size", "result pairs")],
    )


def fig21() -> None:
    db, __ = bench_db(BENCH_O, join_spec(), BENCH_QUERIES)
    rows = [(r, run_ocp(db, f"S{r:g}", "T", 16)) for r in JOIN_RATIOS]
    _print(
        "Fig. 21 - OCP cost vs |S|/|O| (k=16, |T|=0.1|O|)",
        "|S|/|O|",
        rows,
        [("entity_pa", "data R-trees PA"), ("obstacle_pa", "obstacle R-tree PA"),
         ("cpu_s", "CPU (s)")],
    )


def fig22() -> None:
    db, __ = bench_db(BENCH_O, join_spec(), BENCH_QUERIES)
    rows = [(k, run_ocp(db, "S0.1", "T", k)) for k in K_VALUES]
    _print(
        "Fig. 22 - OCP cost vs k (|S|=|T|=0.1|O|)",
        "k",
        rows,
        [("entity_pa", "data R-trees PA"), ("obstacle_pa", "obstacle R-tree PA"),
         ("cpu_s", "CPU (s)")],
    )


FIGURES = {
    "13": fig13, "14": fig14, "15": fig15, "16": fig16, "17": fig17,
    "18": fig18, "19": fig19, "20": fig20, "21": fig21, "22": fig22,
}


def smoke() -> int:
    """A tiny fixed-cardinality pass over every query type plus the
    runtime-cache comparison — seconds, not minutes; exercised by CI.

    The sizes are hard-coded (not env-driven) so the run is
    reproducible regardless of the REPRO_BENCH_* knobs.
    """
    n_obstacles = 200
    db, wl = bench_db(n_obstacles, (("P1", n_obstacles), ("T", 40)), 2)
    # Undo the env-driven scaling baked into scaled_range/scaled_join_range
    # so the smoke's effective ranges depend only on the hard-coded
    # cardinality (sqrt for per-disk counts, linear for join output).
    e = scaled_range(0.001) * math.sqrt(BENCH_O / n_obstacles)
    e_join = scaled_join_range(0.00002) * (BENCH_O / n_obstacles)
    queries = wl.queries[:2]
    rows = [
        ("OR", run_or_workload(db, wl, "P1", queries, e)),
        ("ONN (k=4)", run_onn_workload(db, wl, "P1", queries, 4)),
        ("ODJ", run_odj(db, "P1", "T", e_join)),
        ("OCP (k=4)", run_ocp(db, "P1", "T", 4)),
    ]
    print(f"# smoke: |O|={n_obstacles}, 2 queries\n")
    RESULTS["smoke"] = {name: metrics for name, metrics in rows}
    for name, metrics in rows:
        cells = ", ".join(f"{k}={v:.3g}" for k, v in sorted(metrics.items()))
        print(f"{name:10s} {cells}")

    targets = queries
    entities = wl.entity_sets["P1"]
    pairs = [
        (s, t) for t in targets for s in sorted(entities, key=t.distance)[:8]
    ]
    fresh = run_repeated_distance(db, pairs, persistent=False)
    cached = run_repeated_distance(db, pairs, persistent=True)
    RESULTS["smoke repeated d_O"] = {"fresh": fresh, "cached": cached}
    print(
        f"\nrepeated d_O ({len(pairs)} calls, {len(targets)} targets): "
        f"graph builds {fresh['graph_builds']:.0f} -> "
        f"{cached['graph_builds']:.0f} with persistent cache"
    )
    if cached["graph_builds"] >= fresh["graph_builds"]:
        print("FAIL: persistent cache did not reduce graph builds")
        return 1
    code = smoke_kernel()
    if code:
        return code
    code = smoke_euclidean()
    if code:
        return code
    code = smoke_moving_cache()
    if code:
        return code
    code = smoke_snapshot()
    if code:
        return code
    code = smoke_shard_parallel()
    if code:
        return code
    code = smoke_serve()
    if code:
        return code
    code = smoke_obs()
    if code:
        return code
    code = smoke_field_engine()
    if code:
        return code
    code = smoke_distance_stream()
    if code:
        return code
    code = smoke_policy()
    if code:
        return code
    return smoke_journal()


def smoke_kernel() -> int:
    """Visibility-kernel smoke: both backends build the same graph on a
    small scene — the one the scalar tangent reference names, edge for
    edge — and the numpy kernel must not lose to the python sweep; sweeping all nodes in one batched kernel call returns what a
    call per node returns, >= 2x faster on a 56-vertex scene (the size
    the end-to-end benchmark's cold queries build) and no slower on a
    1,000-vertex one.  (The full >= 3x acceptance bar on 1,000
    vertices lives in ``benchmarks/test_kernel_sweep.py``.)"""
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("\nkernel smoke: numpy unavailable, skipped")
        return 0
    from benchmarks.common import (
        batched_sweep_comparison,
        kernel_comparison,
        tangent_build_match,
    )

    n_rects = 48
    metrics = kernel_comparison(n_rects)
    metrics["tangent_build_match"] = tangent_build_match(n_rects)
    RESULTS["smoke kernel"] = metrics
    print(
        f"\nkernel smoke ({4 * n_rects} vertices): "
        f"python-sweep {metrics['python-sweep_s'] * 1000:.0f} ms, "
        f"numpy-kernel {metrics['numpy-kernel_s'] * 1000:.0f} ms "
        f"({metrics['speedup']:.1f}x), edges={metrics['edges']:.0f}"
    )
    if metrics["edges_match"] != 1.0:
        print("FAIL: backends disagree on the visibility graph")
        return 1
    if metrics["tangent_build_match"] != 1.0:
        print("FAIL: numpy build differs from the scalar tangent reference")
        return 1
    if metrics["speedup"] < 1.0:
        print("FAIL: numpy kernel slower than the python sweep")
        return 1
    # Batched vs per-source sweeps: (rectangles, required ratio).
    for n_rects, floor in ((14, 2.0), (250, 0.9)):
        row = batched_sweep_comparison(n_rects)
        # The wall-clock verdict, evaluated where it was measured (the
        # raw ratio rides in the JSON ungated, like the obs bars).
        row["batch_speedup_ok"] = float(row["batch_speedup"] >= floor)
        metrics[f"batched {4 * n_rects}v"] = row
        print(
            f"batched sweeps ({4 * n_rects} vertices): per-source "
            f"{row['per_source_s'] * 1000:.1f} ms, one call "
            f"{row['batched_s'] * 1000:.1f} ms "
            f"({row['batch_speedup']:.2f}x, bar {floor:g}x)"
        )
        if row["batch_match"] != 1.0:
            print("FAIL: batched sweeps differ from per-source sweeps")
            return 1
        if not row["batch_speedup_ok"]:
            print("FAIL: batched sweeps below the bar")
            return 1
    return 0


def smoke_euclidean() -> int:
    """Euclidean-iterator smoke: the distance join and the first 64
    incremental closest pairs at the ``paper-join`` cardinalities
    (131 x 13,146, 204-entry nodes), array-evaluated nodes against the
    scalar oracle of ``tests/euclidean/reference.py`` — the same values
    in the same order, >= 8x and >= 6x faster."""
    from benchmarks.common import euclidean_iterator_comparison

    metrics: dict[str, dict[str, float]] = {}
    RESULTS["smoke euclidean"] = metrics
    print()
    for name, row in euclidean_iterator_comparison().items():
        # The wall-clock verdict, evaluated where it was measured (the
        # raw ratio rides in the JSON ungated, like the kernel bars).
        row["speedup_ok"] = float(row["speedup"] >= row["target"])
        metrics[f"{name} 131x13k"] = row
        print(
            f"{name} 131x13k: scalar oracle {row['oracle_s'] * 1000:.1f} ms, "
            f"array nodes {row['array_s'] * 1000:.1f} ms "
            f"({row['speedup']:.1f}x, bar {row['target']:g}x), "
            f"{row['results']:.0f} results"
        )
        if row["match"] != 1.0:
            print("FAIL: array-evaluated traversal differs from the oracle")
            return 1
        if not row["speedup_ok"]:
            print("FAIL: array-evaluated traversal below the bar")
            return 1
    return 0


def smoke_moving_cache() -> int:
    """Cache-effectiveness smoke: a moving-query workload on a fixed
    small scene, comparing the exact-key cache against the spatial
    (snapped) key.  The regression bar on full-builds-avoided: the
    spatial key must avoid at least 2/3 of the exact key's graph
    builds (the full >= 3x acceptance bar at benchmark scale lives in
    ``benchmarks/test_moving_query_cache.py``), with bit-identical
    answers.  Deterministic (build counters), so it runs everywhere
    including single-core boxes."""
    from benchmarks.common import (
        moving_query_db,
        moving_query_path,
        moving_snap,
        run_moving_query,
    )

    n = 200
    steps = 24
    exact_db, workload = moving_query_db(n, 0.0)
    snapped_db, __ = moving_query_db(n, moving_snap())
    path = moving_query_path(workload, steps)
    exact_answers, exact_metrics = run_moving_query(exact_db, workload, path)
    snapped_answers, snapped_metrics = run_moving_query(
        snapped_db, workload, path
    )
    RESULTS["smoke moving-query cache"] = {
        "exact": exact_metrics,
        "snapped": snapped_metrics,
    }
    builds_exact = exact_metrics["graph_builds"]
    builds_snapped = snapped_metrics["graph_builds"]
    avoided = 1.0 - builds_snapped / builds_exact if builds_exact else 0.0
    print(
        f"\nmoving-query cache ({steps} steps, |O|={n}): graph builds "
        f"{builds_exact:.0f} (exact key) -> {builds_snapped:.0f} "
        f"(spatial key), {avoided:.0%} of full builds avoided"
    )
    if snapped_answers != exact_answers:
        print("FAIL: spatial cache key changed moving-query answers")
        return 1
    if avoided < 2 / 3:
        print("FAIL: spatial key avoided fewer than 2/3 of full builds")
        return 1
    return 0


def smoke_snapshot() -> int:
    """Snapshot warm-start smoke: the moving-query trajectory runs on a
    cold database (one graph build per step, exact keys), the warmed
    database is saved and restored from disk, and the identical
    trajectory replays on the restored runtime.  Bars (both enforced):
    bit-identical answers, and >= 3x fewer full graph builds warm than
    cold (the benchmark-scale bar lives in
    ``benchmarks/test_snapshot_warm.py``).  Deterministic (build
    counters), so it runs everywhere including single-core boxes."""
    import tempfile

    from benchmarks.common import snapshot_warm_comparison

    n = 200
    steps = 24
    with tempfile.TemporaryDirectory() as td:
        answers_match, metrics = snapshot_warm_comparison(
            n, steps, os.path.join(td, "warm.snap")
        )
    RESULTS["smoke snapshot warm-start"] = metrics
    print(
        f"\nsnapshot warm-start ({steps} steps, |O|={n}): graph builds "
        f"{metrics['builds_cold']:.0f} (cold) -> "
        f"{metrics['builds_warm']:.0f} (restored), snapshot "
        f"{metrics['snapshot_bytes'] / 1024:.0f} KiB, save "
        f"{metrics['save_s'] * 1000:.0f} ms, load "
        f"{metrics['load_s'] * 1000:.0f} ms"
    )
    if not answers_match:
        print("FAIL: restored database changed moving-query answers")
        return 1
    if metrics["builds_cold"] < 3:
        print("FAIL: cold baseline too small to measure warm-start gain")
        return 1
    if metrics["builds_warm"] * 3 > metrics["builds_cold"]:
        print("FAIL: warm start avoided fewer than 2/3 of full builds")
        return 1
    return 0


def smoke_shard_parallel() -> int:
    """Shard/parallel smoke: sharded storage answers like monolithic,
    and a 4-worker batch returns results identical to sequential.
    Wall-clock speedup is *reported* but not enforced here (CI smoke
    boxes may be single-core); the benchmark bar lives in
    ``benchmarks/test_shard_parallel.py``."""
    import os

    from benchmarks.common import batch_bench_db, run_batch_nearest

    n = 200
    mono, workload = batch_bench_db(n, (("P1", n),), 24)
    sharded, __ = batch_bench_db(n, (("P1", n),), 24, 16)
    queries = workload.queries[:24]
    index = sharded.obstacle_index
    print(
        f"\nshard smoke: |O|={n} over {index.shard_count} shards "
        f"(grid order {index.grid.order})"
    )
    seq, seq_metrics = run_batch_nearest(mono, "P1", queries, 4)
    shard_seq, __ = run_batch_nearest(sharded, "P1", queries, 4)
    if shard_seq != seq:
        print("FAIL: sharded storage changed batch answers")
        return 1
    par, par_metrics = run_batch_nearest(mono, "P1", queries, 4, workers=4)
    if par != seq:
        print("FAIL: 4-worker batch diverged from sequential")
        return 1
    print(
        f"batch_nearest x{len(queries)}: sequential "
        f"{seq_metrics['cpu_s'] * 1000:.0f} ms, 4-worker "
        f"{par_metrics['cpu_s'] * 1000:.0f} ms "
        f"({seq_metrics['cpu_s'] / par_metrics['cpu_s']:.2f}x, "
        f"{os.cpu_count() or 1} cores)"
    )
    RESULTS["smoke shard+parallel"] = {
        "sequential": seq_metrics,
        "parallel": par_metrics,
    }
    return 0


def smoke_serve() -> int:
    """Serving-tier smoke: the mixed mutate/query/moving-client load on
    a fixed small scene, sequential vs the persistent pool.  Gated on
    the *deterministic* half of the serving claims — bit-identical
    answers under mutations, one pool batch per step, and zero graph
    builds when warm workers serve covered centres — while throughput
    and p99 are reported for the JSON trajectory (the wall-clock >= 2x
    bar vs fork-per-batch lives in
    ``benchmarks/test_serve_sustained.py``, where core counts gate
    it).  Runs everywhere including single-core boxes."""
    from benchmarks.common import (
        run_sustained_serve,
        serve_bench_db,
        serve_client_paths,
        serve_mutation_schedule,
        serve_warm_start_builds,
    )

    n = 200
    steps = 8
    clients = 4
    workload = serve_bench_db(n)[1]
    paths = serve_client_paths(workload, clients, steps)
    schedule = serve_mutation_schedule(workload, steps)
    seq_db, __ = serve_bench_db(n)
    pool_db, __ = serve_bench_db(n)
    try:
        sequential, seq_metrics = run_sustained_serve(seq_db, paths, schedule)
        pooled, pool_metrics = run_sustained_serve(
            pool_db, paths, schedule, workers=2, pool="persistent"
        )
    finally:
        pool_db.close()
    warm_db, __ = serve_bench_db(n)
    try:
        warm_builds = serve_warm_start_builds(
            warm_db, [p[0] for p in paths], workers=2
        )
    finally:
        warm_db.close()
    parity = pooled == sequential
    RESULTS["smoke serve"] = {
        "sequential": seq_metrics,
        "persistent": pool_metrics,
        "parity": float(parity),
        "warm_builds": warm_builds,
    }
    print(
        f"\nserve smoke ({steps} steps x {clients} clients, |O|={n}, "
        f"mutations on): sequential {seq_metrics['qps']:.0f} qps, "
        f"persistent pool {pool_metrics['qps']:.0f} qps "
        f"(p99 {pool_metrics['p99_ms']:.0f} ms), graph builds "
        f"{seq_metrics['graph_builds']:.0f} -> "
        f"{pool_metrics['graph_builds']:.0f}, warm-start builds "
        f"{warm_builds:.0f}"
    )
    if not parity:
        print("FAIL: persistent pool diverged from sequential answers")
        return 1
    if pool_metrics["pool_batches"] != float(steps):
        print("FAIL: not every step was served by the persistent pool")
        return 1
    if warm_builds != 0.0:
        print("FAIL: warm workers built graphs for covered centres")
        return 1
    return 0


def smoke_obs() -> int:
    """Observability smoke: a traced persistent-pool batch whose
    merged tree must carry the workers' span subtrees with answers
    identical to the untraced run, and a metrics-registry snapshot that
    must cover every runtime counter and export as parseable Prometheus
    text.  The boolean verdicts land in the JSON trajectory (gated
    exactly by ``check_regression.py``).  The tracing-overhead ratios
    (disabled and sampled, over a stubbed-out tracer, best-of-rounds)
    are measured and ride along ungated: on this 200-obstacle, 3-round
    stub the run-to-run noise is the size of the bars, which
    ``benchmarks/test_trace_overhead.py`` enforces at benchmark scale."""
    import re

    from benchmarks.common import batch_bench_db, trace_overhead_comparison
    from repro.obs.trace import TRACER
    from repro.runtime.stats import RuntimeStats

    overhead = trace_overhead_comparison(200, rounds=3)
    print(
        f"\nobs smoke: tracing overhead vs stub baseline "
        f"({overhead['stub_s'] * 1000:.0f} ms/round): disabled "
        f"{overhead['disabled_overhead']:+.1%}, sampled@"
        f"{overhead['sample_rate']:g} {overhead['sampled_overhead']:+.1%} "
        f"(ungated here)"
    )

    n = 200
    db, wl = batch_bench_db(n, (("P1", n),), 8)
    queries = wl.queries[:8]
    prev = TRACER.sample_rate
    try:
        TRACER.configure(0.0)
        baseline = db.batch_nearest(
            "P1", queries, 4, workers=2, pool="persistent"
        )
        TRACER.configure(1.0)
        traced = db.batch_nearest(
            "P1", queries, 4, workers=2, pool="persistent"
        )
        root = TRACER.last_root
        registry = db.metrics()
        doc = registry.snapshot()
        prom = registry.to_prometheus()
    finally:
        TRACER.configure(prev)
        TRACER.last_root = None
        db.close()

    workers = (
        [s for s in root.walk() if s.name == "pool.worker"] if root else []
    )
    parity = traced == baseline
    merged = bool(workers)
    runtime_keys = set(doc.get("runtime", {}))
    registry_complete = set(RuntimeStats.__slots__) <= runtime_keys
    sample_line = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*='
        r'"[^"\\]*")*\})? -?[0-9].*$'
    )
    body = [ln for ln in prom.splitlines() if ln and not ln.startswith("#")]
    prometheus_parses = bool(body) and all(
        sample_line.match(ln) for ln in body
    )
    print(
        f"traced pool batch: parity={parity}, worker span trees "
        f"grafted={len(workers)}; registry groups "
        f"{sorted(doc)} ({len(body)} prometheus samples)"
    )
    RESULTS["smoke obs"] = {
        "trace_overhead": overhead,
        "trace_parity": float(parity),
        "pool_trace_merged": float(merged),
        "worker_spans": float(len(workers)),
        "registry_complete": float(registry_complete),
        "prometheus_parses": float(prometheus_parses),
    }
    if not parity:
        print("FAIL: tracing changed persistent-pool batch answers")
        return 1
    if not merged:
        print("FAIL: worker span trees were not grafted into the root")
        return 1
    if not registry_complete:
        missing = sorted(set(RuntimeStats.__slots__) - runtime_keys)
        print(f"FAIL: metrics registry misses runtime counters: {missing}")
        return 1
    if not prometheus_parses:
        print("FAIL: prometheus exposition did not parse")
        return 1
    return 0


def smoke_field_engine() -> int:
    """Distance-field smoke: a warm-cache range+nearest stream of 24
    rounds against one cold round.  Gated on bit-identical answers and
    on the revisits costing no graph build and no obstacle page read;
    the freeze and build counts ride in the JSON as gated counts."""
    from benchmarks.common import field_engine_comparison

    metrics = field_engine_comparison(200, 24)
    RESULTS["smoke field engine"] = metrics
    print(
        f"\nfield engine ({metrics['queries']:.0f} warm queries, |O|=200): "
        f"{metrics['cpu_s'] * 1000:.0f} ms (one cold round "
        f"{metrics['cold_round_cpu_s'] * 1000:.0f} ms), "
        f"{metrics['graph_builds']:.0f} builds, "
        f"{metrics['field_freezes']:.0f} freezes"
    )
    if not metrics["parity"]:
        print("FAIL: a warm revisit changed range/nearest answers")
        return 1
    if not metrics["counters_match"]:
        print("FAIL: warm revisits built graphs or read obstacle pages")
        return 1
    return 0


def smoke_distance_stream() -> int:
    """Warm stream smoke: 1,000 ops on one hot graph — point-to-point
    distances to fresh jittered goals, an ONN and an OR at a fresh
    centre every 16 — twice: every distance's source fresh (each one
    takes the targeted search), then sources drawn from a pool of
    ``STREAM_SOURCES`` (after a source's first sighting its
    field is read and the goal's last leg probed; an ONN / OR probes
    its candidates either way).  Gated on answers bit-identical to a
    cold exact-key database's and on the ops leaving the graph alone:
    no freeze, no node growth, at most one backend call per distance
    and three per ONN / OR — and with repeated sources, no backend call
    for a distance beyond each source's first sighting and each probe
    that gave up."""
    from benchmarks.common import STREAM_SOURCES, distance_stream_comparison

    for label, sources in (("", 0), (" (repeated sources)", STREAM_SOURCES)):
        metrics = distance_stream_comparison(2000, sources=sources)
        RESULTS[f"smoke warm distance stream{label}"] = metrics
        print(
            f"\nwarm distance stream{label} ({metrics['calls']:.0f} ops, "
            f"{metrics['field_ops']:.0f} of them ONN / OR, one graph of "
            f"{metrics['graph_nodes']:.0f} nodes): "
            f"{metrics['cpu_s'] * 1000:.0f} ms, "
            f"{metrics['field_freezes']:.0f} freezes, node growth "
            f"{metrics['node_growth']:.0f}, {metrics['backend_calls']:.0f} "
            f"backend calls, {metrics['last_leg_fallbacks']:.0f} probe fallbacks"
        )
        if not metrics["parity"]:
            print("FAIL: the warm shared graph changed an answer")
            return 1
        if metrics["field_freezes"] or metrics["node_growth"]:
            print("FAIL: a warm op changed its cached graph")
            return 1
        sweeping = (
            sources + metrics["last_leg_fallbacks"] if sources else metrics["calls"]
        )
        if metrics["backend_calls"] > sweeping + 2 * metrics["field_ops"]:
            print(
                "FAIL: more backend calls than one per sweeping distance, "
                "three per ONN / OR"
            )
            return 1
    return 0


def smoke_policy() -> int:
    """Adaptive-cache-policy smoke: replay every workload profile under
    exact keys, the hand-tuned snap quantum, and the adaptive policy.
    Gated on the acceptance claims: adaptive wins on >= 2 of 5 profiles
    (>= 1.3x fewer graph builds or higher hit rate), never needs more
    than 1.05x the best static's builds, answers stay bit-identical
    under every policy, and trace generation is deterministic."""
    from benchmarks.common import (
        POLICY_PROFILES,
        adaptive_policy_comparison,
    )

    metrics = adaptive_policy_comparison()
    RESULTS["smoke adaptive policy"] = metrics
    print("\nadaptive cache policy vs best static knob:")
    for profile in POLICY_PROFILES:
        row = metrics[profile]
        verdict = (
            "WIN" if row["win"] else ("LOSS" if row["loss"] else "par")
        )
        print(
            f"  {profile:13} {verdict:4} builds exact/snapped/adaptive = "
            f"{row['builds_exact']:.0f}/{row['builds_snapped']:.0f}/"
            f"{row['builds_adaptive']:.0f} "
            f"(best-static/adaptive {row['build_ratio']:.2f}x), hit rate "
            f"{row['hit_rate_static']:.2f} -> {row['hit_rate_adaptive']:.2f}"
        )
    print(
        f"  {metrics['wins']:.0f} win(s), {metrics['losses']:.0f} loss(es), "
        f"{metrics['policy_adjustments']:.0f} policy adjustment(s)"
    )
    if not metrics["parity"]:
        print("FAIL: a cache policy changed query answers")
        return 1
    if not metrics["trace_deterministic"]:
        print("FAIL: trace generation is not deterministic")
        return 1
    if metrics["wins"] < 2:
        print("FAIL: adaptive policy won fewer than 2 of 5 profiles")
        return 1
    if metrics["losses"]:
        print("FAIL: adaptive policy lost > 5% on some profile")
        return 1
    return 0


def smoke_journal() -> int:
    """Durability smoke: replay one churn-heavy trace with a
    write-ahead journal and once with full-snapshot-per-mutation (the
    pre-journal durability story).  Gated on the deterministic claims:
    durable bytes per mutation at least ``JOURNAL_BYTES_RATIO_BAR``
    times smaller, write amplification of 1 (no mid-replay base
    rewrites at this trace size), crash-recovery parity (base + torn
    journal reload answers bit-identically), a clean compaction fold,
    and the >= 2x incremental-save speedup verdict — the raw
    wall-clock ratio rides in the JSON ungated."""
    import tempfile

    from benchmarks.common import (
        JOURNAL_BYTES_RATIO_BAR,
        journal_durability_comparison,
    )

    with tempfile.TemporaryDirectory() as td:
        metrics = journal_durability_comparison(td)
    RESULTS["smoke journal"] = metrics
    print(
        f"\njournal smoke ({metrics['mutations']:.0f} mutations over "
        f"{metrics['events']:.0f} churn events): "
        f"{metrics['journal_bytes_per_mutation']:.0f} B/mutation "
        f"journaled vs {metrics['full_bytes_per_mutation']:.0f} B "
        f"re-snapshotted ({metrics['bytes_ratio']:.0f}x less), "
        f"write amplification {metrics['write_amplification']:.2f}, "
        f"save {metrics['full_ms_per_mutation']:.2f} ms -> "
        f"{metrics['incr_ms_per_mutation']:.3f} ms "
        f"({metrics['save_speedup']:.1f}x)"
    )
    if not metrics["recovery_parity"]:
        print("FAIL: crash recovery changed replayed answers")
        return 1
    if not metrics["compaction_ok"]:
        print("FAIL: compaction left records or an unloadable base")
        return 1
    if metrics["bytes_ratio"] < JOURNAL_BYTES_RATIO_BAR:
        print(
            f"FAIL: journaling wrote fewer than "
            f"{JOURNAL_BYTES_RATIO_BAR:.0f}x less bytes per mutation"
        )
        return 1
    if not metrics["save_speedup_ok"]:
        print("FAIL: incremental save under 2x faster than full snapshot")
        return 1
    return 0


def write_json(path: str) -> None:
    """Dump the run's configuration and every recorded benchmark's
    metric rows to ``path`` (the perf trajectory tracked across PRs)."""
    document = {
        "config": {
            "bench_o": BENCH_O,
            "bench_queries": BENCH_QUERIES,
            "range_scale_factor": scale_factor(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "results": RESULTS,
    }
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(RESULTS)} benchmark result set(s) to {path}")


def main(argv: list[str]) -> int:
    argv = list(argv)
    json_path = None
    if "--json" in argv:
        flag = argv.index("--json")
        try:
            json_path = argv[flag + 1]
        except IndexError:
            print("--json needs a file path argument", file=sys.stderr)
            return 2
        del argv[flag : flag + 2]
    if "--smoke" in argv:
        code = smoke()
        if json_path is not None:
            write_json(json_path)
        return code
    wanted = argv or sorted(FIGURES)
    print(
        f"# |O|={BENCH_O}, queries={BENCH_QUERIES}, "
        f"range scale factor={scale_factor():.2f}\n"
    )
    for fig in wanted:
        fn = FIGURES.get(fig)
        if fn is None:
            print(f"unknown figure: {fig}", file=sys.stderr)
            return 2
        fn()
    if json_path is not None:
        write_json(json_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
