"""Standalone experiment harness: the paper's evaluation as one table.

The paper's Sec. 7 plots (Figs. 13-22) are rows of two tables.
``SWEEPS`` has one row per sweep: the query kind, the parameter the x
axis sets and its values, the parameters held fixed, and the cost class
per x (how many of the workload's queries an OR / ONN point runs).
``FIGURES`` has one row per printed figure: its title, the sweep it
plots, its columns, and the paper's claim — in words, and as shape
checks over the deterministic columns (page accesses, false-hit ratio,
result size; never CPU).  Three ablations are rows of the same tables:
Hilbert-ordered join seeds, the LRU buffer size, and OR's one shared
expansion against a local graph per candidate.  One loop runs each
sweep a run asks for once and prints every figure that plots it, with
its verdict: *holds* when every check passes, else *deviates* and the
failed checks.  The CPU columns are process time
(``time.process_time``).

Usage::

    python benchmarks/run_all.py                      # every figure and ablation
    python benchmarks/run_all.py 13 17 hilbert        # a subset
    python benchmarks/run_all.py --smoke              # CI: tiny fixed-size run
    python benchmarks/run_all.py --json BENCH_x.json  # + machine-readable dump

``--json PATH`` (composable with every other mode) writes one JSON
document with the run configuration and the per-figure metric rows,
claim and verdict.  ``REPRO_BENCH_O`` (obstacles, default 2,000) and
``REPRO_BENCH_QUERIES`` (queries per OR / ONN point, default 8) set the
scale; the paper's is ``REPRO_BENCH_O=131461``.  The committed runs are
``benchmarks/results/figs_default.json`` (default scale) and
``benchmarks/results/paper_figs.json`` (``REPRO_BENCH_O=131461
REPRO_BENCH_QUERIES=4``); ``check_regression.py figs_default.json
NEW.json`` fails when a verdict moved.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from typing import NamedTuple

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
    bench_workload,
    cardinality_spec,
    index_workload,
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


#: Per-benchmark metric rows of the current run, keyed by benchmark
#: title — dumped verbatim by ``--json``.
RESULTS: dict[str, object] = {}


class Sweep(NamedTuple):
    """One x axis of one query kind.  Parameters: ``set`` (an entity
    set's cardinality over |O|: ``P<set>`` for OR / ONN, ``S<set>``
    joined with ``T`` = 0.1|O| for ODJ / OCP), ``e`` (a fraction of the
    universe side, plotted in percent), ``k``, and the ablations'
    ``hilbert`` and ``shared`` (1 = on) and ``buffer`` (LRU buffer
    fraction of each tree).  ``costs``: an OR / ONN point's cost class
    per x (:func:`queries_for`; none given, 1: every query)."""

    kind: str
    x_label: str
    vary: str
    xs: tuple
    fixed: dict
    costs: tuple = ()


SWEEPS = {
    "or-cardinality": Sweep("OR", "|P|/|O|", "set", CARDINALITY_RATIOS, {"e": 0.001}),
    "or-range": Sweep(
        "OR", "e (% of side)", "e", RANGE_FRACTIONS, {"set": 1}, (1, 1, 1, 2, 4)
    ),
    # Sparse sets need wider searches.
    "onn-cardinality": Sweep(
        "ONN", "|P|/|O|", "set", CARDINALITY_RATIOS, {"k": 16}, (3, 3, 2, 2, 2)
    ),
    "onn-k": Sweep("ONN", "k", "k", K_VALUES, {"set": 1}, (1, 1, 1, 2, 4)),
    "odj-cardinality": Sweep("ODJ", "|S|/|O|", "set", JOIN_RATIOS, {"e": 0.0001}),
    "odj-range": Sweep("ODJ", "e (% of side)", "e", JOIN_RANGE_FRACTIONS, {"set": 0.1}),
    "ocp-cardinality": Sweep("OCP", "|S|/|O|", "set", JOIN_RATIOS, {"k": 16}),
    "ocp-k": Sweep("OCP", "k", "k", K_VALUES, {"set": 0.1}),
    "odj-seed-order": Sweep(
        "ODJ", "Hilbert seed order (1 = on)", "hilbert", (0, 1), {"set": 1, "e": 0.0001}
    ),
    "or-buffer": Sweep(
        "OR", "LRU buffer (fraction of tree)", "buffer", (0.02, 0.1, 0.5),
        {"set": 1, "e": 0.001},
    ),
    "or-expansion": Sweep(
        "OR", "shared expansion (1 = on)", "shared", (0, 1), {"set": 2, "e": 0.001},
        (2, 2),
    ),
}


def measure_point(sweep: Sweep, x: float, cost: int) -> dict[str, float]:
    """The metrics of ``sweep`` at ``x``."""
    p = {**sweep.fixed, sweep.vary: x}
    if sweep.kind in ("OR", "ONN"):
        name = f"P{p['set']:g}"
        if "buffer" in p:
            wl = bench_workload(BENCH_O, cardinality_spec(), BENCH_QUERIES)
            db = index_workload(wl, (name,), buffer_fraction=p["buffer"])
        else:
            db, wl = bench_db(BENCH_O, cardinality_spec(), BENCH_QUERIES)
        queries = wl.queries[: queries_for(cost)]
        if sweep.kind == "ONN":
            return run_onn_workload(db, wl, name, queries, p["k"])
        e, shared = scaled_range(p["e"]), bool(p.get("shared", 1))
        return run_or_workload(db, wl, name, queries, e, shared=shared)
    db, __ = bench_db(BENCH_O, join_spec(), BENCH_QUERIES)
    name = f"S{p['set']:g}"
    if sweep.kind == "ODJ":
        e = scaled_join_range(p["e"])
        return run_odj(db, name, "T", e, hilbert=bool(p.get("hilbert", 1)))
    return run_ocp(db, name, "T", p["k"])


def run_sweep(sweep: Sweep) -> list[tuple[float, dict]]:
    """The sweep's ``(plotted x, metrics)`` rows."""
    costs = sweep.costs or (1,) * len(sweep.xs)
    return [
        (x * 100 if sweep.vary == "e" else x, measure_point(sweep, x, cost))
        for x, cost in zip(sweep.xs, costs)
    ]


#: Shape checks over a column's values in x order.  ``flat``: the
#: largest within twice the smallest.
SHAPES = {
    "rises": lambda ys: ys[-1] > ys[0],
    "falls": lambda ys: ys[-1] < ys[0],
    "flat": lambda ys: max(ys) <= 2 * min(ys),
    "peaks": lambda ys: max(ys[1:-1]) > max(ys[0], ys[-1]),
    "never rises": lambda ys: all(a >= b for a, b in zip(ys, ys[1:])),
    "equal": lambda ys: min(ys) == max(ys),
}


class Figure(NamedTuple):
    """One printed table: ``key`` names it on the command line;
    ``checks`` are ``(column, shape)`` pairs, the claim's testable
    part."""

    key: str
    title: str
    sweep: str
    columns: tuple
    claim: str
    checks: tuple


COST = (
    ("entity_pa", "data R-tree PA"),
    ("obstacle_pa", "obstacle R-tree PA"),
    ("cpu_ms", "CPU (ms)"),
)
JOIN_COST = (
    ("entity_pa", "data R-trees PA"),
    ("obstacle_pa", "obstacle R-tree PA"),
    ("cpu_s", "CPU (s)"),
)
PAIRS = (("result_size", "result pairs"),)
FALSE_HITS = (("false_hit_ratio", "false-hit ratio"),)

FIGURES = (
    Figure(
        "13", "Fig. 13 - OR cost vs |P|/|O| (e=0.1%)", "or-cardinality", COST,
        "entity R-tree page accesses grow with |P|/|O|; obstacle R-tree page "
        "accesses stay flat; CPU time grows superlinearly (O(n^2 log n) "
        "visibility-graph construction)",
        (("entity_pa", "rises"), ("obstacle_pa", "flat")),
    ),
    Figure(
        "14", "Fig. 14 - OR cost vs e (|P|=|O|)", "or-range", COST,
        "I/O grows ~quadratically with e (disk area); CPU grows even faster "
        "(O(n^2 log n) graph construction on a quadratically growing n)",
        (("entity_pa", "rises"), ("obstacle_pa", "rises")),
    ),
    Figure(
        "15", "Fig. 15a - OR false-hit ratio vs |P|/|O| (e=0.1%)", "or-cardinality",
        FALSE_HITS,
        "the false-hit ratio is roughly flat across cardinalities (~4-6 %)",
        (("false_hit_ratio", "flat"),),
    ),
    Figure(
        "15", "Fig. 15b - OR false-hit ratio vs e (|P|=|O|)", "or-range", FALSE_HITS,
        "the false-hit ratio grows with e (more obstacles per disk deviate "
        "obstructed from Euclidean distances)",
        (("false_hit_ratio", "rises"),),
    ),
    Figure(
        "16", "Fig. 16 - ONN cost vs |P|/|O| (k=16)", "onn-cardinality", COST,
        "entity R-tree page accesses grow slowly with density (the NN search "
        "radius shrinks as |P| grows); CPU time drops significantly with "
        "density - fewer obstacles take part in the distance computations",
        (("entity_pa", "rises"), ("obstacle_pa", "falls")),
    ),
    Figure(
        "17", "Fig. 17 - ONN cost vs k (|P|=|O|)", "onn-k", COST,
        "both I/O and CPU grow with k (larger search radii, more obstacles "
        "in the local graph, more distance evaluations)",
        (("entity_pa", "rises"), ("obstacle_pa", "rises")),
    ),
    Figure(
        "18", "Fig. 18a - ONN false-hit ratio vs |P|/|O| (k=16)", "onn-cardinality",
        FALSE_HITS,
        "the false-hit ratio falls as density grows (Euclidean and "
        "obstructed orders converge)",
        (("false_hit_ratio", "falls"),),
    ),
    Figure(
        "18", "Fig. 18b - ONN false-hit ratio vs k (|P|=|O|)", "onn-k", FALSE_HITS,
        "over k the false-hit ratio peaks around k ~ 4, then declines: for "
        "large k the Euclidean and obstructed k-NN sets largely coincide",
        (("false_hit_ratio", "peaks"),),
    ),
    Figure(
        "19", "Fig. 19 - ODJ cost vs |S|/|O| (e=0.01%, |T|=0.1|O|)",
        "odj-cardinality", JOIN_COST + PAIRS,
        "entity R-tree page accesses grow slowly; obstacle R-tree accesses "
        "and CPU time grow fast with |S| - the join output drives the "
        "number of obstructed distance evaluations",
        (("entity_pa", "rises"), ("obstacle_pa", "rises"), ("result_size", "rises")),
    ),
    Figure(
        "20", "Fig. 20 - ODJ cost vs e (|S|=|T|=0.1|O|)", "odj-range",
        JOIN_COST + PAIRS,
        "entity R-tree page accesses barely move (node extents dominate the "
        "range); the join output, and with it obstacle R-tree accesses and "
        "CPU time, grows rapidly with e",
        (("entity_pa", "flat"), ("obstacle_pa", "rises"), ("result_size", "rises")),
    ),
    Figure(
        "21", "Fig. 21 - OCP cost vs |S|/|O| (k=16, |T|=0.1|O|)", "ocp-cardinality",
        JOIN_COST,
        "entity R-tree page accesses grow with |S| (the Euclidean closest-pair "
        "search); obstacle R-tree accesses stay comparatively stable (denser "
        "S, closer pairs, smaller ranges); CPU time grows",
        (("entity_pa", "rises"), ("obstacle_pa", "flat")),
    ),
    Figure(
        "22", "Fig. 22 - OCP cost vs k (|S|=|T|=0.1|O|)", "ocp-k", JOIN_COST,
        "entity R-tree page accesses stay almost constant (the k closest "
        "pairs are in the heap once the first is found); obstacle R-tree "
        "accesses and CPU time grow with k",
        (("entity_pa", "flat"), ("obstacle_pa", "rises")),
    ),
    Figure(
        "hilbert", "Ablation - ODJ seed order, unsorted vs Hilbert (e=0.01%, "
        "|S|=|O|, |T|=0.1|O|)", "odj-seed-order", JOIN_COST + PAIRS,
        "seeds sorted by Hilbert value keep successive obstacle R-tree "
        "accesses local (Sec. 5): no more obstacle-tree misses, the same "
        "result",
        (("obstacle_pa", "never rises"), ("result_size", "equal")),
    ),
    Figure(
        "buffer", "Ablation - OR page accesses vs LRU buffer size (e=0.1%, "
        "|P|=|O|)", "or-buffer", COST,
        "the paper fixes each tree's buffer at 10 %; page misses fall "
        "monotonically as the buffer grows",
        (("entity_pa", "never rises"), ("obstacle_pa", "never rises")),
    ),
    Figure(
        "expansion", "Ablation - OR, a graph per candidate vs one shared "
        "expansion (e=0.1%, |P|=2|O|)", "or-expansion",
        (("obstacle_reads", "obstacle R-tree reads"), *COST[1:],
         ("result_size", "results per query")),
        "one expansion from the query point serves all candidates (Fig. 5): "
        "the same result as a fresh local graph per candidate, from fewer "
        "obstacle R-tree reads",
        (("obstacle_reads", "falls"), ("result_size", "equal")),
    ),
)


def judge(checks: tuple, rows: list[tuple[float, dict]]) -> str:
    """``holds`` when every ``(column, shape)`` check passes on
    ``rows``, else ``deviates`` and the checks that failed."""
    failed = [
        f"{column} {shape}"
        for column, shape in checks
        if not SHAPES[shape]([metrics[column] for __, metrics in rows])
    ]
    return f"deviates (failed: {', '.join(failed)})" if failed else "holds"


def _record(title: str, x_label: str, rows: list[tuple[float, dict]]) -> None:
    RESULTS[title] = {
        "x_label": x_label,
        "rows": [{"x": x, **metrics} for x, metrics in rows],
    }


def _print(
    title: str,
    x_label: str,
    rows: list[tuple[float, dict]],
    keys: list[tuple[str, str]],
    notes: tuple[str, ...] = (),
) -> None:
    """Record ``rows`` and print them as the figure's table: one column
    per ``(metric key, label)`` in ``keys``, right-aligned, a rule under
    the header, then the ``notes`` lines."""
    _record(title, x_label, rows)
    table = [[x_label, *(label for __, label in keys)]]
    table += [
        [f"{x:g}", *(f"{metrics[key]:.3f}" for key, __ in keys)] for x, metrics in rows
    ]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    print(f"== {title} ==", *lines, *notes, sep="\n")
    print()


def run_figures(wanted: set[str]) -> None:
    """Print and record every figure in ``wanted``, in table order,
    running each sweep once."""
    rows_of: dict[str, list] = {}
    for figure in FIGURES:
        if figure.key not in wanted:
            continue
        sweep = SWEEPS[figure.sweep]
        if figure.sweep not in rows_of:
            rows_of[figure.sweep] = run_sweep(sweep)
        rows = rows_of[figure.sweep]
        verdict = judge(figure.checks, rows)
        checks = ", ".join(f"{column} {shape}" for column, shape in figure.checks)
        notes = (f"claim: {figure.claim}", f"check: {checks} -> {verdict}")
        _print(figure.title, sweep.x_label, rows, figure.columns, notes)
        RESULTS[figure.title].update(claim=figure.claim, verdict=verdict)


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
    for row in (
        smoke_kernel, smoke_euclidean, smoke_moving_cache, smoke_snapshot,
        smoke_parallel, smoke_serve, smoke_obs, smoke_field_engine,
        smoke_distance_stream, smoke_policy, smoke_journal,
    ):
        code = row()
        if code:
            return code
    return 0


def smoke_kernel() -> int:
    """Visibility-kernel smoke: both backends build the same graph on a
    small scene — the one the scalar tangent reference names, edge for
    edge — and the numpy kernel must not lose to the naive oracle;
    anchoring all nodes in one batched kernel call returns what a call
    per node returns, >= 2x faster on a 56-vertex scene (the size the
    end-to-end benchmark's cold queries build) and no slower on a
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
        f"naive {metrics['naive_s'] * 1000:.0f} ms, "
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
        print("FAIL: numpy kernel slower than the naive oracle")
        return 1
    # Batched vs per-source anchors: (rectangles, required ratio).
    for n_rects, floor in ((14, 2.0), (250, 0.9)):
        row = batched_sweep_comparison(n_rects)
        # The wall-clock verdict, evaluated where it was measured (the
        # raw ratio rides in the JSON ungated, like the obs bars).
        row["batch_speedup_ok"] = float(row["batch_speedup"] >= floor)
        metrics[f"batched {4 * n_rects}v"] = row
        print(
            f"batched anchors ({4 * n_rects} vertices): per-source "
            f"{row['per_source_s'] * 1000:.1f} ms, one call "
            f"{row['batched_s'] * 1000:.1f} ms "
            f"({row['batch_speedup']:.2f}x, bar {floor:g}x)"
        )
        if row["batch_match"] != 1.0:
            print("FAIL: batched anchors differ from per-source anchors")
            return 1
        if not row["batch_speedup_ok"]:
            print("FAIL: batched anchors below the bar")
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


def smoke_parallel() -> int:
    """Parallel smoke: a 4-worker batch returns results identical to
    sequential.  Wall-clock speedup is *reported* but not enforced here
    (CI smoke boxes may be single-core); the benchmark bar lives in
    ``benchmarks/test_parallel_batch.py``."""
    import os

    from benchmarks.common import batch_bench_db, run_batch_nearest

    n = 200
    db, workload = batch_bench_db(n, (("P1", n),), 24)
    queries = workload.queries[:24]
    print(f"\nparallel smoke: |O|={n}")
    seq, seq_metrics = run_batch_nearest(db, "P1", queries, 4)
    par, par_metrics = run_batch_nearest(db, "P1", queries, 4, workers=4)
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
    RESULTS["smoke parallel"] = {
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
    anchors its source and searches its field), then sources drawn from
    a pool of ``STREAM_SOURCES`` (after a source's first sighting its
    memoized field is read).  Every hidden goal's last leg is probed,
    as an ONN / OR probes its candidates.  Gated on answers bit-identical to a
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
    keys = [figure.key for figure in FIGURES]
    unknown = [key for key in argv if key not in keys]
    if unknown:
        print(f"unknown figure: {unknown[0]}", file=sys.stderr)
        return 2
    print(
        f"# |O|={BENCH_O}, queries={BENCH_QUERIES}, "
        f"range scale factor={scale_factor():.2f}\n"
    )
    run_figures(set(argv or keys))
    if json_path is not None:
        write_json(json_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
