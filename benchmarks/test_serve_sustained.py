"""Sustained serving benchmark: persistent pool vs fork-per-batch.

Not a paper figure — this measures the serving tier on a mixed
mutate/query/moving-client load shaped like a continuous-query
deployment: every step, each moving client reports a new position one
small displacement from the last, the batch is answered by one of the
three engines, and every few steps an obstacle is inserted (then later
deleted) mid-stream through the mutation feed.

The engines differ in *where graph work survives*:

* **sequential** — one context, cache warms in place (the parity
  oracle);
* **fork-per-batch** — ``workers`` children forked per step; each
  child's cache updates die with it, so near-duplicate centres are
  rebuilt every single step, plus the per-step fork/join tax;
* **persistent pool** — workers spawned once from a snapshot carrying
  the parent's warm cache, mutations replayed as deltas; consecutive
  steps hit each worker's private snapped cache.

Acceptance bars:

* answers bit-identical across all three engines, mutations included;
* warm workers serve covered centres with **zero** graph builds;
* sustained throughput of the persistent pool at least **2x**
  fork-per-batch at 4 workers (via
  :func:`benchmarks.common.parallel_speedup_target`: reduced on 2-3
  cores, skipped on single-core or fork-less runners — parity is
  asserted everywhere, always), with p50/p99 batch latency reported.

Scale knobs: ``REPRO_BENCH_O`` (obstacles, capped at 400 here),
``REPRO_BENCH_SERVE_STEPS``.  Set ``REPRO_BENCH_SERVE_JSON=path`` to
dump every measured metric set as one JSON document (the CI artifact).
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.common import (
    BENCH_O,
    BENCH_SERVE_CLIENTS,
    BENCH_SERVE_STEPS,
    parallel_speedup_target,
    run_sustained_serve,
    serve_bench_db,
    serve_client_paths,
    serve_mutation_schedule,
    serve_warm_start_builds,
)
from repro.serve.pool import fork_available

#: Obstacle cardinality: enough graph work per step to dominate
#: dispatch overhead, small enough to keep fork-per-batch in seconds.
SERVE_O = min(BENCH_O, 400)

#: Worker count of the acceptance run (the issue's 4-worker bar).
WORKERS = 4

#: Metric sets collected across tests, dumped by the session fixture
#: when ``REPRO_BENCH_SERVE_JSON`` is set.
COLLECTED: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="session", autouse=True)
def _dump_metrics():
    """Write every collected metric set to the CI artifact path."""
    yield
    path = os.environ.get("REPRO_BENCH_SERVE_JSON")
    if path and COLLECTED:
        with open(path, "w") as fh:
            json.dump(COLLECTED, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load():
    workload = serve_bench_db(SERVE_O)[1]
    paths = serve_client_paths(workload, BENCH_SERVE_CLIENTS, BENCH_SERVE_STEPS)
    schedule = serve_mutation_schedule(workload, BENCH_SERVE_STEPS)
    return paths, schedule


class TestSustainedServe:
    def test_persistent_parity_with_mutations(self):
        """Pool answers match sequential across the mutating load."""
        paths, schedule = _load()
        assert any(schedule), "schedule must exercise the mutation feed"
        seq_db, __ = serve_bench_db(SERVE_O)
        pool_db, __ = serve_bench_db(SERVE_O)
        try:
            sequential, __ = run_sustained_serve(seq_db, paths, schedule)
            pooled, metrics = run_sustained_serve(
                pool_db, paths, schedule, workers=WORKERS, pool="persistent"
            )
            assert pooled == sequential
            assert metrics["pool_batches"] == float(BENCH_SERVE_STEPS)
            COLLECTED["parity persistent"] = metrics
        finally:
            pool_db.close()

    def test_fork_parity_with_mutations(self):
        """Fork-per-batch answers match sequential on the same load."""
        if not fork_available():
            pytest.skip("needs the fork start method")
        paths, schedule = _load()
        seq_db, __ = serve_bench_db(SERVE_O)
        fork_db, __ = serve_bench_db(SERVE_O)
        sequential, __ = run_sustained_serve(seq_db, paths, schedule)
        forked, metrics = run_sustained_serve(
            fork_db, paths, schedule, workers=WORKERS, pool="fork"
        )
        assert forked == sequential
        assert metrics["pool_batches"] == 0.0
        COLLECTED["parity fork"] = metrics

    def test_warm_workers_build_zero_graphs(self):
        """Covered centres are served from the shipped cache: 0 builds."""
        paths, __ = _load()
        db, __ = serve_bench_db(SERVE_O)
        try:
            builds = serve_warm_start_builds(
                db, [p[0] for p in paths], workers=WORKERS
            )
            assert builds == 0.0
            COLLECTED["warm start"] = {"graph_builds": builds}
        finally:
            db.close()

    def test_persistent_throughput_acceptance(self):
        """>= 2x sustained qps over fork-per-batch at 4 workers.

        The gap is architectural, not scheduling luck: the persistent
        workers' snapped caches retain every build across steps while
        fork children start from the parent's never-warmed cache each
        batch — so the bar holds wherever fork mode itself runs.
        """
        target = parallel_speedup_target(WORKERS)
        if target is None:
            pytest.skip("needs >= 2 cores for a meaningful throughput race")
        if not fork_available():
            pytest.skip("needs the fork start method for the baseline")
        paths, schedule = _load()
        fork_db, __ = serve_bench_db(SERVE_O)
        pool_db, __ = serve_bench_db(SERVE_O)
        try:
            forked, fork_metrics = run_sustained_serve(
                fork_db, paths, schedule, workers=WORKERS, pool="fork"
            )
            pooled, pool_metrics = run_sustained_serve(
                pool_db, paths, schedule, workers=WORKERS, pool="persistent"
            )
            assert pooled == forked  # bit-identical under either engine
            assert pool_metrics["p99_ms"] > 0.0
            COLLECTED["throughput fork"] = fork_metrics
            COLLECTED["throughput persistent"] = pool_metrics
            speedup = pool_metrics["qps"] / fork_metrics["qps"]
            COLLECTED["throughput"] = {"speedup": speedup, "target": target}
            assert speedup >= target, (
                f"persistent pool sustained {pool_metrics['qps']:.1f} qps "
                f"(p99 {pool_metrics['p99_ms']:.1f} ms) vs fork-per-batch "
                f"{fork_metrics['qps']:.1f} qps (p99 "
                f"{fork_metrics['p99_ms']:.1f} ms): {speedup:.2f}x is below "
                f"the {target}x bar on {os.cpu_count() or 1} cores"
            )
        finally:
            pool_db.close()
