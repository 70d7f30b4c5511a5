"""Parallel batch benchmark.

Not a paper figure — this measures parallel batches on the paper's
workload shape (a 200-query ONN batch): a 4-worker ``batch_nearest``
returns results identical to sequential execution, and (given the
cores to do it) at least a 2x wall-clock speedup.

The speedup assertion needs real parallel hardware: every ``>= Nx``
bar routes through :func:`benchmarks.common.parallel_speedup_target`,
which returns ``None`` on single-core runners (skip — parity only), a
reduced bar on 2-3 cores, and the full bar at >= 4 cores; a platform
without fork runs the batch sequentially and is skipped.  Result parity
is asserted everywhere, always.

Scale knobs: ``REPRO_BENCH_O`` (obstacles; the 200-query count is
fixed by the paper's setup), ``REPRO_BENCH_PAGE_ENTRIES``.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.common import (
    BENCH_O,
    batch_bench_db,
    parallel_speedup_target,
    run_batch_nearest,
)
from repro.serve.pool import fork_available

#: The paper's workload size (Sec. 7: 200 queries per workload).
BATCH_QUERIES = 200

#: Worker count of the acceptance run.
WORKERS = 4

#: Obstacle cardinality for the batch runs: enough work per query to
#: dominate the pool's fork/join overhead, small enough to keep the
#: sequential baseline in seconds.
BATCH_O = min(BENCH_O, 500)

def _workload():
    db, workload = batch_bench_db(BATCH_O, (("P1", BATCH_O),), BATCH_QUERIES)
    return db, workload.queries[:BATCH_QUERIES]


class TestParallelBatch:
    def test_parallel_results_identical_to_sequential(self):
        db, queries = _workload()
        sequential, __ = run_batch_nearest(db, "P1", queries, 4)
        parallel, metrics = run_batch_nearest(
            db, "P1", queries, 4, workers=WORKERS
        )
        assert parallel == sequential
        assert metrics["parallel_batches"] == 1.0

    def test_parallel_speedup_acceptance(self, benchmark=None):
        """>= 2x wall-clock on the 200-query workload with 4 workers.

        Needs >= 2 physical cores and the fork start method; the
        *correctness* of the parallel path is covered above and in
        tier-1 — this asserts the performance claim where the hardware
        can express it.
        """
        cores = os.cpu_count() or 1
        target = parallel_speedup_target(WORKERS)
        if target is None:
            pytest.skip(f"needs >= 2 cores for a speedup (have {cores})")
        if not fork_available():
            pytest.skip("needs the fork start method")
        db, queries = _workload()
        __, warm = run_batch_nearest(db, "P1", queries[:8], 4)  # warm caches
        sequential, seq_metrics = run_batch_nearest(db, "P1", queries, 4)
        parallel, par_metrics = run_batch_nearest(
            db, "P1", queries, 4, workers=WORKERS
        )
        assert parallel == sequential
        speedup = seq_metrics["cpu_s"] / par_metrics["cpu_s"]
        assert speedup >= target, (
            f"4-worker batch speedup {speedup:.2f}x below the "
            f"{target}x bar on {cores} cores "
            f"(seq {seq_metrics['cpu_s']:.2f}s, par {par_metrics['cpu_s']:.2f}s)"
        )
