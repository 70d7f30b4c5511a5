"""Sharded storage + parallel batch benchmark.

Not a paper figure — this measures the PR's two architectural changes
on the paper's workload shape (a 200-query ONN batch):

* **sharded retrieval**: a database with spatially sharded obstacle
  storage answers every query identically to the monolithic layout,
  while each obstacle retrieval fans out only to the shards whose
  cells intersect the query disk;
* **parallel batches**: a 4-worker ``batch_nearest`` returns results
  identical to sequential execution, and (given the cores to do it)
  at least a 2x wall-clock speedup.

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

#: Target shard count for the sharded layout.
SHARDS = 16


def _workload(shards=None):
    db, workload = batch_bench_db(
        BATCH_O, (("P1", BATCH_O),), BATCH_QUERIES, shards
    )
    return db, workload.queries[:BATCH_QUERIES]


class TestShardedRetrieval:
    def test_sharded_matches_monolithic_answers(self):
        mono, queries = _workload()
        sharded, __ = _workload(SHARDS)
        sample = queries[:: max(1, len(queries) // 20)]
        assert sharded.batch_nearest("P1", sample, 4) == mono.batch_nearest(
            "P1", sample, 4
        )

    def test_retrieval_fans_out_to_few_shards(self):
        sharded, queries = _workload(SHARDS)
        index = sharded.obstacle_index
        assert index.shard_count > 4
        for tree in index.trees():
            tree.reset_stats()
        # A per-query-disk retrieval touches a strict subset of shards.
        radius = sharded.universe().width * 0.05
        index.obstacles_in_range(queries[0], radius)
        touched = sum(
            1 for t in index.trees() if t.counter.snapshot()["reads"] > 0
        )
        assert 0 < touched < index.shard_count


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

    def test_sharded_parallel_composes(self):
        """Sharding and the worker pool stack: identical answers again."""
        sharded, queries = _workload(SHARDS)
        sample = queries[:40]
        sequential, __ = run_batch_nearest(sharded, "P1", sample, 4)
        parallel, __ = run_batch_nearest(
            sharded, "P1", sample, 4, workers=WORKERS
        )
        assert parallel == sequential
