"""Cache-effectiveness benchmark: the moving-query workload.

Not a paper figure — this measures the coverage-aware spatial cache
key on the workload it targets (the paper's continuous/moving-query
motivation): a query point advancing in small steps, each step
evaluating obstructed distances to its nearest entities.

Acceptance bar: with the spatial key the workload performs **>= 3x
fewer full graph builds** than with exact centre keys, while returning
**bit-identical** answers (the coverage guard makes off-centre reuse
lossless).  The bar is deterministic (build counters, not wall-clock),
so it is enforced unconditionally — including single-core CI runners.

Scale knobs: ``REPRO_BENCH_O`` (obstacles), ``REPRO_BENCH_MOVING_STEPS``
(path length), ``REPRO_BENCH_PAGE_ENTRIES``.
"""

from __future__ import annotations

from benchmarks.common import (
    BENCH_MOVING_STEPS,
    BENCH_O,
    moving_query_db,
    moving_query_path,
    moving_snap,
    run_moving_query,
)

#: Required reduction in full graph builds (the acceptance bar).
BUILD_REDUCTION_TARGET = 3.0

#: Obstacle cardinality: enough structure for real graphs, small
#: enough to keep the exact-key baseline (one build per step) fast.
MOVING_O = min(BENCH_O, 500)


class TestMovingQueryCache:
    def test_spatial_key_builds_fewer_graphs_with_identical_answers(self):
        exact_db, workload = moving_query_db(MOVING_O, 0.0)
        snapped_db, __ = moving_query_db(MOVING_O, moving_snap())
        path = moving_query_path(workload, BENCH_MOVING_STEPS)

        exact_answers, exact_metrics = run_moving_query(
            exact_db, workload, path
        )
        snapped_answers, snapped_metrics = run_moving_query(
            snapped_db, workload, path
        )

        assert snapped_answers == exact_answers, (
            "spatial cache key changed query answers"
        )
        builds_exact = exact_metrics["graph_builds"]
        builds_snapped = snapped_metrics["graph_builds"]
        assert builds_snapped > 0
        reduction = builds_exact / builds_snapped
        assert reduction >= BUILD_REDUCTION_TARGET, (
            f"spatial key reduced full builds only {reduction:.2f}x "
            f"({builds_exact:.0f} -> {builds_snapped:.0f}) over "
            f"{len(path)} steps; bar is {BUILD_REDUCTION_TARGET}x"
        )

