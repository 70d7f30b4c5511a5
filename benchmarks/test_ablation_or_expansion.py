"""Ablation — OR's single shared expansion vs per-candidate distances.

Fig. 5's key design choice: one Dijkstra-style expansion from the query
point serves *all* candidates.  The naive alternative evaluates one
fresh point-to-point distance (Fig. 8, a new ``QueryContext`` and so a
new local graph) per candidate.  Both must agree on the result; the
shared expansion should be faster once candidates are plentiful.
"""

import pytest

from benchmarks.common import (
    BENCH_O,
    BENCH_QUERIES,
    bench_db,
    cardinality_spec,
    queries_for,
    scaled_range,
)
from repro.core.range import obstacle_range
from repro.euclidean.range import entities_in_range
from repro.runtime.context import QueryContext


def _or_per_candidate(entity_tree, obstacle_index, q, e):
    """The strawman OR: one obstructed-distance evaluation per candidate."""
    out = []
    for p in entities_in_range(entity_tree, q, e):
        d = QueryContext(obstacle_index).distance(p, q)
        if d <= e:
            out.append((p, d))
    out.sort(key=lambda pd: pd[1])
    return out


@pytest.mark.parametrize("variant", ["shared-expansion", "per-candidate"])
def test_ablation_or_expansion(benchmark, variant):
    db, workload = bench_db(BENCH_O, cardinality_spec(), BENCH_QUERIES)
    e = scaled_range(0.001)
    tree = db.entity_tree("P2")
    idx = db.obstacle_index
    queries = workload.queries[: queries_for(2)]

    def run_shared():
        return [obstacle_range(tree, idx, q, e) for q in queries]

    def run_naive():
        return [_or_per_candidate(tree, idx, q, e) for q in queries]

    run = run_shared if variant == "shared-expansion" else run_naive
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["avg_results"] = sum(len(r) for r in results) / len(results)

    # Equivalence check against the other variant on the first query.
    other = (run_naive if variant == "shared-expansion" else run_shared)()
    got = {p for p, __ in results[0]}
    want = {p for p, __ in other[0]}
    assert got == want
