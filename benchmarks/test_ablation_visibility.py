"""Ablation — the array predicate vs the naive pair-by-pair checker.

The paper adopts the rotational plane sweep [SS84] for visibility-graph
construction (Sec. 2.3).  Here every tangent node pair is decided by
one exact predicate instead, either over arrays (``numpy-kernel``) or
one pair at a time (``naive``); this bench quantifies what the arrays
buy at growing scene sizes, and that both build the same graph.
"""

import pytest

from benchmarks.common import BENCH_SEED
from repro.datasets.synthetic import (
    entities_following_obstacles,
    street_grid_obstacles,
)
from repro.visibility.graph import VisibilityGraph

SCENE_SIZES = (10, 30, 60)


@pytest.mark.parametrize("n_obstacles", SCENE_SIZES)
@pytest.mark.parametrize("method", ["numpy-kernel", "naive"])
def test_ablation_visibility_construction(benchmark, method, n_obstacles):
    obstacles = street_grid_obstacles(n_obstacles, seed=BENCH_SEED)
    points = entities_following_obstacles(
        2 * n_obstacles, obstacles, seed=BENCH_SEED + 1
    )

    graph = benchmark.pedantic(
        VisibilityGraph.build,
        args=(points, obstacles),
        kwargs={"method": method},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["method"] = method
    benchmark.extra_info["n_obstacles"] = n_obstacles
    benchmark.extra_info["nodes"] = graph.node_count
    benchmark.extra_info["edges"] = graph.edge_count
    assert graph.node_count >= 4 * n_obstacles


@pytest.mark.parametrize("n_obstacles", SCENE_SIZES[:2])
def test_ablation_visibility_equivalence(benchmark, n_obstacles):
    """Both backends must produce the identical graph (checked while
    timing the naive one)."""
    obstacles = street_grid_obstacles(n_obstacles, seed=BENCH_SEED + 2)
    points = entities_following_obstacles(
        n_obstacles, obstacles, seed=BENCH_SEED + 3
    )
    naive = benchmark.pedantic(
        VisibilityGraph.build,
        args=(points, obstacles),
        kwargs={"method": "naive"},
        rounds=1,
        iterations=1,
    )
    kernel = VisibilityGraph.build(points, obstacles, method="numpy-kernel")
    kernel_adj = {(u, v) for u in kernel.nodes() for v in kernel.neighbors(u)}
    naive_adj = {(u, v) for u in naive.nodes() for v in naive.neighbors(u)}
    assert kernel_adj == naive_adj
