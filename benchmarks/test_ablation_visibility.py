"""Ablation — [SS84] rotational sweep vs naive O(n^2 E) construction.

The paper adopts the rotational plane sweep for visibility-graph
construction (Sec. 2.3); this bench quantifies what that choice buys
over the naive all-pairs checker at growing scene sizes.
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
@pytest.mark.parametrize("method", ["python-sweep", "naive"])
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
    """Both kernels must produce the identical graph (checked while
    timing the sweep)."""
    obstacles = street_grid_obstacles(n_obstacles, seed=BENCH_SEED + 2)
    points = entities_following_obstacles(
        n_obstacles, obstacles, seed=BENCH_SEED + 3
    )
    sweep = benchmark.pedantic(
        VisibilityGraph.build,
        args=(points, obstacles),
        kwargs={"method": "python-sweep"},
        rounds=1,
        iterations=1,
    )
    naive = VisibilityGraph.build(points, obstacles, method="naive")
    sweep_adj = {(u, v) for u in sweep.nodes() for v in sweep.neighbors(u)}
    naive_adj = {(u, v) for u in naive.nodes() for v in naive.neighbors(u)}
    assert sweep_adj == naive_adj
