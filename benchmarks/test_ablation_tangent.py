"""Ablation — tangent visibility graph [PV95] vs the full graph.

For convex obstacles the tangent graph preserves shortest paths while
holding far fewer edges (paper Sec. 2.3).  This bench measures the
edge reduction and the resulting Dijkstra speedup, and verifies
distance preservation on a sample of node pairs.
"""

import pytest

from benchmarks.common import BENCH_SEED
from repro.datasets.synthetic import (
    entities_following_obstacles,
    street_grid_obstacles,
)
from repro.visibility.csr import frozen
from repro.visibility.graph import VisibilityGraph
from repro.visibility.tangent import prune_to_tangent


def _pair_distances(graph, points):
    """Distances from each of ``points[:6]`` to each of
    ``points[6:12]`` (all graph nodes), one frozen search per source."""
    csr = frozen(graph)
    targets = [csr.index[b] for b in points[6:12]]
    total = 0.0
    for a in points[:6]:
        dist, __ = csr.dijkstra(csr.index[a], targets=targets)
        total += float(dist[targets].sum())
    return total


@pytest.mark.parametrize("variant", ["full", "tangent"])
def test_ablation_tangent_graph(benchmark, variant):
    obstacles = street_grid_obstacles(40, seed=BENCH_SEED)
    points = entities_following_obstacles(20, obstacles, seed=BENCH_SEED + 5)

    def build():
        graph = VisibilityGraph.build(points, obstacles)
        if variant == "tangent":
            prune_to_tangent(graph)
        # representative query load: all-pairs distances over the
        # free points
        return graph, _pair_distances(graph, points)

    graph, total = benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["edges"] = graph.edge_count
    benchmark.extra_info["distance_checksum"] = round(total, 6)

    # Distances must be identical across variants.
    reference = VisibilityGraph.build(points, obstacles)
    assert total == pytest.approx(_pair_distances(reference, points))
