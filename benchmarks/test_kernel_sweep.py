"""Visibility kernel benchmark: the array predicate vs the naive oracle.

Not a paper figure — this measures the visibility kernel subsystem:
(tangent) visibility-graph construction — the numpy kernel decides the
tangent pairs with the exact predicate over arrays, the ``naive``
oracle one pair at a time — across obstacle cardinalities, once per
backend, from the 56-vertex graphs the end-to-end benchmark's cold
queries build up to 1,000 vertices.  The acceptance bars for the numpy
kernel: a >= 3x build speedup over the oracle on a 1,000-vertex scene
with a bit-identical resulting graph; anchoring all nodes (every pair
``(p, v)`` decided) in one batched call >= 2x faster than one call per
node at 56 vertices, and not slower at 1,000 (where the kernel's cell
budget cuts the calls to a source or so each); the nodes of 16 graphs
of ~13 nodes — a distance join's seeds — anchored in one scenes call
>= 2x faster than in one call per graph.  And for the exact predicate
itself: every node pair of the 56-vertex scene against every obstacle
through ``crosses_interior_many`` >= 5x faster than the
``Polygon.crosses_interior`` loop, with an identical mask.

Run standalone (pytest-benchmark)::

    PYTHONPATH=src python -m pytest benchmarks/test_kernel_sweep.py

or as part of the CI smoke pass (``python benchmarks/run_all.py
--smoke``), which uses a smaller scene and only sanity-checks that the
kernel wins at all.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.common import kernel_comparison
from repro.datasets.synthetic import street_grid_obstacles
from repro.visibility import VisibilityGraph
from repro.visibility.kernel import exact

#: Rectangle counts per measured scene (4 vertices each); 14 is the
#: size of the graphs ``paper-cold`` builds (benchmarks/e2e).
KERNEL_CARDINALITIES = (14, 32, 96, 250)

#: The workload-sized scene: 14 rectangles = 56 obstacle vertices.
WORKLOAD_RECTS = 14

#: The acceptance scene: 250 rectangles = 1,000 obstacle vertices.
ACCEPTANCE_RECTS = 250

#: Required build-time speedup of ``numpy-kernel`` over ``naive`` on
#: the acceptance scene.
SPEEDUP_TARGET = 3.0

#: Required batched-vs-per-source anchor ratio on the workload-sized
#: scene, and the floor on the acceptance scene ("not slower", with
#: room for timer noise).
BATCH_SPEEDUP_TARGET = 2.0
BATCH_LARGE_FLOOR = 0.9

#: Required scenes-vs-per-graph anchor ratio on a distance join's
#: traffic: 16 scenes of 3 rectangles and a free centre each.
SCENES = 16
SCENES_SPEEDUP_TARGET = 2.0

#: Required speedup of the array-evaluated exact predicate over the
#: scalar loop on the workload-sized scene: five runs on a 2-core box
#: measured 8.3-11.8x (both forms decide by signs first), and 5 is the
#: largest round number 1.5x below the least of them.
EXACT_SPEEDUP_TARGET = 5.0

_BACKENDS = ("naive", "numpy-kernel")


@pytest.mark.parametrize("method", _BACKENDS)
@pytest.mark.parametrize("n_rects", KERNEL_CARDINALITIES)
def test_graph_build(benchmark, n_rects, method):
    if method == "numpy-kernel":
        pytest.importorskip("numpy")
    obstacles = street_grid_obstacles(n_rects, seed=7)

    graphs = []

    def build():
        graphs.append(VisibilityGraph.build([], obstacles, method=method))

    benchmark.pedantic(build, rounds=1, iterations=1)
    benchmark.extra_info["n_vertices"] = 4 * n_rects
    benchmark.extra_info["backend"] = method
    benchmark.extra_info["edges"] = graphs[-1].edge_count


@pytest.fixture(scope="module")
def acceptance_metrics():
    """The 1,000-vertex comparison, measured once for both bars."""
    pytest.importorskip("numpy")
    return kernel_comparison(ACCEPTANCE_RECTS)


def test_kernel_speedup_acceptance(acceptance_metrics):
    """The acceptance check: >= 3x faster construction on 1k vertices,
    with both backends producing the same graph."""
    metrics = acceptance_metrics
    assert metrics["edges_match"] == 1.0
    assert metrics["speedup"] >= SPEEDUP_TARGET, (
        f"numpy-kernel speedup {metrics['speedup']:.2f}x "
        f"below the {SPEEDUP_TARGET}x acceptance bar"
    )


def test_batched_sweep_acceptance(acceptance_metrics):
    """One kernel call for all nodes: >= 2x faster than a call per node
    where the workload lives, no slower where scenes are large, and the
    same lists in the same order everywhere."""
    small = kernel_comparison(WORKLOAD_RECTS)
    assert small["batch_match"] == 1.0
    assert small["batch_speedup"] >= BATCH_SPEEDUP_TARGET, (
        f"batched anchors {small['batch_speedup']:.2f}x at "
        f"{4 * WORKLOAD_RECTS} vertices, below {BATCH_SPEEDUP_TARGET}x"
    )
    large = acceptance_metrics
    assert large["batch_match"] == 1.0
    assert large["batch_speedup"] >= BATCH_LARGE_FLOOR, (
        f"batched anchors {large['batch_speedup']:.2f}x at "
        f"{4 * ACCEPTANCE_RECTS} vertices: slower than per-source anchors"
    )


def test_scenes_sweep_acceptance():
    """Every node of 16 street-grid graphs of ~13 nodes — 3 rectangles
    and a free centre, the graphs ``paper-join`` builds per seed — in
    one ``visible_from_scenes`` call against one ``visible_from_many``
    call per graph: the same lists, >= 2x faster (best of nine rounds
    each; 2.6-2.8x measured — a third of the scenes call is per-source
    python no array pass amortizes)."""
    from repro.geometry import Point
    from repro.visibility import resolve_backend

    backend = resolve_backend("numpy-kernel")
    scenes = []
    for seed in range(SCENES):
        obstacles = street_grid_obstacles(3, seed=seed)
        xs = [v.x for o in obstacles for v in o.polygon.vertices]
        ys = [v.y for o in obstacles for v in o.polygon.vertices]
        centre = Point(sum(xs) / len(xs) + 0.37, sum(ys) / len(ys) - 0.41)
        graph = VisibilityGraph.build([centre], obstacles, method=backend)
        scenes.append((list(graph.nodes()), graph))

    def per_graph():
        return [backend.visible_from_many(nodes, graph) for nodes, graph in scenes]

    def together():
        return backend.visible_from_scenes(scenes)

    def best(fn):
        rounds = []
        for __ in range(9):
            t0 = time.perf_counter()
            result = fn()
            rounds.append(time.perf_counter() - t0)
        return min(rounds), result

    per_graph_s, want = best(per_graph)
    together_s, got = best(together)
    assert got == want
    assert sum(map(len, want)) == 13 * SCENES
    assert per_graph_s / together_s >= SCENES_SPEEDUP_TARGET, (
        f"one scenes call {per_graph_s / together_s:.2f}x the per-graph calls "
        f"({together_s * 1e3:.2f} ms vs {per_graph_s * 1e3:.2f} ms over "
        f"{SCENES} scenes), below {SCENES_SPEEDUP_TARGET}x"
    )


def test_exact_predicate_acceptance():
    """All node pairs x all obstacles of the workload-sized scene: the
    array-evaluated predicate returns the scalar loop's mask, >= 5x
    faster (best of three rounds each)."""
    polygons = [o.polygon for o in street_grid_obstacles(WORKLOAD_RECTS, seed=7)]
    nodes = [v for p in polygons for v in p.vertices]
    segments = [(a, b) for a in nodes for b in nodes if a != b]
    segs = np.array([(a.x, a.y, b.x, b.y) for a, b in segments])
    geom = exact.pack_polygons(polygons)
    pair_seg = np.arange(len(segments)).repeat(len(polygons))
    pair_obs = np.tile(np.arange(len(polygons)), len(segments))

    def scalar():
        return [
            polygons[o].crosses_interior(*segments[s])
            for s, o in zip(pair_seg.tolist(), pair_obs.tolist())
        ]

    def arrays():
        return exact.crosses_interior_many(segs, geom, pair_seg, pair_obs)

    def best(fn):
        rounds = []
        for __ in range(3):
            t0 = time.perf_counter()
            result = fn()
            rounds.append(time.perf_counter() - t0)
        return min(rounds), result

    scalar_s, want = best(scalar)
    arrays_s, got = best(arrays)
    assert got.tolist() == want
    assert scalar_s / arrays_s >= EXACT_SPEEDUP_TARGET, (
        f"crosses_interior_many {scalar_s / arrays_s:.2f}x the scalar loop "
        f"({arrays_s * 1e3:.1f} ms vs {scalar_s * 1e3:.1f} ms over "
        f"{len(want)} pairs), below {EXACT_SPEEDUP_TARGET}x"
    )
