"""Property-based tests for visibility graph construction and dynamics."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.visibility import VisibilityGraph, naive_visible_from
from tests.strategies import disjoint_rect_obstacles, free_points

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _adjacency(graph: VisibilityGraph) -> set:
    return {(u, v) for u in graph.nodes() for v in graph.neighbors(u)}


@SETTINGS
@given(st.data())
def test_sweep_build_equals_naive_build(data):
    obstacles = data.draw(disjoint_rect_obstacles())
    points = data.draw(free_points(obstacles, min_count=0, max_count=6))
    sweep = VisibilityGraph.build(points, obstacles, method="python-sweep")
    naive = VisibilityGraph.build(points, obstacles, method="naive")
    assert _adjacency(sweep) == _adjacency(naive)


@SETTINGS
@given(st.data())
def test_incremental_obstacles_equal_batch(data):
    obstacles = data.draw(disjoint_rect_obstacles(max_count=5))
    points = data.draw(free_points(obstacles, min_count=0, max_count=4))
    split = data.draw(st.integers(0, len(obstacles)))
    incremental = VisibilityGraph.build(points, obstacles[:split])
    for obs in obstacles[split:]:
        incremental.add_obstacle(obs)
    batch = VisibilityGraph.build(points, obstacles)
    assert _adjacency(incremental) == _adjacency(batch)


@SETTINGS
@given(st.data())
def test_incremental_entities_equal_batch(data):
    obstacles = data.draw(disjoint_rect_obstacles(max_count=5))
    points = data.draw(free_points(obstacles, min_count=0, max_count=6))
    split = data.draw(st.integers(0, len(points)))
    incremental = VisibilityGraph.build(points[:split], obstacles)
    for p in points[split:]:
        incremental.add_entity(p)
    batch = VisibilityGraph.build(points, obstacles)
    assert _adjacency(incremental) == _adjacency(batch)


@SETTINGS
@given(st.data())
def test_delete_entity_restores_prior_graph(data):
    obstacles = data.draw(disjoint_rect_obstacles(max_count=4))
    points = data.draw(free_points(obstacles, min_count=1, max_count=5))
    base = VisibilityGraph.build(points[:-1], obstacles)
    grown = VisibilityGraph.build(points[:-1], obstacles)
    extra = points[-1]
    if grown.add_entity(extra):
        grown.delete_entity(extra)
    assert _adjacency(grown) == _adjacency(base)


@SETTINGS
@given(st.data())
def test_edges_match_oracle_per_node(data):
    obstacles = data.draw(disjoint_rect_obstacles(max_count=4))
    points = data.draw(free_points(obstacles, min_count=0, max_count=4))
    graph = VisibilityGraph.build(points, obstacles)
    nodes = list(graph.nodes())
    for u in nodes[:6]:
        got = set(graph.neighbors(u))
        want = set(
            naive_visible_from(u, [v for v in nodes if v != u], obstacles)
        )
        assert got == want


@SETTINGS
@given(st.data())
def test_edge_weights_are_euclidean(data):
    obstacles = data.draw(disjoint_rect_obstacles(max_count=4))
    points = data.draw(free_points(obstacles, min_count=0, max_count=4))
    graph = VisibilityGraph.build(points, obstacles)
    for u in graph.nodes():
        for v, w in graph.neighbors(u).items():
            assert w == pytest.approx(u.distance(v))
