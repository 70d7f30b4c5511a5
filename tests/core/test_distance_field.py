"""Tests for SourceDistanceField and bounded distance computation."""

import math
import random

import pytest

from repro.core.distance import SourceDistanceField
from repro.core.source import build_obstacle_index
from repro.geometry import Point
from repro.runtime.context import QueryContext
from repro.visibility import VisibilityGraph
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)


def _index(obstacles):
    return build_obstacle_index(obstacles, max_entries=8, min_entries=3)


class TestSourceDistanceField:
    def test_source_distance_zero(self):
        idx = _index([rect_obstacle(0, 5, 5, 6, 6)])
        g = VisibilityGraph.build([Point(0, 0)], [])
        field = SourceDistanceField(g, Point(0, 0), idx)
        assert field.distance_to(Point(0, 0)) == 0.0

    def test_source_need_not_be_a_node(self):
        idx = _index([rect_obstacle(0, 5, 5, 6, 6)])
        g = VisibilityGraph.build([], [])
        field = SourceDistanceField(g, Point(1, 1), idx)
        assert field.distance_to(Point(4, 5)) == pytest.approx(5.0)
        # ... and does not become one: the graph is only read.
        assert not g.has_node(Point(1, 1))
        # Rooted at what it sees once obstacles arrive.
        assert field.distance_to(Point(7, 7)) == pytest.approx(
            oracle_distance(Point(1, 1), Point(7, 7), [rect_obstacle(0, 5, 5, 6, 6)])
        )

    def test_matches_per_pair_computation(self):
        rng = random.Random(7)
        obstacles = random_disjoint_rects(rng, 12)
        pts = random_free_points(rng, 8, obstacles)
        idx = _index(obstacles)
        q = pts[0]
        graph = VisibilityGraph.build([q], [])
        field = SourceDistanceField(graph, q, idx)
        for p in pts[1:]:
            assert field.distance_to(p) == pytest.approx(
                oracle_distance(q, p, obstacles)
            )

    def test_candidate_probe_does_not_mutate_graph(self):
        idx = _index([rect_obstacle(0, 4, -3, 6, 3)])
        q = Point(0, 0)
        graph = VisibilityGraph.build(
            [q], idx.obstacles_in_range(q, 20.0)
        )
        field = SourceDistanceField(graph, q, idx)
        nodes_before = set(graph.nodes())
        field.distance_to(Point(10, 0))
        assert set(graph.nodes()) == nodes_before

    def test_candidate_on_obstacle_boundary(self):
        # probe point exactly on an edge of a known obstacle: the
        # on-the-fly boundary membership must prevent a straight-through
        # "shortcut" across the interior
        box = rect_obstacle(0, 4, -3, 6, 3)
        idx = _index([box])
        q = Point(0, 0)
        graph = VisibilityGraph.build([q], [box])
        field = SourceDistanceField(graph, q, idx)
        p = Point(6, 0)  # on the right edge of the box
        d = field.distance_to(p)
        assert d == pytest.approx(oracle_distance(q, p, [box]))
        assert d > 6.0  # must route around a corner

    def test_bound_prunes_but_never_underestimates(self):
        rng = random.Random(13)
        obstacles = random_disjoint_rects(rng, 10)
        pts = random_free_points(rng, 6, obstacles)
        idx = _index(obstacles)
        q = pts[0]
        graph = VisibilityGraph.build([q], [])
        field = SourceDistanceField(graph, q, idx)
        for p in pts[1:]:
            exact = oracle_distance(q, p, obstacles)
            bounded = field.distance_to(p, bound=exact / 2.0)
            # the bounded value is a lower bound on the truth, and
            # exceeding the bound is the only allowed inexactness
            assert bounded <= exact + 1e-9
            if bounded <= exact / 2.0:
                assert bounded == pytest.approx(exact)

    def test_graph_growth_shared_across_probes(self):
        rng = random.Random(19)
        obstacles = random_disjoint_rects(rng, 10)
        pts = random_free_points(rng, 5, obstacles)
        idx = _index(obstacles)
        q = pts[0]
        graph = VisibilityGraph.build([q], [])
        field = SourceDistanceField(graph, q, idx)
        for p in pts[1:]:
            field.distance_to(p)
        # obstacles discovered for earlier probes persist
        assert graph.obstacle_ids()  # non-empty after probing around

    def test_node_added_after_snapshot_not_inf(self):
        """Regression: a free point admitted to the graph *after* the
        field's Dijkstra snapshot (free-point additions do not bump
        ``obstacle_revision``) must not read ``inf`` out of the stale
        field."""
        wall = rect_obstacle(0, 4, -1, 6, 1)
        idx = _index([wall])
        q = Point(0, 0)
        graph = VisibilityGraph.build([q], [])
        field = SourceDistanceField(graph, q, idx)
        assert field.distance_to(Point(0, 5)) == pytest.approx(5.0)
        late = Point(10, 0)
        assert graph.add_entity(late)  # behind the field's snapshot
        d = field.distance_to(late)
        assert math.isfinite(d)
        assert d == pytest.approx(oracle_distance(q, late, [wall]))


class TestBoundedCompute:
    def test_bound_early_exit_value_exceeds_bound(self):
        wall = rect_obstacle(0, 4, -10, 6, 10)
        idx = _index([wall])
        q, p = Point(0, 0), Point(10, 0)
        d = QueryContext(idx).distance(p, q, bound=5.0)
        assert d > 5.0

    def test_unbounded_still_exact(self):
        wall = rect_obstacle(0, 4, -10, 6, 10)
        idx = _index([wall])
        q, p = Point(0, 0), Point(10, 0)
        d = QueryContext(idx).distance(p, q)
        assert d == pytest.approx(oracle_distance(q, p, [wall]))


class TestONNPruneFlag:
    def test_prune_flag_does_not_change_results(self):
        from repro.core import obstacle_nearest
        from repro.geometry import Rect
        from repro.index import RStarTree, str_pack

        rng = random.Random(23)
        obstacles = random_disjoint_rects(rng, 12)
        entities = random_free_points(rng, 25, obstacles)
        tree = RStarTree(max_entries=8, min_entries=3)
        str_pack(tree, [(p, Rect.from_point(p)) for p in entities])
        idx = _index(obstacles)
        q = random_free_points(random.Random(4), 1, obstacles)[0]
        pruned = obstacle_nearest(tree, idx, q, 5, prune_bound=True)
        exact = obstacle_nearest(tree, idx, q, 5, prune_bound=False)
        assert [p for p, __ in pruned] == [p for p, __ in exact]
        assert [d for __, d in pruned] == pytest.approx([d for __, d in exact])
