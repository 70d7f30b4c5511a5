"""Tests for SourceDistanceField and bounded distance computation."""

import math
import random

import pytest

from repro.core.source import build_obstacle_index
from repro.geometry import Point
from repro.runtime.context import QueryContext
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)
from tests.reference_field import ReferenceField


def _index(obstacles):
    return build_obstacle_index(obstacles, max_entries=8, min_entries=3)


class TestSourceDistanceField:
    def test_source_distance_zero(self):
        idx = _index([rect_obstacle(0, 5, 5, 6, 6)])
        field = QueryContext(idx).field_for(Point(0, 0))
        assert field.distance_to(Point(0, 0)) == 0.0

    def test_source_need_not_be_a_node(self):
        idx = _index([rect_obstacle(0, 5, 5, 6, 6)])
        # With spatial keys (1, 1) shares the graph centred at (0, 0).
        ctx = QueryContext(idx, snap=10.0)
        ctx.field_for(Point(0, 0))
        field = ctx.field_for(Point(1, 1))
        assert field.distance_to(Point(4, 5)) == pytest.approx(5.0)
        # ... and does not become one: the graph is only read.
        assert not field.graph.has_node(Point(1, 1))
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
        field = QueryContext(idx).field_for(q)
        for p in pts[1:]:
            assert field.distance_to(p) == pytest.approx(
                oracle_distance(q, p, obstacles)
            )

    def test_candidate_probe_does_not_mutate_graph(self):
        idx = _index([rect_obstacle(0, 4, -3, 6, 3)])
        q = Point(0, 0)
        field = QueryContext(idx).field_for(q, 20.0)
        nodes_before = set(field.graph.nodes())
        field.distance_to(Point(10, 0))
        assert set(field.graph.nodes()) == nodes_before

    def test_candidate_on_obstacle_boundary(self):
        # probe point exactly on an edge of a known obstacle: the
        # on-the-fly boundary membership must prevent a straight-through
        # "shortcut" across the interior
        box = rect_obstacle(0, 4, -3, 6, 3)
        idx = _index([box])
        q = Point(0, 0)
        field = QueryContext(idx).field_for(q, 10.0)
        assert field.graph.obstacle_ids() == {0}
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
        field = QueryContext(idx).field_for(q)
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
        field = QueryContext(idx).field_for(q)
        for p in pts[1:]:
            field.distance_to(p)
        # obstacles discovered for earlier probes persist
        assert field.graph.obstacle_ids()  # non-empty after probing around

    def test_node_added_after_snapshot_not_inf(self):
        """Regression: a free point admitted to the graph *after* the
        field's Dijkstra snapshot (free-point additions do not bump
        ``obstacle_revision``) must not read ``inf`` out of the stale
        field."""
        wall = rect_obstacle(0, 4, -1, 6, 1)
        idx = _index([wall])
        q = Point(0, 0)
        field = QueryContext(idx).field_for(q)
        assert field.distance_to(Point(0, 5)) == pytest.approx(5.0)
        late = Point(10, 0)
        assert field.graph.add_entity(late)  # behind the field's snapshot
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
    def test_pruned_answers_equal_the_reference_field(self):
        """ONN's candidates stop their Fig. 8 loop at the current k-th
        distance; what it reports is still every entity's exact
        distance, bit for bit the reference field's, in its order."""
        from repro.core import obstacle_nearest
        from repro.geometry import Rect
        from repro.index import RStarTree, str_pack

        rng = random.Random(23)
        obstacles = random_disjoint_rects(rng, 12)
        entities = random_free_points(rng, 25, obstacles)
        tree = RStarTree(max_entries=8, min_entries=3)
        str_pack(tree, [(p, Rect.from_point(p)) for p in entities])
        idx = _index(obstacles)
        for q in random_free_points(random.Random(4), 4, obstacles):
            reference = ReferenceField(q, idx)
            exact = sorted((reference.distance_to(p), p) for p in entities)
            for k in (1, 5, len(entities)):
                got = obstacle_nearest(tree, idx, q, k)
                assert got == [(p, d) for d, p in exact[:k]]
