"""QueryContext: shared graphs, coverage tracking, version invalidation."""

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


def _index(obstacles):
    return build_obstacle_index(obstacles, max_entries=8, min_entries=3)


class TestDistance:
    def test_matches_oracle(self):
        rng = random.Random(101)
        obstacles = random_disjoint_rects(rng, 12)
        pts = random_free_points(rng, 8, obstacles)
        ctx = QueryContext(_index(obstacles))
        for a, b in zip(pts[:4], pts[4:]):
            assert ctx.distance(a, b) == pytest.approx(
                oracle_distance(a, b, obstacles)
            )

    def test_identical_points(self):
        ctx = QueryContext(_index([rect_obstacle(0, 0, 0, 1, 1)]))
        assert ctx.distance(Point(5, 5), Point(5, 5)) == 0.0

    def test_bound_pruning_never_underestimates(self):
        wall = rect_obstacle(0, 4, -10, 6, 10)
        ctx = QueryContext(_index([wall]))
        a, b = Point(0, 0), Point(10, 0)
        exact = ctx.distance(a, b)
        pruned = QueryContext(_index([wall])).distance(a, b, bound=5.0)
        assert exact > 10.0
        assert pruned > 5.0  # pruning may stop early but never below bound

    def test_transient_entity_removed(self):
        ctx = QueryContext(_index([rect_obstacle(0, 4, 0, 6, 4)]))
        a, b = Point(0, 2), Point(10, 2)
        ctx.distance(a, b)
        entry = ctx.cache.get(b, ctx.version)
        assert entry is not None
        assert not entry.graph.has_node(a)
        assert entry.graph.has_node(b)


class TestGraphReuse:
    def test_repeated_center_builds_one_graph(self):
        rng = random.Random(7)
        obstacles = random_disjoint_rects(rng, 10)
        pts = random_free_points(rng, 6, obstacles)
        ctx = QueryContext(_index(obstacles))
        center = pts[0]
        for p in pts[1:]:
            ctx.distance(p, center)
        for p in pts[1:]:
            ctx.distance(p, center)
        assert ctx.stats.graph_builds == 1
        assert ctx.stats.distance_calls == 10

    def test_covered_radius_skips_retrieval(self):
        obstacles = [rect_obstacle(0, 4, 0, 6, 4)]
        ctx = QueryContext(_index(obstacles))
        q = Point(10, 2)
        far = Point(-10, 2)
        near = Point(5, 10)
        ctx.distance(far, q)
        expansions = ctx.stats.coverage_expansions
        # The second pair lies well inside the already-covered disk:
        # its whole Fig. 8 iteration needs no obstacle retrieval.
        ctx.distance(near, q)
        assert ctx.stats.coverage_expansions == expansions

    def test_coverage_grows_monotonically(self):
        ctx = QueryContext(_index([rect_obstacle(0, 4, 0, 6, 4)]))
        q = Point(0, 0)
        entry = ctx.entry_for(q, 5.0)
        assert entry.covered == 5.0
        ctx.entry_for(q, 3.0)
        assert entry.covered == 5.0
        ctx.entry_for(q, 8.0)
        assert entry.covered == 8.0

    def test_consistent_results_across_reuse(self):
        rng = random.Random(33)
        obstacles = random_disjoint_rects(rng, 14)
        pts = random_free_points(rng, 8, obstacles)
        ctx = QueryContext(_index(obstacles), cache_size=2)
        center = pts[0]
        first = [ctx.distance(p, center) for p in pts[1:]]
        second = [ctx.distance(p, center) for p in pts[1:]]
        assert first == second


    def test_evicted_center_answers_the_same(self):
        rng = random.Random(22)
        obstacles = random_disjoint_rects(rng, 6)
        pts = random_free_points(rng, 6, obstacles)
        ctx = QueryContext(_index(obstacles), cache_size=1)
        d1 = ctx.distance(pts[0], pts[1])
        ctx.distance(pts[2], pts[3])  # evicts the graph for pts[1]
        assert ctx.stats.graph_cache_evictions == 1
        assert ctx.distance(pts[0], pts[1]) == d1

    def test_invalidate_drops_graphs_not_answers(self):
        ctx = QueryContext(_index([rect_obstacle(0, 4, 0, 6, 4)]))
        d1 = ctx.distance(Point(0, 1), Point(10, 1))
        ctx.invalidate()
        assert len(ctx.cache) == 0
        assert ctx.distance(Point(0, 1), Point(10, 1)) == d1
        assert ctx.stats.graph_builds == 2

    def test_symmetry(self):
        rng = random.Random(30)
        obstacles = random_disjoint_rects(rng, 12)
        pts = random_free_points(rng, 4, obstacles)
        ctx = QueryContext(_index(obstacles))
        for a, b in zip(pts[:2], pts[2:]):
            assert ctx.distance(a, b) == pytest.approx(ctx.distance(b, a))


class TestVersionInvalidation:
    def test_insert_repairs_cached_graph(self):
        index = _index([rect_obstacle(0, 100, 100, 101, 101)])
        ctx = QueryContext(index)
        a, b = Point(0, 0), Point(10, 0)
        assert ctx.distance(a, b) == pytest.approx(10.0)
        wall = rect_obstacle(1, 4, -10, 6, 10)
        index.insert(wall)
        d = ctx.distance(a, b)
        assert d == pytest.approx(oracle_distance(a, b, [wall]))
        assert d > 10.0
        # The mutation feed repaired the cached graph in place — no
        # invalidation, no rebuild, one build total.
        assert ctx.stats.graph_cache_repairs >= 1
        assert ctx.stats.graph_cache_invalidations == 0
        assert ctx.stats.graph_builds == 1

    def test_delete_restores_distance(self):
        wall = rect_obstacle(0, 4, -10, 6, 10)
        index = _index([wall])
        ctx = QueryContext(index)
        a, b = Point(0, 0), Point(10, 0)
        blocked = ctx.distance(a, b)
        assert blocked > 10.0
        stored = index.obstacles_in_range(Point(5, 0), 2.0)[0]
        assert index.delete(stored)
        assert ctx.distance(a, b) == pytest.approx(10.0)

    def test_field_for_matches_oracle(self):
        rng = random.Random(55)
        obstacles = random_disjoint_rects(rng, 12)
        pts = random_free_points(rng, 7, obstacles)
        ctx = QueryContext(_index(obstacles))
        q = pts[0]
        field = ctx.field_for(q, radius=5.0)
        for p in pts[1:]:
            assert field.distance_to(p) == pytest.approx(
                oracle_distance(q, p, obstacles)
            )

    def test_shared_graph_field_sees_other_users_obstacles(self):
        # A field and a distance evaluation share the cached graph for
        # q; obstacles discovered by the distance call must invalidate
        # the field's Dijkstra snapshot (obstacle_revision check).
        wall = rect_obstacle(0, 4, -10, 6, 10)
        index = _index([wall])
        ctx = QueryContext(index)
        q = Point(10, 0)
        field = ctx.field_for(q)  # zero-coverage graph: no obstacles yet
        # Prime the shared graph through a different path.
        ctx.distance(Point(0, 0), q)
        assert field.graph.has_obstacle(0)
        expected = oracle_distance(Point(0, 1), q, [wall])
        assert field.distance_to(Point(0, 1)) == pytest.approx(expected)
