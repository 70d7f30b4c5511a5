"""Batch query entry points: equivalence and amortization."""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.core.source import build_obstacle_index
from repro.runtime.batch import batch_distance, batch_nearest, batch_range
from repro.runtime.context import QueryContext
from repro.runtime.metric import ObstructedMetric
from tests.conftest import (
    random_disjoint_rects,
    random_free_points,
    small_tree,
)


def _scene(seed, n_obstacles=8, n_points=12):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_points, obstacles)
    return obstacles, points


class TestBatchEquivalence:
    def test_batch_nearest_equals_per_query(self):
        obstacles, points = _scene(41)
        tree = small_tree(points[4:])
        queries = points[:4]
        metric = ObstructedMetric.over(
            build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        )
        batched = batch_nearest(tree, metric, queries, 3)
        for q, result in zip(queries, batched):
            fresh = ObstructedMetric.over(
                build_obstacle_index(obstacles, max_entries=8, min_entries=3)
            )
            from repro.runtime.queries import metric_nearest

            expected = metric_nearest(tree, fresh, q, 3)
            assert [d for __, d in result] == pytest.approx(
                [d for __, d in expected]
            )
            assert [p for p, __ in result] == [p for p, __ in expected]

    def test_batch_range_equals_per_query(self):
        obstacles, points = _scene(42)
        tree = small_tree(points[4:])
        queries = points[:4]
        metric = ObstructedMetric.over(
            build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        )
        batched = batch_range(tree, metric, queries, 30.0)
        from repro.runtime.queries import metric_range

        for q, result in zip(queries, batched):
            fresh = ObstructedMetric.over(
                build_obstacle_index(obstacles, max_entries=8, min_entries=3)
            )
            expected = metric_range(tree, fresh, q, 30.0)
            assert result == [
                (p, pytest.approx(d)) for p, d in expected
            ]

    def test_batch_distance_pairs(self):
        obstacles, points = _scene(43)
        index = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        metric = ObstructedMetric.over(index)
        pairs = [(points[i], points[i + 1]) for i in range(4)]
        got = batch_distance(metric, pairs)
        for (a, b), d in zip(pairs, got):
            assert d == pytest.approx(metric.context.distance(a, b))


class TestBatchAmortization:
    def test_repeated_queries_memoized(self):
        obstacles, points = _scene(44)
        index = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        metric = ObstructedMetric(QueryContext(index))
        tree = small_tree(points[2:])
        q = points[0]
        results = batch_nearest(tree, metric, [q] * 10, 2)
        assert all(r == results[0] for r in results)
        assert metric.context.stats.batch_memo_hits == 9

    def test_repeated_pairs_memoized(self):
        obstacles, points = _scene(46)
        index = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        metric = ObstructedMetric(QueryContext(index))
        calls = []
        distance = metric.context.distance

        def counted(a, b, **kwargs):
            calls.append((a, b))
            return distance(a, b, **kwargs)

        metric.context.distance = counted
        other = (points[2], points[3])
        pairs = [(points[0], points[1])] * 5 + [other] + [(points[0], points[1])]
        results = batch_distance(metric, pairs)
        assert calls == [(points[0], points[1]), other]
        assert results == [results[0]] * 5 + [distance(*other), results[0]]
        assert metric.context.stats.batch_memo_hits == 5

    def test_repeated_pairs_memoized_on_the_pool_branch(self):
        obstacles, points = _scene(47)
        index = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        metric = ObstructedMetric(QueryContext(index))
        a, b = (points[0], points[1]), (points[2], points[3])

        class Pool:
            sent = []

            def run_batch(self, command, items):
                self.sent.append((command, list(items)))
                return [float(i) for i in range(len(items))]

        assert batch_distance(metric, [a, b, a, a, b], pool=Pool()) == [
            0.0, 1.0, 0.0, 0.0, 1.0
        ]
        assert Pool.sent == [(("distance",), [a, b])]
        assert metric.context.stats.batch_memo_hits == 3
        # One distinct pair is not worth a pipe round trip.
        assert batch_distance(metric, [a] * 4, pool=Pool()) == [
            metric.context.distance(*a)
        ] * 4
        assert len(Pool.sent) == 1

    def test_database_batch_api(self):
        obstacles, points = _scene(45)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles], max_entries=8, min_entries=3
        )
        db.add_entity_set("pois", points[4:])
        queries = points[:4] + points[:4]  # duplicates amortize
        batched = db.batch_nearest("pois", queries, 2)
        assert len(batched) == 8
        for q, result in zip(queries, batched):
            assert result == db.nearest("pois", q, 2)
        batched_ranges = db.batch_range("pois", queries, 20.0)
        for q, result in zip(queries, batched_ranges):
            assert result == db.range("pois", q, 20.0)

    def test_tuple_queries_coerced(self):
        db = ObstacleDatabase([Rect(4, 0, 6, 4)], max_entries=8, min_entries=3)
        db.add_entity_set("pois", [Point(10, 2), Point(0, 2)])
        [r1], [r2] = db.batch_nearest("pois", [(0.0, 2.0), (10.0, 2.0)], 1)
        assert r1 == (Point(0, 2), 0.0)
        assert r2 == (Point(10, 2), 0.0)
