"""The parallel batch engine: equivalence, stats merging, guards."""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.core.source import build_obstacle_index
from repro.errors import DatasetError, QueryError
from repro.runtime.batch import batch_distance, batch_nearest, batch_range
from repro.runtime.context import QueryContext
from repro.runtime.executor import (
    BatchExecutor,
    _chunk_ranges,
    fork_available,
)
from repro.runtime.metric import EuclideanMetric, ObstructedMetric
from tests.conftest import (
    random_disjoint_rects,
    random_free_points,
    small_tree,
)


def _scene(seed, n_obstacles=10, n_points=18):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_points, obstacles)
    return obstacles, points


def _metric(obstacles):
    index = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    return ObstructedMetric(QueryContext(index))


def _small_db(seed=200, n_points=18, n_queries=6):
    obstacles, points = _scene(seed, n_points=n_points)
    db = ObstacleDatabase(
        [o.polygon for o in obstacles], max_entries=8, min_entries=3
    )
    db.add_entity_set("pois", points[n_queries:])
    return db, points[:n_queries]


class TestResolution:
    def test_workers_default_is_sequential(self):
        db, queries = _small_db()
        assert db.batch_nearest("pois", queries, 1, workers=None) == (
            db.batch_nearest("pois", queries, 1, workers=0)
        )
        assert db.runtime_stats()["parallel_batches"] == 0

    def test_workers_negative_rejected(self):
        db, queries = _small_db()
        for call in (
            lambda: db.batch_nearest("pois", queries, 1, workers=-1),
            lambda: db.batch_range("pois", queries, 5.0, workers=-1),
            lambda: db.batch_distance([(queries[0], queries[1])], workers=-1),
        ):
            with pytest.raises(QueryError, match="worker count"):
                call()

    def test_no_fork_runs_sequentially(self, monkeypatch):
        """Where the platform cannot fork, a ``pool="fork"`` batch is
        the slower exact answer: the sequential path."""
        db, queries = _small_db()
        expected = db.batch_nearest("pois", queries, 2)
        monkeypatch.setattr("repro.runtime.batch.fork_available", lambda: False)
        assert db.batch_nearest("pois", queries, 2, workers=2) == expected
        assert db.runtime_stats()["parallel_batches"] == 0

    def test_chunk_ranges_cover_everything(self):
        for n in (1, 2, 7, 16):
            for parts in (1, 2, 3, 5):
                ranges = _chunk_ranges(n, parts)
                flat = [i for a, b in ranges for i in range(a, b)]
                assert flat == list(range(n))

    def test_sequential_executor_refuses_run(self):
        with pytest.raises(QueryError):
            BatchExecutor(workers=0).run(
                EuclideanMetric(), [Point(0, 0)], lambda m, q: q
            )


@pytest.mark.skipif(not fork_available(), reason="fork unavailable")
class TestParallelEquivalence:
    def test_batch_nearest_matches_sequential(self):
        obstacles, points = _scene(201)
        tree = small_tree(points[6:])
        queries = points[:6] + points[:3]  # with duplicates
        sequential = batch_nearest(tree, _metric(obstacles), queries, 2)
        parallel = batch_nearest(
            tree, _metric(obstacles), queries, 2, workers=4
        )
        assert parallel == sequential

    def test_batch_range_matches_sequential(self):
        obstacles, points = _scene(202)
        tree = small_tree(points[6:])
        queries = points[:6]
        sequential = batch_range(tree, _metric(obstacles), queries, 28.0)
        parallel = batch_range(
            tree, _metric(obstacles), queries, 28.0, workers=3
        )
        assert parallel == sequential

    def test_batch_distance_forks_like_its_siblings(self):
        db, points = _small_db(205)
        pairs = [(points[i], points[i + 1]) for i in range(5)]
        pairs += pairs[:2]  # with duplicates
        sequential = db.batch_distance(pairs)
        assert db.runtime_stats()["parallel_batches"] == 0
        assert db.batch_distance(pairs, workers=2, pool="fork") == sequential
        stats = db.runtime_stats()
        assert stats["parallel_batches"] == 1 and stats["pool_batches"] == 0

    def test_database_batch_parallel(self):
        obstacles, points = _scene(203)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles], max_entries=8, min_entries=3
        )
        db.add_entity_set("pois", points[5:])
        queries = points[:5]
        sequential = db.batch_nearest("pois", queries, 2)
        parallel = db.batch_nearest("pois", queries, 2, workers=4)
        assert parallel == sequential
        assert db.runtime_stats()["parallel_batches"] >= 1

    def test_more_workers_than_queries(self):
        obstacles, points = _scene(204, n_points=8)
        tree = small_tree(points[2:])
        sequential = batch_nearest(tree, _metric(obstacles), points[:2], 1)
        parallel = batch_nearest(
            tree, _metric(obstacles), points[:2], 1, workers=8
        )
        assert parallel == sequential

    def test_euclidean_metric_parallelizes(self):
        __, points = _scene(205, n_obstacles=0)
        tree = small_tree(points[4:])
        metric = EuclideanMetric()
        sequential = batch_nearest(tree, metric, points[:4], 2)
        parallel = batch_nearest(tree, metric, points[:4], 2, workers=2)
        assert parallel == sequential

    def test_unspawnable_metric_falls_back_to_sequential(self):
        class Plain:
            """DistanceOracle without spawn(): cannot fan out."""

            def distance(self, p, q, *, bound=float("inf")):
                return p.distance(q)

            def lower_bound(self, p, q):
                return p.distance(q)

            def field(self, q, *, radius=0.0):
                return type(
                    "F", (), {"distance_to": lambda s, p, bound=0: q.distance(p)}
                )()

            def range_refine(self, q, e, candidates):
                return sorted(
                    ((p, q.distance(p)) for p in candidates if q.distance(p) <= e),
                    key=lambda pair: pair[1],
                )

        __, points = _scene(206, n_obstacles=0)
        tree = small_tree(points[3:])
        result = batch_nearest(tree, Plain(), points[:3], 1, workers=4)
        assert len(result) == 3


class TestStatsAndMemo:
    @pytest.mark.skipif(not fork_available(), reason="fork unavailable")
    def test_worker_stats_merged_on_join(self):
        obstacles, points = _scene(207)
        tree = small_tree(points[6:])
        metric = _metric(obstacles)
        batch_nearest(tree, metric, points[:6], 2, workers=3)
        stats = metric.context.stats
        # The parent context ran nothing itself; every sweep/build
        # counted must have come from merged worker snapshots.
        assert stats.parallel_batches == 1
        assert stats.graph_builds > 0
        assert stats.field_builds >= 6

    def test_memo_hits_counted_in_parallel(self):
        obstacles, points = _scene(208)
        tree = small_tree(points[2:])
        metric = _metric(obstacles)
        q = points[0]
        results = batch_nearest(tree, metric, [q] * 10, 2, workers=2)
        assert all(r == results[0] for r in results)
        assert metric.context.stats.batch_memo_hits == 9
        # 10 identical points collapse to one distinct query — the
        # parallel path is skipped (nothing to fan out).
        assert metric.context.stats.parallel_batches == 0

    def test_sequential_memo_unchanged(self):
        obstacles, points = _scene(209)
        tree = small_tree(points[2:])
        metric = _metric(obstacles)
        q = points[0]
        results = batch_nearest(tree, metric, [q] * 10, 2)
        assert all(r == results[0] for r in results)
        assert metric.context.stats.batch_memo_hits == 9


class TestMutationGuard:
    def test_mid_batch_mutation_raises(self):
        db, queries = _small_db(210)
        metric = ObstructedMetric(db.context)

        calls = []

        class Mutating:
            def spawn(self):
                return self

            def field(self, q, *, radius=0.0):
                if not calls:
                    calls.append(q)
                    db.insert_obstacle(Rect(50, 50, 52, 52))
                return metric.field(q, radius=radius)

            def __getattr__(self, name):
                return getattr(metric, name)

        # workers=0 pins the sequential path: the guard watches for
        # *parent-side* mutations, and in fork mode a worker-side
        # insert would only ever touch the child's copy-on-write trees.
        with pytest.raises(DatasetError, match="mutated during batch"):
            batch_nearest(
                db.entity_tree("pois"), Mutating(), queries, 1, workers=0
            )

    def test_mutation_between_batches_is_fine(self):
        db, queries = _small_db(211)
        first = db.batch_nearest("pois", queries, 1)
        db.insert_obstacle(Rect(50, 50, 52, 52))
        second = db.batch_nearest("pois", queries, 1)
        assert len(first) == len(second)

    def test_batch_distance_guarded(self):
        db, queries = _small_db(212)
        metric = ObstructedMetric(db.context)
        pairs = [(queries[0], queries[1]), (queries[2], queries[3])]
        assert len(batch_distance(metric, pairs)) == 2

        class Mutating:
            context = db.context

            def distance(self, p, q, *, bound=float("inf")):
                db.insert_obstacle(Rect(60, 60, 61, 61))
                return metric.distance(p, q, bound=bound)

        with pytest.raises(DatasetError, match="mutated during batch"):
            batch_distance(Mutating(), pairs)


class TestForkPageCounters:
    """Satellite of PR 6: fork-worker page counters merge on join."""

    def _db(self, seed=250):
        return _small_db(seed, n_points=24, n_queries=8)

    @pytest.mark.skipif(not fork_available(), reason="fork unavailable")
    def test_fork_reads_match_sequential(self):
        db, queries = self._db()
        db.reset_stats()
        db.batch_nearest("pois", queries, 2)
        sequential = {k: dict(v) for k, v in db.stats().items()}

        db.reset_stats(clear_buffers=True)
        db.batch_nearest("pois", queries, 2, workers=4, pool="fork")
        forked = {k: dict(v) for k, v in db.stats().items()}

        # Logical page reads are buffer-independent and must be fully
        # accounted: the children shipped their deltas home.
        for name, counters in sequential.items():
            assert forked[name]["reads"] == counters["reads"], name
            assert forked[name]["reads"] > 0

    @pytest.mark.skipif(not fork_available(), reason="fork unavailable")
    def test_fork_counters_accumulate_across_batches(self):
        db, queries = self._db(251)
        db.reset_stats()
        db.batch_nearest("pois", queries, 2, workers=2, pool="fork")
        once = db.stats()["entities:pois"]["reads"]
        assert once > 0
        db.batch_nearest("pois", queries, 2, workers=2, pool="fork")
        assert db.stats()["entities:pois"]["reads"] == 2 * once
