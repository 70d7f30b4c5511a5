"""The persistent warm-started worker pool: parity, deltas, lifecycle."""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.errors import QueryError
from repro.serve.pool import PersistentWorkerPool
from tests.conftest import random_disjoint_rects, random_free_points


def _db(seed, *, shards=None, snap=0.0, n_obstacles=12, n_points=30, durable=None):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_points, obstacles)
    db = ObstacleDatabase(
        [o.polygon for o in obstacles],
        max_entries=8,
        min_entries=3,
        shards=shards,
        graph_cache_snap=snap,
        durable=durable,
    )
    db.add_entity_set("pois", points[8:])
    return db, points[:8]


class TestPoolKindResolution:
    def test_default_is_fork(self):
        db, queries = _db(300)
        sequential = db.batch_nearest("pois", queries, 1, workers=0)
        assert db.batch_nearest("pois", queries, 1, workers=2, pool=None) == (
            sequential
        )
        assert db.runtime_stats()["parallel_batches"] == 1
        assert db.runtime_stats()["pool_batches"] == 0
        assert db._serving_pool is None

    def test_unknown_rejected(self):
        db, queries = _db(300)
        for call in (
            lambda: db.batch_nearest("pois", queries, 1, pool="ephemeral"),
            lambda: db.batch_range("pois", queries, 9.0, pool="ephemeral"),
            lambda: db.batch_distance([(queries[0], queries[1])], pool="ephemeral"),
        ):
            with pytest.raises(QueryError, match="ephemeral"):
                call()


class TestPoolParity:
    """Route parity per command and layout lives in
    tests/runtime/test_batch.py."""

    def test_sequential_workers_never_build_pool(self):
        db, queries = _db(306)
        db.batch_nearest("pois", queries, 1, workers=0, pool="persistent")
        assert db._serving_pool is None

    def test_pool_reused_across_batches(self):
        db, queries = _db(307)
        try:
            db.batch_nearest("pois", queries, 1, workers=2, pool="persistent")
            db.batch_range("pois", queries, 20.0, workers=2, pool="persistent")
            pool = db._serving_pool
            assert pool.spawns == 1
            assert pool.batches_served == 2
        finally:
            db.close()


class TestWarmStart:
    def test_zero_graph_builds_for_covered_centres(self):
        db, queries = _db(310, snap=5.0)
        try:
            # Warm the parent's cache at the query centres, then spawn
            # the pool: the snapshot ships the warm cache, so serving
            # the same centres must build zero graphs anywhere.
            db.batch_nearest("pois", queries, 2, workers=0)
            db._runtime_stats.reset()
            pooled = db.batch_nearest(
                "pois", queries, 2, workers=4, pool="persistent"
            )
            assert len(pooled) == len(queries)
            assert db.runtime_stats()["graph_builds"] == 0
        finally:
            db.close()


class TestMutationDeltas:
    def test_obstacle_insert_delete_replayed(self):
        db, queries = _db(320)
        try:
            db.batch_nearest("pois", queries, 2, workers=2, pool="persistent")
            record = db.insert_obstacle(Rect(45, 45, 55, 55))
            after_insert = db.batch_nearest(
                "pois", queries, 2, workers=2, pool="persistent"
            )
            assert after_insert == db.batch_nearest("pois", queries, 2, workers=0)
            assert db.delete_obstacle(record)
            after_delete = db.batch_nearest(
                "pois", queries, 2, workers=2, pool="persistent"
            )
            assert after_delete == db.batch_nearest("pois", queries, 2, workers=0)
            # Deltas replayed in place: never respawned.
            assert db._serving_pool.spawns == 1
        finally:
            db.close()

    def test_entity_insert_delete_replayed(self):
        db, queries = _db(321)
        try:
            db.batch_nearest("pois", queries, 1, workers=2, pool="persistent")
            p = Point(50.0, 50.0)
            db.insert_entity("pois", p)
            with_entity = db.batch_nearest(
                "pois", queries, 1, workers=2, pool="persistent"
            )
            assert with_entity == db.batch_nearest("pois", queries, 1, workers=0)
            assert db.delete_entity("pois", p)
            without = db.batch_nearest(
                "pois", queries, 1, workers=2, pool="persistent"
            )
            assert without == db.batch_nearest("pois", queries, 1, workers=0)
            assert db._serving_pool.spawns == 1
        finally:
            db.close()

    def test_out_of_band_edit_forces_respawn(self):
        db, queries = _db(322)
        try:
            db.batch_nearest("pois", queries, 1, workers=2, pool="persistent")
            pool = db._serving_pool
            assert pool.spawns == 1
            # Mutate the obstacle tree behind the mutation feed's back:
            # the version signature drifts, replay cannot express it.
            obstacle = db._coerce_obstacle(Rect(48, 48, 52, 52))
            db.obstacle_tree.insert(obstacle, obstacle.mbr)
            fixed = db.batch_nearest(
                "pois", queries, 1, workers=2, pool="persistent"
            )
            assert pool.spawns == 2
            assert fixed == db.batch_nearest("pois", queries, 1, workers=0)
        finally:
            db.close()

    @pytest.mark.parametrize("shards", [None, 4])
    def test_index_level_insert_is_repaired_respawned_not_durable(
        self, tmp_path, shards
    ):
        """The one documented treatment of a write made at the index,
        behind the database's back: the cache repairs from the index
        feed, the pool's signature check respawns it, and the journal
        never saw it."""
        db, queries = _db(324, shards=shards, durable=tmp_path / "db.journal")
        try:
            db.save(tmp_path / "base.snap")
            db.batch_nearest("pois", queries, 2, workers=2, pool="persistent")
            before = db.batch_nearest("pois", queries, 2, workers=0)
            q = queries[0]
            wall = db._coerce_obstacle(Rect(q.x + 0.5, q.y - 40, q.x + 1.5, q.y + 40))
            repairs = db.runtime_stats()["graph_cache_repairs"]
            db.obstacle_index.insert(wall)
            assert db.runtime_stats()["graph_cache_repairs"] > repairs
            sequential = db.batch_nearest("pois", queries, 2, workers=0)
            assert sequential != before
            assert sequential == db.batch_nearest(
                "pois", queries, 2, workers=2, pool="persistent"
            )
            assert db._serving_pool.spawns == 2
            assert db.journal.record_count == 0
        finally:
            db.close()
            db.journal.close()
        recovered = ObstacleDatabase.load(
            tmp_path / "base.snap", durable=tmp_path / "db.journal"
        )
        assert recovered.batch_nearest("pois", queries, 2) == before
        recovered.journal.close()

    @pytest.mark.parametrize("shards", [None, 4])
    def test_database_write_does_not_hide_an_earlier_index_level_one(self, shards):
        """Drift is sticky: a record the pool hears moves its expectation
        only from the value the set had when the record was applied, so
        an out-of-band write followed by a database write to the same
        set still respawns (replaying the one record heard would answer
        without the other)."""
        db, queries = _db(326, shards=shards)
        try:
            nearest = lambda **kw: db.batch_nearest("pois", queries, 2, **kw)  # noqa: E731
            nearest(workers=2, pool="persistent")
            q = queries[0]
            wall = db._coerce_obstacle(Rect(q.x + 0.5, q.y - 40, q.x + 1.5, q.y + 40))
            db.obstacle_index.insert(wall)
            without = nearest(workers=0)
            db.insert_obstacle(Rect(q.x - 1.5, q.y - 40, q.x - 0.5, q.y + 40))
            assert nearest(workers=0) != without
            assert nearest(workers=2, pool="persistent") == nearest(workers=0)
            assert db._serving_pool.spawns == 2
            # The same for an entity set, written at its tree.
            p = Point(q.x + 0.25, q.y)
            db.entity_tree("pois").insert(p, Rect.from_point(p))
            db.insert_entity("pois", Point(q.x - 0.25, q.y))
            assert nearest(workers=2, pool="persistent") == nearest(workers=0)
            assert db._serving_pool.spawns == 3
        finally:
            db.close()

    def test_every_pool_of_a_database_hears_its_entities(self):
        """The feed is the database's, not one pool's: a pool built
        directly replays entity mutations like the serving pool does."""
        db, queries = _db(325)
        pool = PersistentWorkerPool(db, 2)
        try:
            command = ("nearest", "pois", 1)
            pool.run_batch(command, queries)
            db.insert_entity("pois", queries[0])
            assert db.delete_entity("pois", queries[1]) is False
            served = pool.run_batch(command, queries)
            assert served == db.batch_nearest("pois", queries, 1, workers=0)
            assert served[0] == [(queries[0], 0.0)]
            assert pool.spawns == 1 and len(pool._log) == 1
        finally:
            pool.shutdown()

    def test_add_entity_set_invalidates_pool(self):
        db, queries = _db(323)
        try:
            db.batch_nearest("pois", queries, 1, workers=2, pool="persistent")
            pool = db._serving_pool
            assert pool.alive
            db.add_entity_set("extra", [Point(10, 10), Point(90, 90)])
            assert not pool.alive
            result = db.batch_nearest(
                "extra", queries, 1, workers=2, pool="persistent"
            )
            assert result == db.batch_nearest("extra", queries, 1, workers=0)
            assert pool.spawns == 2
        finally:
            db.close()

    def test_add_obstacle_set_invalidates_pool(self):
        db, queries = _db(327)
        try:
            nearest = lambda **kw: db.batch_nearest("pois", queries, 1, **kw)  # noqa: E731
            nearest(workers=2, pool="persistent")
            pool = db._serving_pool
            q = queries[0]
            db.add_obstacle_set("walls", [Rect(q.x + 0.5, q.y - 40, q.x + 1.5, q.y + 40)])
            assert not pool.alive
            assert nearest(workers=2, pool="persistent") == nearest(workers=0)
            assert pool.spawns == 2
        finally:
            db.close()


class TestPoolLifecycle:
    def test_worker_crash_raises_query_error_naming_chunk(self):
        db, queries = _db(330)
        try:
            pool = db.serving_pool(2)
            pool.run_batch(("nearest", "pois", 1), queries)
            pool._members[0].process.terminate()
            pool._members[0].process.join(timeout=5)
            with pytest.raises(QueryError, match=r"chunk \[0:\d+\)"):
                pool.run_batch(("nearest", "pois", 1), queries)
            assert not pool.alive  # torn down, not wedged
            # The next batch respawns cleanly.
            again = pool.run_batch(("nearest", "pois", 1), queries)
            assert again == db.batch_nearest("pois", queries, 1, workers=0)
        finally:
            db.close()

    def test_shutdown_idempotent(self):
        db, queries = _db(331)
        pool = db.serving_pool(2)
        pool.run_batch(("distance",), [(queries[0], queries[1])] * 2)
        pool.shutdown()
        pool.shutdown()
        assert not pool.alive
        with pytest.raises(QueryError, match="shut down"):
            pool.run_batch(("distance",), [(queries[0], queries[1])] * 2)
        db.close()

    def test_context_manager_tears_down(self):
        db, queries = _db(332)
        with db.serving_pool(2) as pool:
            pool.run_batch(("nearest", "pois", 1), queries[:2])
            assert pool.alive
        assert not pool.alive
        db.close()

    def test_database_close_idempotent(self):
        db, queries = _db(333)
        db.batch_nearest("pois", queries, 1, workers=2, pool="persistent")
        db.close()
        db.close()
        assert db._serving_pool is None
        # Still serves library calls, and can rebuild a pool.
        assert db.batch_nearest(
            "pois", queries, 1, workers=2, pool="persistent"
        ) == db.batch_nearest("pois", queries, 1, workers=0)
        db.close()

    def test_database_context_manager(self):
        db, queries = _db(334)
        with db:
            db.batch_nearest("pois", queries, 1, workers=2, pool="persistent")
            assert db._serving_pool is not None
        assert db._serving_pool is None

    def test_pool_workers_validated(self):
        db, __ = _db(335)
        with pytest.raises(QueryError):
            PersistentWorkerPool(db, 0)
        with pytest.raises(QueryError, match=">= 2 workers"):
            db.serving_pool(1)

    def test_unknown_command_rejected_without_killing_worker(self):
        db, queries = _db(336)
        try:
            pool = db.serving_pool(2)
            with pytest.raises(QueryError, match="bogus"):
                pool.run_batch(("bogus",), queries)
            # The worker reported the failure over the protocol; a
            # fresh batch works (after the defensive respawn).
            result = pool.run_batch(("nearest", "pois", 1), queries)
            assert result == db.batch_nearest("pois", queries, 1, workers=0)
        finally:
            db.close()

    def test_explicit_snapshot_path_left_on_disk(self, tmp_path):
        db, queries = _db(337)
        snap = tmp_path / "pool.snap"
        pool = PersistentWorkerPool(db, 2, snapshot_path=snap)
        try:
            result = pool.run_batch(("nearest", "pois", 1), queries)
            assert result == db.batch_nearest("pois", queries, 1, workers=0)
            assert snap.exists()
            restored = ObstacleDatabase.load(snap)
            assert restored.nearest("pois", queries[0], 1) == db.nearest(
                "pois", queries[0], 1
            )
        finally:
            pool.shutdown()
            db.close()
