"""Repair-first mutation routing through the runtime.

``QueryContext`` subscribes to its obstacle source's mutation feed and
patches cached graphs in place (insert: one ``add_obstacle``; delete:
``remove_obstacle``'s local re-sweep) instead of dropping them for a
from-scratch rebuild.  These tests pin the acceptance properties:

* a repaired graph answers every query exactly like a cold database
  over the same obstacle set (randomized churn, both storage layouts,
  every backend);
* when repair is impossible the rebuild fallback still yields correct
  answers (direct tree mutation behind the runtime's back, in one
  obstacle set or across two).

``tests/runtime/test_cache_coherence.py`` drives the same guarantees
with any interleaving of routed and direct edits.
"""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.core.source import build_sharded_obstacle_index
from repro.geometry import Polygon
from repro.model import Obstacle
from repro.runtime.context import QueryContext
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)

BACKENDS = ["naive", "numpy-kernel"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", [None, 16])
@pytest.mark.parametrize("seed", range(3))
class TestRepairedAnswersMatchRebuild:
    def test_randomized_churn_matches_cold_database(
        self, backend, shards, seed
    ):
        rng = random.Random(9_000 + seed)
        obstacles = random_disjoint_rects(rng, 14)
        points = random_free_points(rng, 8, obstacles)
        polygons = [o.polygon for o in obstacles]
        db = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3, shards=shards,
            backend=backend,
        )
        live = list(polygons)
        records = [None] * len(polygons)
        pairs = list(zip(points[:4], points[4:]))
        for p, q in pairs:  # prime cached graphs
            db.obstructed_distance(p, q)
        for step in range(6):
            if rng.random() < 0.5 and any(r is None for r in records):
                # Delete a live obstacle (records filled lazily by oid).
                idx = rng.choice(
                    [i for i, r in enumerate(records) if r is None]
                )
                assert db.delete_obstacle(idx)
                records[idx] = "deleted"
                live[idx] = None
            else:
                x, y = rng.uniform(0, 80), rng.uniform(0, 80)
                rect = Rect(x, y, x + rng.uniform(2, 8), y + rng.uniform(2, 8))
                rec = db.insert_obstacle(rect)
                records.append(rec)
                live.append(rec.polygon)
            cold = ObstacleDatabase(
                [p for p in live if p is not None],
                max_entries=8, min_entries=3, backend=backend,
            )
            for p, q in pairs:
                assert db.obstructed_distance(p, q) == pytest.approx(
                    cold.obstructed_distance(p, q)
                ), (step, p, q)

    def test_delete_repair_avoids_builds(self, backend, shards, seed):
        rng = random.Random(17_000 + seed)
        obstacles = random_disjoint_rects(rng, 12)
        points = random_free_points(rng, 6, obstacles)
        polygons = [o.polygon for o in obstacles]
        db = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3, shards=shards,
            backend=backend,
        )
        pairs = list(zip(points[:3], points[3:]))
        for p, q in pairs:
            db.obstructed_distance(p, q)
        builds = db.runtime_stats()["graph_builds"]
        assert db.delete_obstacle(rng.randrange(len(polygons)))
        for p, q in pairs:
            db.obstructed_distance(p, q)
        stats = db.runtime_stats()
        # The delete was absorbed by in-place repairs: the post-delete
        # queries hit the cache without any build or rebuild.
        assert stats["graph_builds"] == builds
        assert stats["graph_rebuilds"] == 0


class TestRepairEdgeCases:
    def test_cached_centre_survives_cornered_obstacle_cycle(self):
        """Regression: insert an obstacle with a vertex exactly on a
        cached query centre, then delete it — the centre must stay a
        graph node and answers must match a cold database."""
        db = ObstacleDatabase(
            [Rect(100, 100, 102, 102)], max_entries=8, min_entries=3
        )
        p, q = Point(0, 0), Point(6, 4)
        before = db.obstructed_distance(p, q)
        rec = db.insert_obstacle(Rect(6, 4, 10, 8))  # corner exactly at q
        blocked = db.obstructed_distance(p, q)
        cold = ObstacleDatabase([Rect(6, 4, 10, 8)], max_entries=8, min_entries=3)
        assert blocked == pytest.approx(cold.obstructed_distance(p, q))
        assert db.delete_obstacle(rec)
        assert db.obstructed_distance(p, q) == pytest.approx(before)

    def test_oversized_delete_repair_falls_back_to_rebuild(self):
        """Above DELETE_REPAIR_NODE_LIMIT the runtime discards the
        entry instead of re-sweeping it (repair would cost more than
        the rebuild), and answers stay correct."""
        import repro.runtime.context as context_mod

        rng = random.Random(31)
        obstacles = random_disjoint_rects(rng, 12)
        points = random_free_points(rng, 4, obstacles)
        polygons = [o.polygon for o in obstacles]
        db = ObstacleDatabase(polygons, max_entries=8, min_entries=3)
        p, q = points[0], points[1]
        db.obstructed_distance(p, q)
        # Delete an obstacle the cached graph actually holds, so the
        # repair-vs-rebuild decision is exercised.
        entry = db.context.cache.get(q, db.context.version_for)
        victim = sorted(entry.graph.obstacle_ids())[0]
        old_limit = context_mod.DELETE_REPAIR_NODE_LIMIT
        context_mod.DELETE_REPAIR_NODE_LIMIT = 0  # force the fallback
        try:
            assert db.delete_obstacle(victim)
        finally:
            context_mod.DELETE_REPAIR_NODE_LIMIT = old_limit
        stats = db.runtime_stats()
        assert stats["graph_cache_invalidations"] >= 1
        assert stats["graph_cache_repairs"] == 0
        cold = ObstacleDatabase(
            [o.polygon for o in obstacles if o.oid != victim],
            max_entries=8, min_entries=3,
        )
        assert db.obstructed_distance(p, q) == pytest.approx(
            cold.obstructed_distance(p, q)
        )


class TestRebuildFallback:
    def test_direct_tree_mutation_still_rebuilds(self):
        """Mutations applied behind the feed's back (directly to the
        tree) bypass repair; version drift catches them at the next
        lookup and the entry is rebuilt — never served stale."""
        db = ObstacleDatabase(
            [Rect(100, 100, 102, 102)], max_entries=8, min_entries=3
        )
        a, b = Point(0, 0), Point(10, 0)
        assert db.obstructed_distance(a, b) == pytest.approx(10.0)
        wall = Obstacle(999, Polygon.from_rect(Rect(4, -10, 6, 10)))
        db.obstacle_tree.insert(wall, wall.mbr)
        d = db.obstructed_distance(a, b)
        assert d == pytest.approx(oracle_distance(a, b, [wall]))
        assert d > 10.0

    def test_routed_mutation_does_not_mask_direct_tree_edit(self):
        """Regression: an entry left stale by a direct tree edit must
        not be 'validated' by a later routed mutation — the repair
        pass re-stamps only entries that were fresh immediately before
        the mutation; anything else is discarded and rebuilt."""
        db = ObstacleDatabase(
            [Rect(100, 100, 102, 102)], max_entries=8, min_entries=3
        )
        a, b = Point(0, 0), Point(10, 0)
        assert db.obstructed_distance(a, b) == pytest.approx(10.0)
        wall = Obstacle(999, Polygon.from_rect(Rect(4, -2, 6, 2)))
        db.obstacle_tree.insert(wall, wall.mbr)  # behind the feed's back
        # Routed mutation far away: repairs affected entries in place
        # and refreshes their stamps — it must not absorb the wall.
        db.insert_obstacle(Rect(200, 200, 201, 201))
        d = db.obstructed_distance(a, b)
        assert d == pytest.approx(oracle_distance(a, b, [wall]))
        assert d > 10.0

    def test_routed_mutation_does_not_mask_direct_shard_edit(self):
        """Same guarantee under sharded storage: a direct
        ``shard(key).insert`` bumps the shard version without firing
        the outer feed; the next routed mutation must discard the
        drifted entry instead of re-stamping over the missed wall."""
        universe = Rect(-20, -20, 20, 20)
        corners = [(-15, -15), (-15, 14), (14, -15), (14, 14)]
        seeds = [
            rect_obstacle(i, x, y, x + 1, y + 1)
            for i, (x, y) in enumerate(corners)
        ]
        index = build_sharded_obstacle_index(
            seeds, shards=4, universe=universe, max_entries=8, min_entries=3,
        )
        ctx = QueryContext(index)
        a, b = Point(0, 0), Point(10, 0)
        assert ctx.distance(a, b) == pytest.approx(10.0)
        wall = Obstacle(100, Polygon.from_rect(Rect(4, -2, 6, 2)))
        key = index.keys_for_obstacle(wall)[0]
        index.shard(key).insert(wall)  # shard version moves; no outer feed
        index.insert(Obstacle(101, Polygon.from_rect(Rect(14, 10, 15, 11))))
        d = ctx.distance(a, b)
        assert d == pytest.approx(oracle_distance(a, b, [wall]))
        assert d > 10.0

    def test_drift_that_cancels_across_obstacle_sets_is_caught(self):
        """Regression: a direct insert into one set and a direct delete
        in another move the two members' versions by +1 and -1.  A
        summed version would not move, and the cached graph missing the
        wall would be served; the concatenated stamp moves."""
        db = ObstacleDatabase(
            [Rect(100, 100, 102, 102)], max_entries=8, min_entries=3
        )
        db.add_obstacle_set("second", [Rect(-100, -100, -98, -98)])
        (primary, second) = db.obstacle_index.trees()
        a, b = Point(0, 0), Point(10, 0)
        assert db.obstructed_distance(a, b) == pytest.approx(10.0)
        wall = Obstacle(999, Polygon.from_rect(Rect(4, -2, 6, 2)))
        primary.insert(wall, wall.mbr)  # behind the feed's back
        (far,) = [obs for obs, __ in second.items()]
        assert second.delete(far, far.mbr)  # ... and in the other set
        d = db.obstructed_distance(a, b)
        cold = ObstacleDatabase([Rect(4, -2, 6, 2)], max_entries=8, min_entries=3)
        assert d == cold.obstructed_distance(a, b)
        assert d > 10.0
