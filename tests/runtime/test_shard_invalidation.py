"""Per-shard cache invalidation and sharded/monolithic query parity."""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.core.source import build_obstacle_index, build_sharded_obstacle_index
from repro.runtime.context import QueryContext
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)

UNIVERSE = Rect(0, 0, 100, 100)


def _sharded_context(obstacles, shards=16):
    index = build_sharded_obstacle_index(
        obstacles, shards=shards, universe=UNIVERSE,
        max_entries=8, min_entries=3,
    )
    return index, QueryContext(index)


class TestPerShardInvalidation:
    def test_far_mutation_repairs_only_touched_shard(self):
        near = [rect_obstacle(0, 10, 10, 13, 13)]
        far = [rect_obstacle(1, 90, 90, 93, 93)]
        index, ctx = _sharded_context(near + far)
        a = ctx.distance(Point(5, 5), Point(16, 16))
        b = ctx.distance(Point(85, 85), Point(96, 96))
        assert a > 0 and b > 0
        near_entry = ctx.cache.get(Point(16, 16), ctx.version_for)
        near_version = near_entry.version
        hits = ctx.stats.graph_cache_hits
        builds = ctx.stats.graph_builds

        new_obs = rect_obstacle(2, 94, 94, 96, 96)
        index.insert(new_obs)  # far shard only

        # The near graph's stamp lists only its own cells, so the far
        # mutation leaves it equal: still a hit, content untouched.
        assert ctx.cache.get(Point(16, 16), ctx.version_for) is near_entry
        assert near_entry.version == near_version
        assert not near_entry.graph.has_obstacle(2)
        # The far graph was repaired in place (one add_obstacle), not
        # invalidated: lookup hits and the new obstacle is in the graph.
        far_entry = ctx.cache.get(Point(96, 96), ctx.version_for)
        assert far_entry is not None
        assert far_entry.graph.has_obstacle(2)
        assert ctx.stats.graph_cache_repairs == 1
        assert ctx.stats.graph_cache_invalidations == 0
        assert ctx.stats.graph_cache_hits == hits + 2
        assert ctx.stats.graph_builds == builds

    def test_mutated_shard_queries_see_new_obstacle(self):
        far = [rect_obstacle(0, 90, 90, 93, 93)]
        index, ctx = _sharded_context(far)
        a, b = Point(85, 91.5), Point(95, 91.5)
        ctx.distance(a, b)
        wall = rect_obstacle(1, 88, 80, 89, 103)
        index.insert(wall)
        d = ctx.distance(a, b)
        assert d == pytest.approx(oracle_distance(a, b, far + [wall]))
        assert d > a.distance(b)

    def test_monolithic_mutation_refreshes_every_entry(self):
        near = [rect_obstacle(0, 10, 10, 13, 13)]
        far = [rect_obstacle(1, 90, 90, 93, 93)]
        index = build_obstacle_index(near + far, max_entries=8, min_entries=3)
        ctx = QueryContext(index)
        ctx.distance(Point(5, 5), Point(16, 16))
        index.insert(rect_obstacle(2, 94, 94, 96, 96))
        # Monolithic versioning stays global, so the repair scan visits
        # every entry — here the far obstacle misses the near graph's
        # coverage disk, so the visit is a pure stamp refresh: the
        # entry survives at its old content with the new version.
        entry = ctx.cache.get(Point(16, 16), ctx.version_for)
        assert entry is not None
        assert not entry.graph.has_obstacle(2)
        assert entry.version == ctx.version_for(entry.center, entry.covered)
        assert entry.version == (index.version,)
        assert ctx.stats.graph_cache_repairs == 0

    def test_held_entry_refreshes_against_mutated_shard(self):
        far = [rect_obstacle(0, 90, 90, 93, 93)]
        index, ctx = _sharded_context(far)
        q = Point(95, 91.5)
        field = ctx.field_for(q, radius=20.0)
        wall = rect_obstacle(1, 88, 80, 89, 103)
        index.insert(wall)
        p = Point(85, 91.5)
        assert field.distance_to(p) == pytest.approx(
            oracle_distance(q, p, far + [wall])
        )

    def test_coverage_growth_tracks_new_shards(self):
        near = [rect_obstacle(0, 10, 10, 13, 13)]
        far = [rect_obstacle(1, 60, 60, 63, 63)]
        index, ctx = _sharded_context(near + far)
        q = Point(5, 5)
        entry = ctx.entry_for(q, 5.0)
        assert not entry.graph.has_obstacle(1)
        # Grow the disk until it reaches the far cluster's shard.
        ctx.ensure_coverage(entry, 90.0)
        assert entry.graph.has_obstacle(1)
        # A mutation in that shard now reaches the grown graph: the
        # repair scan patches the new obstacle into it in place.
        index.insert(rect_obstacle(2, 61, 61, 62, 62))
        assert ctx.cache.get(q, ctx.version_for) is entry
        assert entry.graph.has_obstacle(2)
        assert ctx.stats.graph_cache_repairs == 1


class TestShardedQueryParity:
    def test_database_queries_match_monolithic(self):
        rng = random.Random(991)
        obstacles = random_disjoint_rects(rng, 30)
        points = random_free_points(rng, 20, obstacles)
        polygons = [o.polygon for o in obstacles]
        sharded = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3, shards=16
        )
        mono = ObstacleDatabase(polygons, max_entries=8, min_entries=3)
        for db in (sharded, mono):
            db.add_entity_set("pois", points[8:])
        for q in points[:8]:
            assert sharded.nearest("pois", q, 3) == mono.nearest("pois", q, 3)
            assert sharded.range("pois", q, 25.0) == mono.range("pois", q, 25.0)

    def test_database_distance_and_batch_match(self):
        rng = random.Random(992)
        obstacles = random_disjoint_rects(rng, 25)
        points = random_free_points(rng, 16, obstacles)
        polygons = [o.polygon for o in obstacles]
        sharded = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3, shards=16
        )
        mono = ObstacleDatabase(polygons, max_entries=8, min_entries=3)
        for db in (sharded, mono):
            db.add_entity_set("pois", points[6:])
        assert sharded.obstructed_distance(points[0], points[1]) == (
            pytest.approx(mono.obstructed_distance(points[0], points[1]))
        )
        queries = points[:6]
        assert sharded.batch_nearest("pois", queries, 2) == (
            mono.batch_nearest("pois", queries, 2)
        )
        assert sharded.batch_range("pois", queries, 20.0) == (
            mono.batch_range("pois", queries, 20.0)
        )

    def test_dynamic_updates_match_monolithic(self):
        rng = random.Random(993)
        obstacles = random_disjoint_rects(rng, 15)
        points = random_free_points(rng, 6, obstacles)
        polygons = [o.polygon for o in obstacles]
        sharded = ObstacleDatabase(
            polygons, max_entries=8, min_entries=3, shards=16
        )
        mono = ObstacleDatabase(polygons, max_entries=8, min_entries=3)
        a, b = points[0], points[1]
        assert sharded.obstructed_distance(a, b) == pytest.approx(
            mono.obstructed_distance(a, b)
        )
        wall = Rect(
            min(a.x, b.x) + abs(b.x - a.x) / 2 - 1, -5,
            min(a.x, b.x) + abs(b.x - a.x) / 2 + 1, 105,
        )
        s_rec = sharded.insert_obstacle(wall)
        m_rec = mono.insert_obstacle(wall)
        assert sharded.obstructed_distance(a, b) == pytest.approx(
            mono.obstructed_distance(a, b)
        )
        assert sharded.delete_obstacle(s_rec)
        assert mono.delete_obstacle(m_rec)
        assert sharded.obstructed_distance(a, b) == pytest.approx(
            mono.obstructed_distance(a, b)
        )

    def test_stats_key_stable_even_with_one_shard(self):
        # The aggregate key must not depend on how many shards ended up
        # occupied — a one-shard sharded layout still reports under the
        # same name as monolithic storage.
        db = ObstacleDatabase(
            [Rect(1, 1, 2, 2)], max_entries=8, min_entries=3, shards=1
        )
        db.add_entity_set("pois", [Point(5, 5)])
        db.nearest("pois", (0.0, 0.0), 1)
        assert "obstacles:obstacles" in db.stats()

    def test_sharded_db_has_no_single_obstacle_tree(self):
        from repro.errors import DatasetError

        db = ObstacleDatabase(
            [Rect(1, 1, 2, 2)], max_entries=8, min_entries=3, shards=4
        )
        with pytest.raises(DatasetError):
            db.obstacle_tree
        assert len(db.obstacle_index.trees()) >= 1
