"""Sharded obstacle storage: parity with the monolithic index,
fan-out locality, ``version_for`` per grid cell and dynamic mutations."""

import math
import random

import pytest

from repro.core.source import (
    CompositeObstacleIndex,
    ShardedObstacleIndex,
    build_obstacle_index,
    build_sharded_obstacle_index,
)
from repro.errors import DatasetError
from repro.geometry import Point, Rect
from repro.runtime.sharding import ShardGrid
from tests.conftest import random_disjoint_rects, rect_obstacle


def _pair(obstacles, shards=16, **kwargs):
    kwargs.setdefault("max_entries", 8)
    kwargs.setdefault("min_entries", 3)
    mono = build_obstacle_index(obstacles, **kwargs)
    sharded = build_sharded_obstacle_index(obstacles, shards=shards, **kwargs)
    return mono, sharded


class TestShardGrid:
    def test_for_shards_rounds_up_to_power_of_two_grid(self):
        grid = ShardGrid.for_shards(Rect(0, 0, 100, 100), 10)
        assert grid.side == 4
        assert grid.cell_count == 16

    def test_cells_clamped_to_universe(self):
        grid = ShardGrid(Rect(0, 0, 100, 100), order=2)
        assert grid.cell_of(Point(-50, -50)) == (0, 0)
        assert grid.cell_of(Point(500, 500)) == (3, 3)

    def test_disk_cells_subset_of_bbox_cells(self):
        grid = ShardGrid(Rect(0, 0, 100, 100), order=3)
        # A disk centred in a cell, radius under the cell size, must
        # not touch the diagonal neighbours beyond its reach.
        cells = set(grid.cells_for_disk(Point(31.25, 31.25), 6.0))
        assert (2, 2) in cells
        assert all(abs(cx - 2) <= 1 and abs(cy - 2) <= 1 for cx, cy in cells)

    def test_infinite_disk_covers_grid(self):
        grid = ShardGrid(Rect(0, 0, 100, 100), order=1)
        assert len(list(grid.cells_for_disk(Point(0, 0), math.inf))) == 4

    def test_hilbert_keys_unique(self):
        grid = ShardGrid(Rect(0, 0, 1, 1), order=2)
        keys = {
            grid.key(cx, cy)
            for cx in range(grid.side)
            for cy in range(grid.side)
        }
        assert keys == set(range(16))


class TestRetrievalParity:
    def test_random_disks_match_monolithic(self):
        rng = random.Random(73)
        obstacles = random_disjoint_rects(rng, 40)
        mono, sharded = _pair(obstacles)
        for __ in range(60):
            c = Point(rng.uniform(-10, 110), rng.uniform(-10, 110))
            r = rng.uniform(0.0, 70.0)
            expected = {o.oid for o in mono.obstacles_in_range(c, r)}
            got = {o.oid for o in sharded.obstacles_in_range(c, r)}
            assert got == expected

    def test_infinite_range_returns_all_once(self):
        rng = random.Random(74)
        obstacles = random_disjoint_rects(rng, 20)
        __, sharded = _pair(obstacles)
        got = sharded.obstacles_in_range(Point(0, 0), math.inf)
        assert {o.oid for o in got} == {o.oid for o in obstacles}
        assert len(got) == len(obstacles)  # deduped

    def test_spanning_obstacle_not_duplicated(self):
        # One obstacle crossing the centre of the grid lands in
        # several shards but is retrieved exactly once.
        big = rect_obstacle(0, 40, 40, 60, 60)
        sharded = build_sharded_obstacle_index(
            [big], shards=16, universe=Rect(0, 0, 100, 100),
            max_entries=8, min_entries=3,
        )
        assert sharded.shard_count >= 4
        got = sharded.obstacles_in_range(Point(50, 50), 5.0)
        assert [o.oid for o in got] == [0]
        assert len(sharded) == 1

    def test_fan_out_touches_only_intersecting_shards(self):
        # Obstacles in two opposite corners: a small disk around one
        # corner must not read any page of the other corner's shard.
        near = [rect_obstacle(0, 5, 5, 8, 8)]
        far = [rect_obstacle(1, 92, 92, 95, 95)]
        sharded = build_sharded_obstacle_index(
            near + far, shards=16, universe=Rect(0, 0, 100, 100),
            max_entries=8, min_entries=3,
        )
        for tree in sharded.trees():
            tree.reset_stats()
        got = sharded.obstacles_in_range(Point(6, 6), 10.0)
        assert [o.oid for o in got] == [0]
        touched = [
            tree.name
            for tree in sharded.trees()
            if tree.counter.snapshot()["reads"] > 0
        ]
        assert len(touched) == 1


class TestMutations:
    def test_insert_delete_roundtrip(self):
        rng = random.Random(75)
        obstacles = random_disjoint_rects(rng, 12)
        __, sharded = _pair(obstacles)
        extra = rect_obstacle(500, 70, 70, 74, 74)
        sharded.insert(extra)
        assert len(sharded) == len(obstacles) + 1
        assert sharded.find(500) is not None
        assert sharded.delete(extra)
        assert len(sharded) == len(obstacles)
        assert sharded.find(500) is None
        assert not sharded.delete(extra)

    def test_mutation_bumps_only_touched_shard_versions(self):
        near = [rect_obstacle(0, 5, 5, 8, 8)]
        far = [rect_obstacle(1, 92, 92, 95, 95)]
        sharded = build_sharded_obstacle_index(
            near + far, shards=16, universe=Rect(0, 0, 100, 100),
            max_entries=8, min_entries=3,
        )
        before = {k: sharded.shard_version(k) for k in sharded.shard_keys()}
        sharded.insert(rect_obstacle(2, 90, 90, 91, 91))
        after = {k: sharded.shard_version(k) for k in sharded.shard_keys()}
        moved = [k for k in before if after[k] != before[k]]
        assert len(moved) == 1
        assert sharded.version == sum(after.values())

    def test_new_shard_is_created_on_first_insert_only(self):
        sharded = build_sharded_obstacle_index(
            [rect_obstacle(0, 5, 5, 8, 8)], shards=16,
            universe=Rect(0, 0, 100, 100), max_entries=8, min_entries=3,
        )
        count = sharded.shard_count
        sharded.insert(rect_obstacle(1, 60, 60, 62, 62))
        assert sharded.shard_count == count + 1
        # Inserting into the now-existing shard creates none.
        sharded.insert(rect_obstacle(2, 63, 63, 65, 65))
        assert sharded.shard_count == count + 1

    def test_outlier_insert_clamps_to_rim_shard(self):
        sharded = build_sharded_obstacle_index(
            [rect_obstacle(0, 5, 5, 8, 8)], shards=16,
            universe=Rect(0, 0, 100, 100), max_entries=8, min_entries=3,
        )
        outlier = rect_obstacle(1, 500, 500, 504, 504)
        sharded.insert(outlier)
        got = sharded.obstacles_in_range(Point(502, 502), 5.0)
        assert [o.oid for o in got] == [1]
        assert sharded.delete(outlier)


class TestVersionFor:
    def test_tracks_only_the_disks_cells(self):
        near = [rect_obstacle(0, 5, 5, 8, 8)]
        far = [rect_obstacle(1, 92, 92, 95, 95)]
        sharded = build_sharded_obstacle_index(
            near + far, shards=16, universe=Rect(0, 0, 100, 100),
            max_entries=8, min_entries=3,
        )
        stamp = sharded.version_for(Point(6, 6), 10.0)
        # Mutating the far shard leaves the tuple equal...
        sharded.insert(rect_obstacle(2, 90, 90, 91, 91))
        assert sharded.version_for(Point(6, 6), 10.0) == stamp
        # ...but a mutation inside the disk moves it.
        sharded.insert(rect_obstacle(3, 4, 4, 6, 6))
        assert sharded.version_for(Point(6, 6), 10.0) != stamp

    def test_new_shard_inside_disk_changes_the_tuple(self):
        sharded = build_sharded_obstacle_index(
            [rect_obstacle(0, 92, 92, 95, 95)], shards=16,
            universe=Rect(0, 0, 100, 100), max_entries=8, min_entries=3,
        )
        # A disk over cells without shards: every entry is 0.
        stamp = sharded.version_for(Point(10, 10), 15.0)
        assert stamp and set(stamp) == {0}
        # Creating a shard *inside* the disk moves the tuple.
        sharded.insert(rect_obstacle(1, 5, 5, 7, 7))
        assert sharded.version_for(Point(10, 10), 15.0) != stamp

    def test_new_shard_outside_disk_leaves_the_tuple(self):
        sharded = build_sharded_obstacle_index(
            [rect_obstacle(0, 5, 5, 8, 8)], shards=16,
            universe=Rect(0, 0, 100, 100), max_entries=8, min_entries=3,
        )
        stamp = sharded.version_for(Point(6, 6), 8.0)
        sharded.insert(rect_obstacle(1, 92, 92, 95, 95))  # new far shard
        assert sharded.version_for(Point(6, 6), 8.0) == stamp

    def test_growth_adds_cells(self):
        near = [rect_obstacle(0, 5, 5, 8, 8)]
        far = [rect_obstacle(1, 60, 60, 63, 63)]
        sharded = build_sharded_obstacle_index(
            near + far, shards=16, universe=Rect(0, 0, 100, 100),
            max_entries=8, min_entries=3,
        )
        small = sharded.version_for(Point(6, 6), 8.0)
        grown = sharded.version_for(Point(6, 6), 90.0)
        assert len(small) == 1
        assert len(grown) > len(small)
        # Only the grown disk reaches the far shard.
        sharded.insert(rect_obstacle(2, 61, 61, 62, 62))
        assert sharded.version_for(Point(6, 6), 8.0) == small
        assert sharded.version_for(Point(6, 6), 90.0) != grown

    def test_monolithic_and_composite_tuples(self):
        mono, __ = _pair([rect_obstacle(0, 5, 5, 8, 8)])
        other, __ = _pair([rect_obstacle(1, 50, 50, 58, 58)])
        assert mono.version_for(Point(0, 0), 1.0) == (mono.version,)
        composite = CompositeObstacleIndex([mono, other])
        assert composite.version_for(Point(0, 0), 1.0) == (
            mono.version,
            other.version,
        )


class TestMisc:
    def test_universe_is_data_mbr(self):
        obstacles = [rect_obstacle(0, 10, 10, 20, 20),
                     rect_obstacle(1, 70, 70, 90, 95)]
        sharded = build_sharded_obstacle_index(
            obstacles, shards=16, max_entries=8, min_entries=3
        )
        u = sharded.universe()
        assert (u.minx, u.miny, u.maxx, u.maxy) == (10, 10, 90, 95)

    def test_empty_index(self):
        sharded = build_sharded_obstacle_index(
            [], shards=16, max_entries=8, min_entries=3
        )
        assert len(sharded) == 0
        assert sharded.shard_count == 0
        assert sharded.universe() is None
        assert sharded.obstacles_in_range(Point(0, 0), 10.0) == []

    def test_unknown_shard_key_raises(self):
        sharded = build_sharded_obstacle_index(
            [], shards=16, max_entries=8, min_entries=3
        )
        with pytest.raises(DatasetError):
            sharded.shard(3)

    def test_bulk_false_matches_bulk_true(self):
        rng = random.Random(76)
        obstacles = random_disjoint_rects(rng, 15)
        a = build_sharded_obstacle_index(
            obstacles, shards=16, max_entries=8, min_entries=3
        )
        b = build_sharded_obstacle_index(
            obstacles, shards=16, bulk=False, max_entries=8, min_entries=3
        )
        assert len(a) == len(b)
        assert a.shard_keys() == b.shard_keys()
        c = Point(50, 50)
        assert (
            {o.oid for o in a.obstacles_in_range(c, 40.0)}
            == {o.oid for o in b.obstacles_in_range(c, 40.0)}
        )

    def test_repr_mentions_shards(self):
        sharded = build_sharded_obstacle_index(
            [rect_obstacle(0, 0, 0, 1, 1)], shards=4,
            max_entries=8, min_entries=3,
        )
        assert isinstance(sharded, ShardedObstacleIndex)
        assert "shards" in repr(sharded)
