"""Tests for obstacle sources (single and composite indexes)."""

import math
import random

import pytest

from repro.core.source import (
    CompositeObstacleIndex,
    ObstacleIndex,
    build_obstacle_index,
)
from repro.errors import DatasetError
from repro.geometry import Point
from tests.conftest import random_disjoint_rects, rect_obstacle


class TestObstacleIndex:
    def test_range_refined(self):
        obstacles = [rect_obstacle(0, 10, 0, 12, 2), rect_obstacle(1, 50, 50, 52, 52)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        got = idx.obstacles_in_range(Point(0, 0), 15.0)
        assert [o.oid for o in got] == [0]

    def test_infinite_range_returns_all(self):
        rng = random.Random(1)
        obstacles = random_disjoint_rects(rng, 8)
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        got = idx.obstacles_in_range(Point(0, 0), math.inf)
        assert {o.oid for o in got} == {o.oid for o in obstacles}

    def test_universe(self):
        obstacles = [rect_obstacle(0, 1, 2, 3, 4), rect_obstacle(1, 10, 10, 12, 14)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        u = idx.universe()
        assert (u.minx, u.miny, u.maxx, u.maxy) == (1, 2, 12, 14)

    def test_len(self):
        obstacles = random_disjoint_rects(random.Random(2), 5)
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        assert len(idx) == len(obstacles)

    def test_bulk_false_inserts_dynamically(self):
        obstacles = random_disjoint_rects(random.Random(3), 10)
        idx = build_obstacle_index(
            obstacles, bulk=False, max_entries=8, min_entries=3
        )
        assert len(idx) == len(obstacles)
        idx.tree.check_invariants()


class TestCompositeObstacleIndex:
    def test_requires_members(self):
        with pytest.raises(DatasetError):
            CompositeObstacleIndex([])

    def test_union_of_ranges(self):
        near = [rect_obstacle(0, 5, 0, 7, 2)]
        far = [rect_obstacle(100, 8, 8, 10, 10)]
        composite = CompositeObstacleIndex(
            [
                build_obstacle_index(near, max_entries=8, min_entries=3),
                build_obstacle_index(far, max_entries=8, min_entries=3),
            ]
        )
        got = {o.oid for o in composite.obstacles_in_range(Point(0, 0), 12.0)}
        assert got == {0, 100}

    def test_dedupes_by_oid(self):
        obs = [rect_obstacle(7, 0, 0, 2, 2)]
        idx = build_obstacle_index(obs, max_entries=8, min_entries=3)
        composite = CompositeObstacleIndex([idx, idx])
        got = composite.obstacles_in_range(Point(0, 0), 5.0)
        assert len(got) == 1

    def test_universe_union(self):
        a = build_obstacle_index(
            [rect_obstacle(0, 0, 0, 1, 1)], max_entries=8, min_entries=3
        )
        b = build_obstacle_index(
            [rect_obstacle(1, 10, 10, 20, 20)], max_entries=8, min_entries=3
        )
        u = CompositeObstacleIndex([a, b]).universe()
        assert (u.minx, u.miny, u.maxx, u.maxy) == (0, 0, 20, 20)

    def test_len_sums(self):
        a = build_obstacle_index(
            [rect_obstacle(0, 0, 0, 1, 1)], max_entries=8, min_entries=3
        )
        b = build_obstacle_index(
            [rect_obstacle(1, 5, 5, 6, 6), rect_obstacle(2, 8, 8, 9, 9)],
            max_entries=8,
            min_entries=3,
        )
        assert len(CompositeObstacleIndex([a, b])) == 3


def _split(obstacles, members):
    """A monolithic index over ``obstacles`` and a composite of
    ``members`` indexes dealing them out round-robin."""
    kwargs = dict(max_entries=8, min_entries=3)
    mono = build_obstacle_index(obstacles, **kwargs)
    composite = CompositeObstacleIndex(
        [build_obstacle_index(obstacles[i::members], **kwargs) for i in range(members)]
    )
    return mono, composite


class TestCompositeRetrievalParity:
    @pytest.mark.parametrize("members", [2, 3, 4])
    def test_random_disks_match_monolithic(self, members):
        rng = random.Random(73)
        obstacles = random_disjoint_rects(rng, 40)
        mono, composite = _split(obstacles, members)
        for __ in range(60):
            c = Point(rng.uniform(-10, 110), rng.uniform(-10, 110))
            r = rng.uniform(0.0, 70.0)
            expected = {o.oid for o in mono.obstacles_in_range(c, r)}
            got = [o.oid for o in composite.obstacles_in_range(c, r)]
            assert len(got) == len(set(got))
            assert set(got) == expected

    def test_infinite_range_returns_all_once(self):
        rng = random.Random(74)
        obstacles = random_disjoint_rects(rng, 20)
        __, composite = _split(obstacles, 2)
        got = composite.obstacles_in_range(Point(0, 0), math.inf)
        assert {o.oid for o in got} == {o.oid for o in obstacles}
        assert len(got) == len(obstacles)

    def test_members_answer_in_order(self):
        # The union lists each member's obstacles in that member's
        # order, first member first: one answer order per scene.
        rng = random.Random(77)
        obstacles = random_disjoint_rects(rng, 24)
        __, composite = _split(obstacles, 3)
        c, r = Point(50, 50), 35.0
        assert composite.obstacles_in_range(c, r) == [
            o for idx in composite.indexes for o in idx.obstacles_in_range(c, r)
        ]

    def test_every_member_tree_counts_its_own_reads(self):
        near = build_obstacle_index(
            [rect_obstacle(0, 5, 5, 8, 8)], name="near", max_entries=8, min_entries=3
        )
        far = build_obstacle_index(
            [rect_obstacle(1, 92, 92, 95, 95)], name="far", max_entries=8, min_entries=3
        )
        composite = CompositeObstacleIndex([near, far])
        for tree in composite.trees():
            tree.reset_stats()
        got = composite.obstacles_in_range(Point(6, 6), 10.0)
        assert [o.oid for o in got] == [0]
        reads = {t.name: t.counter.snapshot()["reads"] for t in composite.trees()}
        assert reads["near"] > 0 and reads["far"] > 0


class TestObstacleIndexMutations:
    def test_insert_delete_roundtrip(self):
        rng = random.Random(75)
        obstacles = random_disjoint_rects(rng, 12)
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        extra = rect_obstacle(500, 70, 70, 74, 74)
        idx.insert(extra)
        assert len(idx) == len(obstacles) + 1
        assert idx.find(500) is extra
        assert idx.delete(extra)
        assert len(idx) == len(obstacles)
        assert idx.find(500) is None
        assert not idx.delete(extra)

    def test_version_moves_on_each_mutation_only(self):
        idx = build_obstacle_index(
            [rect_obstacle(0, 5, 5, 8, 8)], max_entries=8, min_entries=3
        )
        extra = rect_obstacle(1, 20, 20, 22, 22)
        versions = [idx.version]
        idx.insert(extra)
        versions.append(idx.version)
        assert idx.delete(extra)
        versions.append(idx.version)
        assert len(set(versions)) == 3
        assert idx.mutation_count == 2
        # A delete that finds nothing leaves the version alone.
        assert not idx.delete(extra)
        assert idx.version == versions[-1]

    def test_direct_tree_edit_moves_the_version(self):
        idx = build_obstacle_index(
            [rect_obstacle(0, 5, 5, 8, 8)], max_entries=8, min_entries=3
        )
        before = idx.version
        extra = rect_obstacle(1, 20, 20, 22, 22)
        idx.tree.insert(extra, extra.mbr)  # behind the index's back
        assert idx.version != before
        assert idx.mutation_count == 0

    def test_listeners_hear_pre_and_post_notifications(self):
        idx = build_obstacle_index([], max_entries=8, min_entries=3)
        heard = []
        idx.subscribe(lambda kind, obstacle: heard.append((kind, obstacle.oid)))
        extra = rect_obstacle(3, 1, 1, 2, 2)
        idx.insert(extra)
        assert idx.delete(extra)
        assert not idx.delete(extra)
        assert heard == [
            ("pre-insert", 3),
            ("insert", 3),
            ("pre-delete", 3),
            ("delete", 3),
            ("pre-delete", 3),
        ]

    def test_composite_subscribe_reaches_every_member(self):
        a = build_obstacle_index([], max_entries=8, min_entries=3)
        b = build_obstacle_index([], max_entries=8, min_entries=3)
        heard = []
        CompositeObstacleIndex([a, b]).subscribe(
            lambda kind, obstacle: heard.append((kind, obstacle.oid))
        )
        b.insert(rect_obstacle(1, 5, 5, 6, 6))
        a.insert(rect_obstacle(0, 1, 1, 2, 2))
        assert [h for h in heard if not h[0].startswith("pre-")] == [
            ("insert", 1),
            ("insert", 0),
        ]

    def test_outlier_insert_grows_the_universe(self):
        idx = build_obstacle_index(
            [rect_obstacle(0, 5, 5, 8, 8)], max_entries=8, min_entries=3
        )
        outlier = rect_obstacle(1, 500, 500, 504, 504)
        idx.insert(outlier)
        u = idx.universe()
        assert (u.minx, u.miny, u.maxx, u.maxy) == (5, 5, 504, 504)
        got = idx.obstacles_in_range(Point(502, 502), 5.0)
        assert [o.oid for o in got] == [1]
        assert idx.delete(outlier)


class TestVersionFor:
    def test_monolithic_stamp_ignores_the_disk(self):
        idx = build_obstacle_index(
            [rect_obstacle(0, 5, 5, 8, 8)], max_entries=8, min_entries=3
        )
        for c, r in [(Point(0, 0), 1.0), (Point(90, 90), 3.0), (Point(6, 6), math.inf)]:
            assert idx.version_for(c, r) == (idx.version,)

    def test_monolithic_and_composite_tuples(self):
        mono, __ = _split([rect_obstacle(0, 5, 5, 8, 8)], 1)
        other, __ = _split([rect_obstacle(1, 50, 50, 58, 58)], 1)
        assert mono.version_for(Point(0, 0), 1.0) == (mono.version,)
        composite = CompositeObstacleIndex([mono, other])
        assert composite.version_for(Point(0, 0), 1.0) == (
            mono.version,
            other.version,
        )

    def test_member_mutation_moves_only_its_entry(self):
        __, composite = _split(
            [rect_obstacle(0, 5, 5, 8, 8), rect_obstacle(1, 92, 92, 95, 95)], 2
        )
        near, far = composite.version_for(Point(6, 6), 10.0)
        composite.indexes[1].insert(rect_obstacle(2, 90, 90, 91, 91))
        after = composite.version_for(Point(6, 6), 10.0)
        assert after[0] == near and after[1] != far

    def test_changes_in_two_members_never_cancel(self):
        # A direct insert in one member and a direct delete in the other
        # leave the sum of the versions as it was, but not the tuple.
        __, composite = _split(
            [rect_obstacle(0, 5, 5, 8, 8), rect_obstacle(1, 92, 92, 95, 95)], 2
        )
        stamp = composite.version_for(Point(50, 50), 80.0)
        a, b = composite.indexes
        extra = rect_obstacle(2, 20, 20, 22, 22)
        a.tree.insert(extra, extra.mbr)
        gone = b.find(1)
        assert b.tree.delete(gone, gone.mbr)
        after = composite.version_for(Point(50, 50), 80.0)
        assert sum(after) == sum(stamp)
        assert after != stamp

    def test_empty_member_stamps_zero(self):
        empty = build_obstacle_index([], max_entries=8, min_entries=3)
        assert empty.version_for(Point(0, 0), 10.0) == (0,)


class TestMisc:
    def test_empty_index(self):
        idx = build_obstacle_index([], max_entries=8, min_entries=3)
        assert len(idx) == 0
        assert idx.universe() is None
        assert idx.obstacles_in_range(Point(0, 0), 10.0) == []
        assert idx.obstacles_in_range(Point(0, 0), math.inf) == []

    def test_composite_of_empty_members(self):
        composite = CompositeObstacleIndex(
            [build_obstacle_index([], max_entries=8, min_entries=3) for __ in range(2)]
        )
        assert len(composite) == 0
        assert composite.universe() is None
        assert composite.obstacles_in_range(Point(0, 0), math.inf) == []

    def test_bulk_false_matches_bulk_true(self):
        rng = random.Random(76)
        obstacles = random_disjoint_rects(rng, 15)
        a = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        b = build_obstacle_index(obstacles, bulk=False, max_entries=8, min_entries=3)
        assert len(a) == len(b)
        for __ in range(20):
            c = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            r = rng.uniform(0.0, 50.0)
            assert {o.oid for o in a.obstacles_in_range(c, r)} == {
                o.oid for o in b.obstacles_in_range(c, r)
            }

    def test_trees_lists_every_member_tree(self):
        mono, composite = _split(random_disjoint_rects(random.Random(78), 6), 2)
        assert mono.trees() == [mono.tree]
        assert composite.trees() == [idx.tree for idx in composite.indexes]

    def test_find_by_oid(self):
        obstacles = random_disjoint_rects(random.Random(79), 6)
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        assert idx.find(obstacles[3].oid) is obstacles[3]
        assert idx.find(10_000) is None
