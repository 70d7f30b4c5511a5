"""Cache upkeep over several obstacle sets, and their query parity.

A composite source stamps a cached graph with every member's version,
so a mutation in one obstacle set reaches every entry's repair scan:
an entry whose coverage disk the new obstacle meets is repaired in
place, the others only get a fresh stamp.  A database whose obstacles
are split over two sets answers as one holding them in one set.
"""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.core.source import CompositeObstacleIndex, build_obstacle_index
from repro.runtime.context import QueryContext
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
    split_database,
)


def _composite_context(*members):
    index = CompositeObstacleIndex(
        [build_obstacle_index(m, max_entries=8, min_entries=3) for m in members]
    )
    return index, QueryContext(index)


class TestPerSetInvalidation:
    def test_far_mutation_repairs_only_the_graph_it_reaches(self):
        near = [rect_obstacle(0, 10, 10, 13, 13)]
        far = [rect_obstacle(1, 90, 90, 93, 93)]
        index, ctx = _composite_context(near, far)
        a = ctx.distance(Point(5, 5), Point(16, 16))
        b = ctx.distance(Point(85, 85), Point(96, 96))
        assert a > 0 and b > 0
        near_entry = ctx.cache.get(Point(16, 16), ctx.version_for)
        hits = ctx.stats.graph_cache_hits
        builds = ctx.stats.graph_builds

        index.indexes[1].insert(rect_obstacle(2, 94, 94, 96, 96))

        # The near graph's disk misses the new obstacle: its entry is
        # re-stamped, its content untouched.
        assert ctx.cache.get(Point(16, 16), ctx.version_for) is near_entry
        assert near_entry.version == index.version_for(
            near_entry.center, near_entry.covered
        )
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

    def test_mutated_set_queries_see_new_obstacle(self):
        far = [rect_obstacle(0, 90, 90, 93, 93)]
        index, ctx = _composite_context(far, [])
        a, b = Point(85, 91.5), Point(95, 91.5)
        ctx.distance(a, b)
        wall = rect_obstacle(1, 88, 80, 89, 103)
        index.indexes[1].insert(wall)
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
        # The far obstacle misses the near graph's coverage disk, so the
        # repair scan's visit is a pure stamp refresh: the entry
        # survives at its old content with the new version.
        entry = ctx.cache.get(Point(16, 16), ctx.version_for)
        assert entry is not None
        assert not entry.graph.has_obstacle(2)
        assert entry.version == ctx.version_for(entry.center, entry.covered)
        assert entry.version == (index.version,)
        assert ctx.stats.graph_cache_repairs == 0

    def test_held_field_refreshes_against_mutated_set(self):
        far = [rect_obstacle(0, 90, 90, 93, 93)]
        index, ctx = _composite_context(far, [])
        q = Point(95, 91.5)
        field = ctx.field_for(q, radius=20.0)
        wall = rect_obstacle(1, 88, 80, 89, 103)
        index.indexes[1].insert(wall)
        p = Point(85, 91.5)
        assert field.distance_to(p) == pytest.approx(
            oracle_distance(q, p, far + [wall])
        )

    def test_coverage_growth_reaches_the_other_set(self):
        near = [rect_obstacle(0, 10, 10, 13, 13)]
        far = [rect_obstacle(1, 60, 60, 63, 63)]
        index, ctx = _composite_context(near, far)
        q = Point(5, 5)
        entry = ctx.entry_for(q, 5.0)
        assert not entry.graph.has_obstacle(1)
        # Grow the disk until it reaches the far set's obstacle.
        ctx.ensure_coverage(entry, 90.0)
        assert entry.graph.has_obstacle(1)
        # A mutation in that set now reaches the grown graph: the
        # repair scan patches the new obstacle into it in place.
        index.indexes[1].insert(rect_obstacle(2, 61, 61, 62, 62))
        assert ctx.cache.get(q, ctx.version_for) is entry
        assert entry.graph.has_obstacle(2)
        assert ctx.stats.graph_cache_repairs == 1


def _pair(seed, n_obstacles, n_points):
    """Two databases over one scene, its obstacles split over two sets
    and held in one, and the scene's free points."""
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_points, obstacles)
    polygons = [o.polygon for o in obstacles]
    split, one = (
        split_database(polygons, sets=sets, max_entries=8, min_entries=3)
        for sets in (2, 1)
    )
    return split, one, points


class TestTwoSetQueryParity:
    def test_database_queries_match_one_set(self):
        split, one, points = _pair(991, 30, 20)
        for db in (split, one):
            db.add_entity_set("pois", points[8:])
        for q in points[:8]:
            assert split.nearest("pois", q, 3) == one.nearest("pois", q, 3)
            assert split.range("pois", q, 25.0) == one.range("pois", q, 25.0)

    def test_database_distance_and_batch_match(self):
        split, one, points = _pair(992, 25, 16)
        for db in (split, one):
            db.add_entity_set("pois", points[6:])
        assert split.obstructed_distance(points[0], points[1]) == (
            pytest.approx(one.obstructed_distance(points[0], points[1]))
        )
        queries = points[:6]
        assert split.batch_nearest("pois", queries, 2) == (
            one.batch_nearest("pois", queries, 2)
        )
        assert split.batch_range("pois", queries, 20.0) == (
            one.batch_range("pois", queries, 20.0)
        )

    def test_dynamic_updates_match_one_set(self):
        split, one, points = _pair(993, 15, 6)
        a, b = points[0], points[1]
        assert split.obstructed_distance(a, b) == pytest.approx(
            one.obstructed_distance(a, b)
        )
        mid = min(a.x, b.x) + abs(b.x - a.x) / 2
        wall = Rect(mid - 1, -5, mid + 1, 105)
        s_rec = split.insert_obstacle(wall, set_name="second")
        o_rec = one.insert_obstacle(wall)
        assert split.obstructed_distance(a, b) == pytest.approx(
            one.obstructed_distance(a, b)
        )
        assert split.delete_obstacle(s_rec, set_name="second")
        assert one.delete_obstacle(o_rec)
        assert split.obstructed_distance(a, b) == pytest.approx(
            one.obstructed_distance(a, b)
        )

    def test_stats_has_a_key_per_set(self):
        db = split_database(
            [Rect(1, 1, 2, 2), Rect(8, 8, 9, 9)], sets=2, max_entries=8, min_entries=3
        )
        db.add_entity_set("pois", [Point(5, 5)])
        db.nearest("pois", (0.0, 0.0), 1)
        stats = db.stats()
        assert "obstacles:obstacles" in stats and "obstacles:second" in stats

    def test_obstacle_tree_is_the_primary_sets(self):
        db = ObstacleDatabase([Rect(1, 1, 2, 2)], max_entries=8, min_entries=3)
        primary = db.obstacle_tree
        db.add_obstacle_set("second", [Rect(8, 8, 9, 9)])
        assert db.obstacle_tree is primary
        assert db.obstacle_index.trees()[0] is primary
        assert len(db.obstacle_index.trees()) == 2
