"""Spatial cache keys: near-duplicate centres share coverage-guarded graphs.

Satellite acceptance for the coverage-aware cache key: on a batch
workload of near-duplicate query centres, the snapped-key cache must
answer *identically* to the exact-key cache (the coverage guard makes
reuse lossless) while hitting far more often and building far fewer
graphs.
"""

import random

import pytest

from repro import ObstacleDatabase, Point
from repro.geometry import Rect
from repro.runtime.cache import CachedGraph, VisibilityGraphCache
from repro.visibility import VisibilityGraph
from tests.conftest import random_disjoint_rects, random_free_points


def _dbs(seed, snap, shards=None):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, 20)
    polygons = [o.polygon for o in obstacles]
    exact = ObstacleDatabase(
        polygons, max_entries=8, min_entries=3, graph_cache_snap=0.0,
        shards=shards,
    )
    snapped = ObstacleDatabase(
        polygons, max_entries=8, min_entries=3, graph_cache_snap=snap,
        shards=shards,
    )
    points = random_free_points(rng, 12, obstacles)
    return rng, exact, snapped, points


def _near_duplicate_queries(rng, anchors, jitter, per_anchor):
    """A batch of query centres clustered tightly around a few anchors
    (the moving-query / hot-key shape)."""
    queries = []
    for anchor in anchors:
        for __ in range(per_anchor):
            queries.append(
                Point(
                    anchor.x + rng.uniform(-jitter, jitter),
                    anchor.y + rng.uniform(-jitter, jitter),
                )
            )
    return queries


class TestSnappedKeyParity:
    @pytest.mark.parametrize("shards", [None, 16])
    def test_batch_answers_identical_and_hit_rate_improves(self, shards):
        rng, exact, snapped, points = _dbs(42, snap=4.0, shards=shards)
        for db in (exact, snapped):
            db.add_entity_set("pois", points)
        queries = _near_duplicate_queries(rng, points[:4], 0.5, 6)
        res_exact = exact.batch_nearest("pois", queries, 3)
        res_snapped = snapped.batch_nearest("pois", queries, 3)
        assert res_snapped == res_exact
        se, ss = exact.runtime_stats(), snapped.runtime_stats()
        assert ss["graph_builds"] < se["graph_builds"]

        def hit_rate(s):
            total = s["graph_cache_hits"] + s["graph_cache_misses"]
            return s["graph_cache_hits"] / total if total else 0.0

        assert hit_rate(ss) > hit_rate(se)

    def test_distance_answers_bit_identical(self):
        rng, exact, snapped, points = _dbs(77, snap=3.0)
        queries = _near_duplicate_queries(rng, points[:3], 0.4, 5)
        for q in queries:
            for p in points[6:9]:
                assert snapped.obstructed_distance(p, q) == (
                    exact.obstructed_distance(p, q)
                )

    def test_range_and_nearest_parity(self):
        rng, exact, snapped, points = _dbs(101, snap=3.0)
        for db in (exact, snapped):
            db.add_entity_set("pois", points[4:])
        for q in _near_duplicate_queries(rng, points[:2], 0.3, 4):
            assert snapped.nearest("pois", q, 3) == exact.nearest("pois", q, 3)
            assert snapped.range("pois", q, 20.0) == exact.range(
                "pois", q, 20.0
            )

    def test_mutations_stay_correct_with_snapping(self):
        rng, exact, snapped, points = _dbs(55, snap=3.0)
        a, q = points[0], points[1]
        assert snapped.obstructed_distance(a, q) == (
            exact.obstructed_distance(a, q)
        )
        wall = Rect(
            min(a.x, q.x) + abs(q.x - a.x) / 2 - 1, -5,
            min(a.x, q.x) + abs(q.x - a.x) / 2 + 1, 105,
        )
        recs = (exact.insert_obstacle(wall), snapped.insert_obstacle(wall))
        assert snapped.obstructed_distance(a, q) == (
            exact.obstructed_distance(a, q)
        )
        assert exact.delete_obstacle(recs[0])
        assert snapped.delete_obstacle(recs[1])
        assert snapped.obstructed_distance(a, q) == (
            exact.obstructed_distance(a, q)
        )


class TestOffCentreRoots:
    def test_jittering_centre_does_not_grow_the_graph(self):
        """A stationary-but-noisy centre stream (GPS jitter inside one
        snap cell) is served by one graph that is only read: no centre
        of the stream becomes a node of it."""
        from repro.core.source import build_obstacle_index
        from repro.runtime.context import QueryContext
        from tests.conftest import rect_obstacle

        index = build_obstacle_index(
            [rect_obstacle(0, 40, 40, 44, 44)], max_entries=8, min_entries=3
        )
        ctx = QueryContext(index, snap=10.0, policy="static")
        rng = random.Random(8)
        p = Point(0.0, 0.0)
        for __ in range(200):
            q = Point(20 + rng.uniform(-1, 1), 20 + rng.uniform(-1, 1))
            assert ctx.distance(p, q) == pytest.approx(p.distance(q))
            assert ctx.field_for(q).distance_to(p) == pytest.approx(
                p.distance(q)
            )
        entry = ctx.cache.get(Point(20, 20), ctx.version)
        assert entry is not None
        assert entry.graph.free_points() == {entry.center}
        assert entry.graph.node_count == 1 + 4
        assert ctx.stats.graph_builds == 1

    def test_held_field_survives_a_flood_of_other_centres(self):
        """A held off-centre field keeps answering while the same snap
        cell serves more distinct centres than the graph memoizes
        fields for."""
        from repro.core.source import build_obstacle_index
        from repro.runtime.context import QueryContext
        from repro.visibility.csr import ANCHOR_MEMO_LIMIT
        from tests.conftest import rect_obstacle

        wall = rect_obstacle(0, 4, -10, 6, 10)
        index = build_obstacle_index([wall], max_entries=8, min_entries=3)
        ctx = QueryContext(index, snap=50.0, policy="static")
        entry = ctx.entry_for(Point(9.0, 0.5), 25.0)  # owns the cell
        q = Point(10.0, 0.1)  # off-centre
        field = ctx.field_for(q, radius=25.0)
        first = field.distance_to(Point(0, 0))
        assert first > 10.0  # around the wall
        for i in range(ANCHOR_MEMO_LIMIT + 5):
            ctx.field_for(Point(10.0 + 0.01 * (i + 1), 0.1), 1.0).distance_to(
                Point(0, 0)
            )
        csr = entry.graph._csr[1]
        assert q not in csr.fields and len(csr.fields) == ANCHOR_MEMO_LIMIT
        assert not entry.graph.has_node(q)
        assert field.distance_to(Point(0, 0)) == first
        assert ctx.field_for(q, radius=25.0).distance_to(Point(0, 0)) == first

    def test_live_field_answers_another_centre_of_its_cell(self):
        """Two fields rooted at different centres of one cell share
        the graph; each answers the other's centre exactly, with no
        ``inf`` and no full-universe ``grow(inf)`` retrieval."""
        import math

        from repro.core.source import build_obstacle_index
        from repro.runtime.context import QueryContext
        from tests.conftest import rect_obstacle

        box = rect_obstacle(0, 2, 2, 3, 3)  # inside the first coverage disk
        index = build_obstacle_index([box], max_entries=8, min_entries=3)
        ctx = QueryContext(index, snap=4.0)
        q1, q2 = Point(0.0, 0.0), Point(1.0, 0.0)  # same snap cell
        field = ctx.field_for(q1)
        assert field.distance_to(Point(5.0, 0.0)) == pytest.approx(5.0)
        entry = ctx.entry_for(q2)
        assert entry.center == q1 and not entry.graph.has_node(q2)
        assert field.distance_to(q2) == pytest.approx(1.0)
        assert ctx.field_for(q2).distance_to(q1) == pytest.approx(1.0)
        assert math.isfinite(entry.covered)  # no grow(inf) blow-up


class TestPolicyCapacityChange:
    def test_capacity_shrink_preserves_lru_order_and_held_fields(self):
        """A jittering-centre stream crossing a policy-driven capacity
        change: shrinking the LRU (what ``AdaptiveCachePolicy`` applies
        through ``cache.configure``) must evict in LRU order, and a
        held distance field keeps answering after its entry fell out
        of the cache."""
        from repro.core.source import build_obstacle_index
        from repro.runtime.context import QueryContext
        from tests.conftest import rect_obstacle

        index = build_obstacle_index(
            [rect_obstacle(0, 700, 700, 744, 744)], max_entries=8, min_entries=3
        )
        ctx = QueryContext(index, snap=10.0, policy="static")
        rng = random.Random(13)
        # Anchors sit mid-cell (jitter +-1 never crosses a boundary).
        anchors = [Point(22.0 + 100.0 * i, 22.0) for i in range(6)]

        def jitter(a):
            return Point(a.x + rng.uniform(-1, 1), a.y + rng.uniform(-1, 1))

        # Oldest cell: an entry plus an off-centre field held live.
        ctx.entry_for(jitter(anchors[0]), 5.0)
        q = Point(anchors[0].x + 2.0, anchors[0].y)
        field = ctx.field_for(q, radius=30.0)
        target = Point(anchors[0].x - 20.0, anchors[0].y)
        first = field.distance_to(target)
        assert first == pytest.approx(q.distance(target))  # unobstructed
        # Jitter across the remaining cells, ageing cell 0 to LRU tail.
        for a in anchors[1:]:
            for __ in range(4):
                ctx.entry_for(jitter(a), 1.0)
        assert len(ctx.cache) == 6
        evictions = ctx.stats.graph_cache_evictions
        # The policy actuator fires mid-stream: capacity 64 -> 3.
        assert ctx.cache.configure(capacity=3)
        assert ctx.cache.capacity == 3
        assert ctx.stats.graph_cache_evictions == evictions + 3
        # Eviction order preserved: oldest three cells gone, newest kept.
        assert [a in ctx.cache for a in anchors] == [False] * 3 + [True] * 3
        # The stream keeps jittering across the change; answers intact.
        p = Point(0.0, 0.0)
        q2 = jitter(anchors[0])
        assert ctx.distance(p, q2) == pytest.approx(p.distance(q2))
        assert field.distance_to(target) == first


class TestSpatialCacheUnit:
    def _entry(self, x, y, covered=0.0, version=0):
        center = Point(x, y)
        return CachedGraph(
            VisibilityGraph.build([center], []), center, covered, version
        )

    def test_snap_validation(self):
        with pytest.raises(ValueError):
            VisibilityGraphCache(4, snap=-1.0)

    def test_zero_snap_keeps_exact_keys(self):
        cache = VisibilityGraphCache(4, snap=0.0)
        a, b = self._entry(0, 0), self._entry(0.4, 0.4)
        cache.put(a)
        cache.put(b)
        assert len(cache) == 2
        assert cache.get(a.center, 0) is a
        assert cache.get(b.center, 0) is b

    def test_near_duplicates_share_one_cell(self):
        cache = VisibilityGraphCache(4, snap=2.0)
        a = self._entry(10.0, 10.0)
        cache.put(a)
        # The near-duplicate centre maps to the same cell: spatial hit.
        assert cache.get(Point(10.6, 9.5), 0) is a
        assert len(cache) == 1
        # A far centre maps elsewhere: miss.
        assert cache.get(Point(20.0, 20.0), 0) is None

    def test_put_in_occupied_cell_replaces(self):
        cache = VisibilityGraphCache(4, snap=2.0)
        a, b = self._entry(10.0, 10.0), self._entry(10.3, 10.3)
        cache.put(a)
        cache.put(b)
        assert len(cache) == 1
        assert cache.get(a.center, 0) is b

    def test_shard_registration_and_affected_lookup(self):
        cache = VisibilityGraphCache(8)
        a, b, c = self._entry(0, 0), self._entry(1, 1), self._entry(2, 2)
        cache.put(a, shards=[1, 2])
        cache.put(b, shards=[2, 3])
        cache.put(c)  # unsharded entry: never in a shard's fan-in
        assert set(map(id, cache.entries_for_shards([1]))) == {id(a)}
        assert set(map(id, cache.entries_for_shards([2]))) == {id(a), id(b)}
        assert cache.entries_for_shards([9]) == []
        cache.refresh_shards(a, [5])
        assert cache.entries_for_shards([1]) == []
        assert set(map(id, cache.entries_for_shards([5]))) == {id(a)}

    def test_eviction_unregisters_shards(self):
        cache = VisibilityGraphCache(1)
        a, b = self._entry(0, 0), self._entry(1, 1)
        cache.put(a, shards=[1])
        cache.put(b, shards=[1])
        assert set(map(id, cache.entries_for_shards([1]))) == {id(b)}

    def test_discard_is_identity_checked(self):
        cache = VisibilityGraphCache(4)
        a = self._entry(0, 0)
        impostor = self._entry(0, 0)
        cache.put(a)
        assert not cache.discard(impostor)
        assert cache.get(a.center, 0) is a
        assert cache.discard(a)
        assert a.center not in cache
