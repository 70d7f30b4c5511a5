"""One distance engine, one oracle.

Queries only read a cached graph: a distance field roots at its
centre — a node, or the centre's visible anchors — and a
point-to-point distance is the field rooted at one endpoint, read at
the other.
Whatever history warmed the database (spatial keys, an adaptive
policy, repairs in place, a save / load), every answer equals, bit for
bit, (a) a cold exact-key database's and (b) the dict-adjacency
reference of ``tests/reference_field.py`` on a private graph with the
centre inserted.
"""

import os
import random
import tempfile
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObstacleDatabase, Point, Rect
from repro.core.source import build_obstacle_index
from repro.runtime.context import QueryContext
from repro.visibility import VisibilityGraph, is_visible
from repro.visibility.csr import ANCHOR_MEMO_LIMIT, frozen
from tests.conftest import (
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)
from tests.reference_field import ReferenceField, reference_distance

BACKENDS = ["naive", "numpy-kernel"]

#: Inserted by every warm history, clear of both scene families.
INSERTED = Rect(-9.0, 10.0, -3.0, 30.0)

RANGE = 30.0
JOIN = 25.0


def _touching_grid_obstacles(rng):
    """Grid cells taken whole or inset on all four sides: flush
    neighbours share entire edges and corners, and edges line up in
    collinear runs.  (``grid_aligned_obstacles`` of the backend parity
    suite insets side by side, which also puts one rectangle's corner
    in the middle of another's edge; those T-junctions are left to
    ROADMAP item 3.)"""
    cells = rng.sample(
        [(i, j) for i in range(4) for j in range(4)], rng.randint(1, 6)
    )
    obstacles = []
    for oid, (i, j) in enumerate(cells):
        inset = rng.choice((0.0, 2.0))
        obstacles.append(
            rect_obstacle(
                oid,
                10.0 * i + inset,
                10.0 * j + inset,
                10.0 * i + 10.0 - inset,
                10.0 * j + 10.0 - inset,
            )
        )
    return obstacles


def _case(seed):
    """A scene (random rectangles on even seeds, the touching grid on
    odd ones), two entity sets, the centres a history warms the cache
    at, and the probes asked afterwards — centres and endpoints of
    every kind: free, a near-duplicate of a warmed centre (off-centre
    under spatial keys), an obstacle vertex, on an edge, an entity,
    sealed off inside an obstacle (every distance ``inf``)."""
    rng = random.Random(seed)
    obstacles = (
        _touching_grid_obstacles(rng)
        if seed % 2
        else random_disjoint_rects(rng, rng.randint(1, 6))
    )
    entities = random_free_points(rng, rng.randint(3, 6), obstacles)
    stops = random_free_points(rng, rng.randint(2, 3), obstacles)
    centres = random_free_points(rng, rng.randint(1, 2), obstacles)
    fresh = random_free_points(rng, 3, obstacles)
    last = obstacles[-1].polygon
    near = [
        c for c in (Point(c.x + 0.3, c.y + 0.2) for c in centres)
        if not any(o.polygon.contains_or_boundary(c) for o in obstacles)
    ]
    probes = near + [
        fresh[0],
        last.vertices[rng.randrange(4)],
        last.boundary_point_at(rng.uniform(0.0, 0.999)),
        entities[0],
        INSERTED.center(),
    ]
    pool = probes + fresh + centres + [last.centroid()]
    pairs = [
        (rng.choice(pool), rng.choice(pool)) for __ in range(rng.randint(1, 6))
    ]
    pairs += [(fresh[0], fresh[0]), (fresh[0], INSERTED.center())]
    return obstacles, entities, stops, centres, probes, pairs


def _database(case, backend, snap, policy):
    obstacles, entities, stops = case[:3]
    db = ObstacleDatabase(
        [o.polygon for o in obstacles],
        max_entries=8,
        min_entries=3,
        backend=backend,
        graph_cache_snap=snap,
        cache_policy=policy,
    )
    db.add_entity_set("pois", entities)
    db.add_entity_set("stops", stops)
    return db


def _mutate(db):
    db.insert_obstacle(INSERTED)
    assert db.delete_obstacle(0)


def _warm(case, backend, snap, policy):
    """The database under test: ONN / OR / distance calls at the
    centres and just off them, an insert and a delete repaired in
    place, a save / load."""
    centres = case[3]
    db = _database(case, backend, snap, policy)
    for c in centres:
        off = Point(c.x + 0.3, c.y + 0.2)
        db.nearest("pois", c, 2)
        db.range("pois", off, RANGE)
        db.nearest("pois", off, 2)
        db.obstructed_distance(c, off)
    db.range("pois", centres[0], 200.0)  # one graph the mutations reach
    db.insert_obstacle(INSERTED)
    db.nearest("pois", Point(centres[0].x + 0.3, centres[0].y + 0.2), 1)
    assert db.delete_obstacle(0)
    assert db.runtime_stats()["graph_cache_repairs"] >= 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "warm.snap")
        db.save(path)
        return ObstacleDatabase.load(path, backend=backend, cache_policy=policy)


def _answers(db, case):
    probes, pairs = case[4], case[5]
    return {
        "nearest": [db.nearest("pois", c, 3) for c in probes],
        "range": [db.range("pois", c, RANGE) for c in probes],
        "join": db.distance_join("stops", "pois", JOIN),
        "distance": [db.obstructed_distance(p, q) for p, q in pairs * 2],
    }


POLICIES = ["static", "adaptive"]
SNAPS = [0.0, 2.0]


@pytest.mark.parametrize("seed", [*range(8), 26, 29, 65, 69, 90, 93])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("snap", SNAPS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_equals_cold_equals_reference(backend, snap, policy, seed):
    _check_warm_equals_cold_equals_reference(backend, snap, policy, seed)


#: The ``warm-cold`` profile (``tests/conftest.py``) at the default
#: count, or at the profile's own 1,000 when it is loaded
#: (``--hypothesis-profile warm-cold``).
WARM_COLD = settings(
    settings.get_profile("warm-cold"),
    max_examples=settings.default.max_examples,
)


@WARM_COLD
@given(
    backend=st.sampled_from(BACKENDS),
    snap=st.sampled_from(SNAPS),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_warm_equals_cold_equals_reference_drawn(backend, snap, policy, seed):
    """The same property at drawn seeds, under a drawn backend, snap
    quantum and cache policy."""
    _check_warm_equals_cold_equals_reference(backend, snap, policy, seed)


def _check_warm_equals_cold_equals_reference(backend, snap, policy, seed):
    case = _case(seed)
    got = _answers(_warm(case, backend, snap, policy), case)
    # (a) a cold exact-key database over the same obstacle set.
    cold = _database(case, backend, 0.0, "static")
    _mutate(cold)
    assert got == _answers(cold, case)  # bitwise
    # (b) the reference field, one private graph per centre.
    __, entities, stops, __, probes, pairs = case
    index = cold.obstacle_index
    fields = {}

    def reference(q, p, bound=inf):
        if q not in fields:
            fields[q] = ReferenceField(q, index, backend)
        return fields[q].distance_to(p, bound)

    for c, nearest, in_range in zip(probes, got["nearest"], got["range"]):
        exact = sorted(reference(c, p) for p in entities)
        assert [d for __, d in nearest] == exact[: len(nearest)]
        assert all(d == reference(c, p) for p, d in nearest)
        assert len(nearest) == min(3, len(entities))
        assert dict(in_range) == {
            p: d
            for p in entities
            if (d := reference(c, p, RANGE)) <= RANGE
        }
    assert got["nearest"][-1][0][1] == inf  # the sealed-off centre
    joined = {(s, t): d for s, t, d in got["join"]}
    assert len(joined) == len(got["join"])
    for s in stops:
        for t in entities:
            d = joined.get((s, t))
            if d is None:
                assert reference(s, t, JOIN) > JOIN
            else:
                # Seeded from whichever side has fewer distinct points.
                assert d in (reference(s, t), reference(t, s))
    for (p, q), d in zip(pairs, got["distance"]):
        if p == q:
            assert d == 0.0
            continue
        # Fig. 8 from nothing, as a one-shot call runs it: the graph
        # around q, then p swept in, searched from p.
        graph = VisibilityGraph.build(
            [q], index.obstacles_in_range(q, p.distance(q)), method=backend
        )
        graph.add_entity(p)
        assert d == reference_distance(graph, p, q, index)
    assert got["distance"][len(pairs) - 1] == inf  # into the inserted obstacle


def _warm_context(seed=11, *, snap=0.0, n_obstacles=14):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    index = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    ctx = QueryContext(index, snap=snap, policy="static")
    return ctx, rng, obstacles


def _hidden(points, q, obstacles, count):
    """The first ``count`` of ``points`` that do not see ``q``: pairs a
    straight leg cannot answer, so they read the graph."""
    hidden = [p for p in points if not is_visible(p, q, obstacles)]
    assert len(hidden) >= count
    return hidden[:count]


def _graph_state(entries):
    """Per entry: what a query must leave alone, and the identity of
    its current freeze (``None``: not frozen at this revision)."""
    state = {}
    for entry in entries:
        graph = entry.graph
        csr = graph._csr
        state[entry.center] = (
            graph.structure_revision,
            graph.node_count,
            graph.free_points(),
            id(csr[1])
            if csr is not None and csr[0] == graph.structure_revision
            else None,
        )
    return state


class TestGraphIsOnlyRead:
    def test_distance_leaves_the_cached_graph_untouched(self):
        ctx, rng, obstacles = _warm_context(snap=4.0)
        key = ctx.cache.key_for
        q, *others = (
            c for c in random_free_points(rng, 40, obstacles)
            if key(c) == key(Point(c.x + 0.5, c.y + 0.25))
            == key(Point(c.x - 0.75, c.y + 0.5))
        )
        near_q = Point(q.x + 0.5, q.y + 0.25)
        ctx.distance(others[0], q)
        ctx.field_for(near_q, 30.0).distance_to(others[1])  # off-centre
        for p in others:
            ctx.distance(p, q)  # reach: no enlargement left afterwards
        entry = ctx.cache.get(q, ctx.version_for)
        before = _graph_state([entry])
        assert entry.graph.free_points() == {q}
        for p in others:
            for target in (q, near_q, Point(q.x - 0.75, q.y + 0.5)):
                ctx.distance(p, target)
                ctx.distance(target, p)
        assert before == _graph_state([entry])

    def test_warm_calls_freeze_at_most_once_per_entry(self):
        ctx, rng, obstacles = _warm_context(seed=12, snap=6.0)
        points = random_free_points(rng, 40, obstacles)
        pairs = [(rng.choice(points), rng.choice(points)) for __ in range(200)]
        first = [ctx.distance(p, q) for p, q in pairs]  # warm-up: coverage
        entries = len(ctx.cache)
        freezes = ctx.stats.field_freezes
        again = [ctx.distance(p, q) for p, q in pairs * 5]
        assert again == first * 5
        assert len(ctx.cache) == entries
        assert ctx.stats.field_freezes - freezes <= entries
        # ... and once every entry has frozen, never again.
        freezes = ctx.stats.field_freezes
        assert [ctx.distance(p, q) for p, q in pairs] == first
        assert ctx.stats.field_freezes == freezes

    def test_a_thousand_warm_mixed_ops_leave_every_graph_untouched(self):
        """ONN, OR and distances at centres on and off their cached
        graph's own: no graph changes, none re-freezes, and whatever
        was not yet frozen freezes once."""
        rng = random.Random(21)
        obstacles = random_disjoint_rects(rng, 14)
        points = random_free_points(rng, 60, obstacles)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles],
            max_entries=8,
            min_entries=3,
            graph_cache_snap=6.0,
            cache_policy="static",
        )
        db.add_entity_set("pois", points[:30])
        centres = points[30:]
        ops = []
        for __ in range(1000):
            c, p = rng.choice(centres), rng.choice(centres)
            ops.append(
                rng.choice(
                    (
                        ("nearest", "pois", c, 2),
                        ("range", "pois", c, 25.0),
                        ("obstructed_distance", p, c),
                    )
                )
            )

        def run():
            return [getattr(db, op)(*args) for op, *args in ops]

        first = run()  # warm-up: coverage saturates
        ctx = db.context
        entries = len(ctx.cache)
        assert entries < len(centres)  # centres do share graphs
        before = _graph_state(ctx.cache.entries())
        unfrozen = sum(state[3] is None for state in before.values())
        freezes = ctx.stats.field_freezes
        assert run() == first
        after = _graph_state(ctx.cache.entries())
        assert after.keys() == before.keys()
        for center, state in before.items():
            assert after[center][:3] == state[:3]
            assert state[3] in (None, after[center][3])
        # What had no current freeze froze at most once ...
        assert ctx.stats.field_freezes - freezes <= unfrozen
        # ... and nothing ever re-freezes.
        freezes = ctx.stats.field_freezes
        assert run() == first
        assert ctx.stats.field_freezes == freezes
        assert _graph_state(ctx.cache.entries()) == after
        assert all(
            entry.graph.free_points() == {entry.center}
            for entry in ctx.cache.entries()
        )


class TestBoundPruning:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_below_the_answer_matches_the_reference(self, backend):
        """OCP's pruning path: with ``bound`` below the provisional
        distance the Fig. 8 loop stops early — at the value the cold
        computation over a private graph stops at."""
        rng = random.Random(77)
        obstacles = random_disjoint_rects(rng, 16)
        points = random_free_points(rng, 10, obstacles)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles],
            max_entries=8,
            min_entries=3,
            backend=backend,
            graph_cache_snap=0.0,
            cache_policy="static",
        )
        index = db.obstacle_index
        for p in points[1:]:
            exact = db.context.distance(p, points[0])
            for share in (0.25, 0.9, 1.0, 1.5):
                # A fresh centre per call: the early exit must come
                # from the bound, not from coverage already there.
                q = Point(points[0].x + share, points[0].y)
                bound = share * exact * 0.5
                graph = VisibilityGraph.build(
                    [q],
                    index.obstacles_in_range(q, p.distance(q)),
                    method=backend,
                )
                graph.add_entity(p)
                assert db.context.distance(p, q, bound=bound) == (
                    reference_distance(graph, p, q, index, bound=bound)
                )


class TestDistanceIsAFieldRead:
    """``d_O(p, q)`` is the field rooted at ``p`` over the graph cached
    for ``q``, read at ``q``; a ``bound`` only stops that field's Fig. 8
    loop, so every value returned is the graph's own."""

    @staticmethod
    def _scene(seed, backend):
        rng = random.Random(300 + seed)
        obstacles = random_disjoint_rects(rng, 14)
        points = random_free_points(rng, 10, obstacles)
        pairs = [
            (p, q)
            for p in points[:4]
            for q in points[4:]
            if not is_visible(p, q, obstacles)
        ]
        assert pairs

        def database():
            return ObstacleDatabase(
                [o.polygon for o in obstacles],
                max_entries=8,
                min_entries=3,
                backend=backend,
                graph_cache_snap=0.0,
                cache_policy="static",
            )

        return database, pairs

    @staticmethod
    def _cold(p, q, index, backend, bound=inf):
        """Fig. 8 from nothing: the graph around ``q``, then ``p``."""
        graph = VisibilityGraph.build(
            [q], index.obstacles_in_range(q, p.distance(q)), method=backend
        )
        graph.add_entity(p)
        return reference_distance(graph, p, q, index, bound=bound)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_hidden_distance_is_the_sources_field_read_at_the_goal(
        self, backend, seed
    ):
        database, pairs = self._scene(seed, backend)
        db = database()
        ctx, index = db.context, db.obstacle_index
        for p, q in pairs:
            d = ctx.distance(p, q)
            graph = ctx.cache.get(q, ctx.version_for).graph
            csr = frozen(graph)
            assert p in csr.fields
            read = csr.last_leg(csr.fields[p], q, graph)
            assert d == max(read, p.distance(q))  # bitwise
            assert d == self._cold(p, q, index, backend)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_bound_only_stops_the_loop(self, backend, seed):
        """At a bound of exactly the answer, or above, the loop runs to
        the answer; below it, the loop stops at the value the cold
        computation stops at, which exceeds the bound.  A fresh
        database per call: the stop must come from the bound, not from
        coverage already there."""
        database, pairs = self._scene(seed, backend)
        index = database().obstacle_index
        for p, q in pairs:
            exact = database().obstructed_distance(p, q)
            for bound in (exact, 2.0 * exact, inf):
                assert database().context.distance(p, q, bound=bound) == exact
            bound = 0.5 * exact
            cut = database().context.distance(p, q, bound=bound)
            assert bound < cut == self._cold(p, q, index, backend, bound)


class TestAnchorMemoBound:
    def test_ten_thousand_endpoints_stay_within_the_cap(self):
        ctx, rng, obstacles = _warm_context(seed=14, n_obstacles=6)
        q = random_free_points(rng, 1, obstacles)[0]
        ctx.distance(Point(q.x + 60.0, q.y + 60.0), q)  # coverage
        endpoints = _hidden(
            random_free_points(rng, 40_000, obstacles), q, obstacles, 10_000
        )
        entry = ctx.cache.get(q, ctx.version_for)
        answers = [ctx.distance(p, q) for p in endpoints]
        csr = entry.graph._csr[1]
        assert len(csr.anchors) == ANCHOR_MEMO_LIMIT
        assert ctx.stats.field_freezes == 1
        # Evicted or memoized, an endpoint answers the same.
        assert list(csr.anchors)[-1] == endpoints[-1]
        assert endpoints[0] not in csr.anchors
        sample = endpoints[:50] + endpoints[-50:]
        assert [ctx.distance(p, q) for p in sample] == (
            answers[:50] + answers[-50:]
        )

    def test_ten_thousand_roots_stay_within_the_cap(self):
        """A jittering centre stream against one cached graph: the
        field memo stops at the cap, the graph never grows, and an
        evicted root answers what an exact-key graph of its own does."""
        ctx, rng, obstacles = _warm_context(seed=16, snap=500.0, n_obstacles=6)
        exact = QueryContext(ctx.source, snap=0.0, policy="static")
        q, target = random_free_points(rng, 2, obstacles)
        entry = ctx.entry_for(q, 150.0)  # owns the one cell; covers the scene
        nodes = peak = entry.graph.node_count
        roots = _hidden(
            random_free_points(rng, 60_000, obstacles), target, obstacles, 10_000
        )
        answers = []
        for root in roots:
            answers.append(ctx.field_for(root).distance_to(target))
            peak = max(peak, entry.graph.node_count)
        assert len(ctx.cache) == 1 and ctx.stats.graph_builds == 1
        assert peak == nodes
        assert ctx.stats.field_freezes == 1
        csr = entry.graph._csr[1]
        assert len(csr.fields) == ANCHOR_MEMO_LIMIT
        assert len(csr.anchors) <= ANCHOR_MEMO_LIMIT
        assert list(csr.fields)[-1] == roots[-1]
        assert roots[0] not in csr.fields
        for i in list(range(40)) + list(range(-40, 0)):
            assert answers[i] == ctx.field_for(roots[i]).distance_to(target)
            assert answers[i] == exact.field_for(roots[i]).distance_to(target)

    def test_a_batch_larger_than_the_cap_is_never_evicted(self):
        obstacles = [rect_obstacle(0, 4.0, -3.0, 6.0, 3.0)]
        graph = VisibilityGraph.build([Point(0.0, 0.0)], obstacles)
        csr = frozen(graph)
        old = [Point(-1.0 - i, 0.5) for i in range(10)]
        for p in old:
            csr.anchors_for(p, graph)
        batch = [Point(10.0 + 0.01 * i, 1.0) for i in range(ANCHOR_MEMO_LIMIT + 5)]
        csr.memoize_anchors(batch, graph.visible_ids(batch))
        assert all(p in csr.anchors for p in batch)
        assert not any(p in csr.anchors for p in old)


class TestFieldCounters:
    def test_batch_eval_and_freeze_counters_move(self):
        rng = random.Random(717)
        obstacles = random_disjoint_rects(rng, 12)
        points = random_free_points(rng, 26, obstacles)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles], max_entries=8, min_entries=3
        )
        db.add_entity_set("pois", points[8:])
        db.range("pois", points[0], 30.0)
        stats = db.runtime_stats()
        assert stats["field_batch_evals"] >= 1
        assert stats["field_freezes"] >= 1


class _AnchorCallCounter:
    """Patches a context's resolved backend; counts the scenes whose
    sources are off the graph (anchor calls) apart from the graph's own
    maintenance."""

    def __init__(self, context):
        self.anchor_calls = 0
        backend = context.backend
        inner = backend.visible_ids

        def visible_ids(scenes):
            self.anchor_calls += sum(
                bool(sources) and not graph.has_node(sources[0])
                for sources, graph in scenes
            )
            return inner(scenes)

        backend.visible_ids = visible_ids


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchEvalAcrossGrowth:
    """Fig. 8's enlargement can grow the graph in the middle of a
    batch: the graph re-freezes, the probes read the new field, and
    every answer stays what ``distance_to`` gives."""

    @staticmethod
    def _setup(backend):
        # Walls at growing distances from q: each ring of candidates
        # pulls the next wall into the graph.
        walls = [
            rect_obstacle(i, 10.0 * (i + 1), -6.0, 10.0 * (i + 1) + 2.0, 6.0)
            for i in range(4)
        ]
        index = build_obstacle_index(walls, max_entries=8, min_entries=3)
        q = Point(0.0, 0.0)
        context = QueryContext(index, backend=backend)
        counter = _AnchorCallCounter(context)
        field = context.field_for(q)
        candidates = [
            Point(5.0, 1.0), Point(6.0, -2.0),      # before the first wall
            Point(15.0, 3.0), Point(16.0, -1.0),    # behind wall 0
            Point(25.0, 0.5), Point(5.0, 1.0),      # behind wall 1; a repeat
            Point(38.0, 2.0), Point(47.0, -4.0),    # behind walls 2 and 3
            Point(41.0, 0.0),                       # inside wall 3: a give-up
        ]
        return field, counter, candidates

    def test_batch_equals_loop_with_bounded_anchor_calls(self, backend):
        field, counter, candidates = self._setup(backend)
        growths = []
        grow = field._grow
        field._grow = lambda radius: growths.append(grow(radius)) or growths[-1]
        batched = field.batch_eval(candidates)
        assert sum(growths) >= 3  # the graph did grow mid-batch
        assert field.graph.obstacle_ids() == {0, 1, 2, 3}
        # The three before the first wall are straight legs; the hidden
        # ones are probed, some once per field they outlive.
        assert field._stats.straight_legs == 3
        # The centre is a node: only the probes' give-ups are swept.
        probes = (field._stats.last_leg_probes, field._stats.last_leg_fallbacks)
        assert probes[0] > len(candidates) - 3 and probes[1] > 0
        assert batched[-1] == inf
        assert counter.anchor_calls == probes[1]

        loop_field, loop_counter, __ = self._setup(backend)
        looped = [loop_field.distance_to(p) for p in candidates]
        assert batched == looped  # bitwise
        # One candidate at a time probes the same nodes of the same
        # fields, and gives up on the same candidates.
        stats = loop_field._stats
        assert (stats.last_leg_probes, stats.last_leg_fallbacks) == probes
        assert loop_counter.anchor_calls == counter.anchor_calls


class TestRepeatedSources:
    """The profiles' distance stream: every goal fresh, its source the
    nearest of a few.  A source's first sighting on a freeze anchors it
    and memoizes its field; every hidden goal's last leg is probed with
    the exact oracle — no backend call — and every answer is still a
    cold exact-key ``naive`` database's."""

    def test_fresh_goals_from_seen_sources_sweep_nothing(self):
        rng = random.Random(41)
        obstacles = random_disjoint_rects(rng, 14)
        points = random_free_points(rng, 124, obstacles)
        sources, goals = points[:4], points[4:]
        db = ObstacleDatabase(
            [o.polygon for o in obstacles],
            max_entries=8,
            min_entries=3,
            graph_cache_snap=500.0,
            cache_policy="static",
        )
        ctx = db.context
        counter = _AnchorCallCounter(ctx)
        entry = ctx.entry_for(goals[0], 300.0)  # one graph covers the scene
        pairs = [(min(sources, key=q.distance), q) for q in goals]
        # Pairs that see each other are straight legs (their twin below).
        pairs = [(p, q) for p, q in pairs if not is_visible(p, q, obstacles)]
        n_sources = len({p for p, __ in pairs})
        # Hidden from every node: the probe gives up and sweeps it.
        pairs.append((sources[0], obstacles[0].polygon.centroid()))
        seen = set()
        got = []
        for p, q in pairs[:-1]:
            calls = counter.anchor_calls
            got.append(db.obstructed_distance(p, q))
            assert counter.anchor_calls == calls + (p not in seen)
            seen.add(p)
        assert len(seen) == n_sources
        got.append(db.obstructed_distance(*pairs[-1]))
        cold = ObstacleDatabase(
            [o.polygon for o in obstacles],
            max_entries=8,
            min_entries=3,
            backend="naive",
            graph_cache_snap=0.0,
            cache_policy="static",
        )
        assert got == [cold.obstructed_distance(p, q) for p, q in pairs]
        assert got[-1] == inf
        assert len(ctx.cache) == 1 and ctx.stats.field_freezes == 1
        assert frozen(entry.graph) is entry.graph._csr[1]
        stats = db.runtime_stats()
        # Every hidden goal is probed, at a source's first sighting too.
        assert stats["last_leg_probes"] == len(pairs)
        assert stats["last_leg_fallbacks"] == 1
        assert counter.anchor_calls == n_sources + 1

    def test_a_straight_distance_constructs_no_field(self, monkeypatch):
        """``distance`` decides sight first: a visible pair is its
        straight leg with no ``SourceDistanceField`` built; a hidden
        pair builds exactly one."""
        from repro.runtime import context as context_module

        built = []
        real = context_module.SourceDistanceField

        def counting(*args, **kwargs):
            built.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(context_module, "SourceDistanceField", counting)
        db = ObstacleDatabase([Rect(4, -10, 6, 10)], max_entries=8, min_entries=3)
        assert db.obstructed_distance((0.0, 0.0), (0.0, 3.0)) == 3.0
        assert built == []
        assert db.runtime_stats()["straight_legs"] == 1
        assert db.obstructed_distance((0.0, 0.0), (10.0, 0.0)) > 10.0
        assert built == [Point(0.0, 0.0)]
        assert db.runtime_stats()["straight_legs"] == 1

    def test_a_straight_leg_makes_no_backend_call(self):
        """The twin: a pair that sees each other is answered by its
        straight leg — no anchor call, no probe, no freeze, and the
        registered graph stays pending — and still equals a cold
        exact-key ``naive`` database's answer."""
        rng = random.Random(41)
        obstacles = random_disjoint_rects(rng, 14)
        points = random_free_points(rng, 124, obstacles)
        sources, goals = points[:4], points[4:]
        pairs = [(min(sources, key=q.distance), q) for q in goals]
        pairs = [(p, q) for p, q in pairs if is_visible(p, q, obstacles)]
        assert len(pairs) > 20
        db = ObstacleDatabase(
            [o.polygon for o in obstacles],
            max_entries=8,
            min_entries=3,
            graph_cache_snap=500.0,
            cache_policy="static",
        )
        ctx = db.context
        counter = _AnchorCallCounter(ctx)
        connects = []
        connect = ctx.backend.connect_pairs
        ctx.backend.connect_pairs = lambda scenes: connects.append(scenes) or (
            connect(scenes)
        )
        entry = ctx.entry_for(goals[0], 300.0)  # one graph covers the scene
        got = [db.obstructed_distance(p, q) for p, q in pairs]
        assert got == [p.distance(q) for p, q in pairs]
        assert counter.anchor_calls == 0 and not connects
        stats = db.runtime_stats()
        assert stats["straight_legs"] == len(pairs)
        assert stats["field_freezes"] == stats["last_leg_probes"] == 0
        assert entry.graph.pending and entry.graph.edge_count == 0
        cold = ObstacleDatabase(
            [o.polygon for o in obstacles],
            max_entries=8,
            min_entries=3,
            backend="naive",
            graph_cache_snap=0.0,
            cache_policy="static",
        )
        assert got == [cold.obstructed_distance(p, q) for p, q in pairs]
