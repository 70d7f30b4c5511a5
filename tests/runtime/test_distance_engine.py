"""Point-to-point distances off the cached graph: the compiled engine's
``QueryContext.distance`` reads the frozen graph and leaves it alone,
and answers bit for bit what the reference engine (insert, search the
dict graph, delete) and a cold Fig. 8 computation answer."""

import random
from math import inf

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ObstacleDatabase, Point, Rect
from repro.core.distance import compute_obstructed_distance
from repro.obs import TRACER
from repro.runtime.context import QueryContext
from repro.runtime.field import FIELD_ENGINE_ENV
from repro.visibility import VisibilityGraph
from repro.visibility.csr import ANCHOR_MEMO_LIMIT, frozen
from tests.conftest import (
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)
from tests.strategies import disjoint_rect_obstacles, free_points

BACKENDS = ["python-sweep", "naive", "numpy-kernel"]

#: Inserted by every warm history, clear of both scene families.
INSERTED = Rect(-9.0, 10.0, -3.0, 30.0)


@st.composite
def _touching_grid_obstacles(draw):
    """Grid cells taken whole or inset on all four sides: flush
    neighbours share entire edges and corners, and edges line up in
    collinear runs.  (``grid_aligned_obstacles`` of the backend parity
    suite insets side by side, which also puts one rectangle's corner
    in the middle of another's edge; the ``python-sweep`` backend's
    sweep from such a corner sees points on or inside the other
    obstacle, so under it *every* engine — the reference and a cold
    graph included — answers by which node was swept last.  Those
    contacts are left to ROADMAP item 3.)"""
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    obstacles = []
    for oid, (i, j) in enumerate(cells):
        inset = draw(st.sampled_from((0.0, 2.0)))
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


@st.composite
def _cases(draw):
    """A scene, ONN / OR centres that warm the cache, and endpoint
    pairs over every kind of point: free, obstacle vertex, on an edge,
    strictly inside an obstacle, an entity, a cached centre, a
    near-duplicate of one (a guest under spatial keys), equal."""
    obstacles = draw(
        st.one_of(disjoint_rect_obstacles(), _touching_grid_obstacles())
    )
    entities = draw(free_points(obstacles, min_count=2, max_count=6))
    centres = draw(free_points(obstacles, min_count=1, max_count=3))
    centres += [
        c for c in (Point(c.x + 0.3, c.y + 0.2) for c in list(centres))
        if not any(o.polygon.contains_or_boundary(c) for o in obstacles)
    ]
    fresh = draw(free_points(obstacles, min_count=2, max_count=5))
    vertices = [v for o in obstacles for v in o.polygon.vertices]
    on_edges = [
        o.polygon.boundary_point_at(draw(st.floats(0.0, 0.999)))
        for o in obstacles[:3]
    ]
    inside = [o.polygon.centroid() for o in obstacles[:2]]
    pool = fresh + vertices + on_edges + inside + entities + centres
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
            min_size=1,
            max_size=8,
        )
    )
    pairs += [(fresh[0], fresh[0]), (fresh[0], INSERTED.center())]
    return obstacles, entities, centres, pairs


def _warm_answers(case, backend, snap):
    """The case replayed on a fresh database under the engine the
    environment selects: warm history first (guests admitted, an insert
    and a delete repaired in place), then every pair twice."""
    obstacles, entities, centres, pairs = case
    db = ObstacleDatabase(
        [o.polygon for o in obstacles],
        max_entries=8,
        min_entries=3,
        backend=backend,
        graph_cache_snap=snap,
    )
    db.add_entity_set("pois", entities)
    for c in centres:
        db.nearest("pois", c, 2)
        db.range("pois", c, 25.0)
    db.range("pois", centres[0], 200.0)  # one graph the mutations reach
    db.insert_obstacle(INSERTED)
    db.nearest("pois", centres[0], 1)
    assert db.delete_obstacle(0)
    answers = [db.obstructed_distance(p, q) for p, q in pairs * 2]
    assert db.runtime_stats()["graph_cache_repairs"] >= 1
    return db, answers


@pytest.mark.parametrize("snap", [0.0, 2.0])
@pytest.mark.parametrize("backend", BACKENDS)
@settings(
    max_examples=20, deadline=None, suppress_health_check=list(HealthCheck)
)
@given(case=_cases())
def test_compiled_equals_reference_equals_cold(backend, snap, case):
    with pytest.MonkeyPatch.context() as env:
        env.setenv(FIELD_ENGINE_ENV, "csr")
        db, compiled = _warm_answers(case, backend, snap)
        env.setenv(FIELD_ENGINE_ENV, "python")
        __, reference = _warm_answers(case, backend, snap)
    assert compiled == reference  # bitwise
    pairs = case[3]
    index = db.obstacle_index
    for (p, q), got in zip(pairs, compiled):
        if p == q:
            assert got == 0.0
            continue
        # Fig. 8 from nothing, as a one-shot call runs it: the graph
        # around q, then p swept in.
        graph = VisibilityGraph.build(
            [q], index.obstacles_in_range(q, p.distance(q)), method=backend
        )
        graph.add_entity(p)
        assert got == compute_obstructed_distance(graph, p, q, index)
    assert compiled[len(pairs) - 1] == inf  # into the inserted obstacle


def _warm_context(seed=11, *, snap=0.0, n_obstacles=14):
    from repro.core.source import build_obstacle_index

    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    index = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    ctx = QueryContext(index, snap=snap, policy="static")
    return ctx, rng, obstacles


class TestGraphIsOnlyRead:
    def test_distance_leaves_the_cached_graph_untouched(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "csr")
        ctx, rng, obstacles = _warm_context(snap=4.0)
        key = ctx.cache.key_for
        q, *others = (
            c for c in random_free_points(rng, 40, obstacles)
            if key(c) == key(Point(c.x + 0.5, c.y + 0.25))
            == key(Point(c.x - 0.75, c.y + 0.5))
        )
        near_q = Point(q.x + 0.5, q.y + 0.25)
        ctx.distance(others[0], q)
        ctx.field_for(near_q, 30.0).distance_to(others[1])  # a guest
        entry = ctx.cache.get(q, ctx.version)
        graph = entry.graph
        for p in others:
            ctx.distance(p, q)  # reach: no enlargement left afterwards
        frozen(graph)
        before = (
            graph.structure_revision,
            graph.node_count,
            list(entry.guests),
            id(graph._csr[1]),
        )
        assert before[2] == [near_q]
        for p in others:
            for target in (q, near_q, Point(q.x - 0.75, q.y + 0.5)):
                ctx.distance(p, target)
                ctx.distance(target, p)
        assert before == (
            graph.structure_revision,
            graph.node_count,
            list(entry.guests),
            id(graph._csr[1]),
        )

    def test_warm_calls_freeze_at_most_once_per_entry(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "csr")
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

    def test_reference_engine_still_inserts_and_deletes(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "python")
        ctx, rng, obstacles = _warm_context(seed=13)
        p, q = random_free_points(rng, 2, obstacles)
        ctx.distance(p, q)
        graph = ctx.cache.get(q, ctx.version).graph
        revision = graph.structure_revision
        ctx.distance(p, q)
        assert graph.structure_revision > revision
        assert not graph.has_node(p)
        assert ctx.stats.field_freezes == 0


class TestBoundPruning:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_below_the_answer_matches_the_reference(
        self, backend, monkeypatch
    ):
        """OCP's pruning path: with ``bound`` below the provisional
        distance the Fig. 8 loop stops early; both engines stop at the
        same (possibly inexact) value."""
        values = {}
        for engine in ("csr", "python"):
            monkeypatch.setenv(FIELD_ENGINE_ENV, engine)
            rng = random.Random(77)
            obstacles = random_disjoint_rects(rng, 16)
            points = random_free_points(rng, 10, obstacles)
            db = ObstacleDatabase(
                [o.polygon for o in obstacles],
                max_entries=8,
                min_entries=3,
                backend=backend,
            )
            out = []
            for p in points[1:]:
                exact = db.context.distance(p, points[0])
                for share in (0.25, 0.9, 1.0, 1.5):
                    # A fresh centre per call: the early exit must come
                    # from the bound, not from coverage already there.
                    q = Point(points[0].x + share, points[0].y)
                    out.append(
                        db.context.distance(p, q, bound=share * exact * 0.5)
                    )
            values[engine] = out
        assert values["csr"] == values["python"]


class TestAnchorMemoBound:
    def test_ten_thousand_endpoints_stay_within_the_cap(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "csr")
        ctx, rng, obstacles = _warm_context(seed=14, n_obstacles=6)
        q = random_free_points(rng, 1, obstacles)[0]
        ctx.distance(Point(q.x + 60.0, q.y + 60.0), q)  # coverage
        endpoints = random_free_points(rng, 10_000, obstacles)
        entry = ctx.cache.get(q, ctx.version)
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

    def test_a_batch_larger_than_the_cap_is_never_evicted(self):
        from repro.core.source import build_obstacle_index

        obstacles = [rect_obstacle(0, 4.0, -3.0, 6.0, 3.0)]
        index = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        graph = VisibilityGraph.build([Point(0.0, 0.0)], obstacles)
        csr = frozen(graph)
        old = [Point(-1.0 - i, 0.5) for i in range(10)]
        for p in old:
            csr.anchors_for(p, graph)
        batch = [Point(10.0 + 0.01 * i, 1.0) for i in range(ANCHOR_MEMO_LIMIT + 5)]
        csr.anchors_for(batch[0], graph, batch[::-1])
        assert all(p in csr.anchors for p in batch)
        assert not any(p in csr.anchors for p in old)


class TestSearchSpan:
    def test_one_search_span_per_round_with_the_walked_share(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "csr")
        ctx, rng, obstacles = _warm_context(seed=15)
        p, q = random_free_points(rng, 2, obstacles)
        ctx.distance(p, q)
        with TRACER.detached("query.distance") as root:
            ctx.distance(p, q)
        spans = [
            child
            for child in root.to_dict()["children"]
            if child["name"] == "distance.search"
        ]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert set(attrs) >= {"seeds", "goals", "settled", "nodes"}
        assert 0 < attrs["settled"] <= attrs["nodes"]
