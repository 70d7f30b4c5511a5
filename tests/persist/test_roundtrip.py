"""Round-trip property suite: a restored database is observationally
identical to the live one.

Hypothesis-randomized scenes (shared strategies) are saved and
reloaded across every visibility backend, with one obstacle set and
with two (a composite source);
the restored database must reproduce bit-identical query answers,
identical simulated page-miss counters on a fixed access sequence,
and structurally identical cached visibility graphs.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.model import Obstacle
from repro.visibility.csr import frozen

from tests.persist.helpers import (
    backend_params,
    cache_signature,
    runtime_counters,
    warm_queries,
)
from tests.conftest import split_database
from tests.strategies import disjoint_rect_obstacles, free_points


def _build_db(
    obstacles, entities, *, backend: str, sets: int, snap: float = 0.0
) -> ObstacleDatabase:
    db = split_database(
        [o.polygon for o in obstacles],
        sets=sets,
        backend=backend,
        graph_cache_snap=snap,
        max_entries=8,
        min_entries=3,
    )
    db.add_entity_set("P", entities)
    return db


def _roundtrip(db: ObstacleDatabase, tmp_dir, backend: str) -> ObstacleDatabase:
    path = os.path.join(str(tmp_dir), "db.snap")
    db.save(path)
    return ObstacleDatabase.load(path, backend=backend)


@st.composite
def _scenes(draw: st.DrawFn):
    """``(obstacles, entities, probes, snap)``."""
    obstacles = draw(disjoint_rect_obstacles(max_count=5))
    entities = draw(free_points(obstacles, min_count=2, max_count=6))
    probes = draw(free_points(obstacles, min_count=1, max_count=3))
    return obstacles, entities, probes, draw(st.sampled_from([0.0, 2.0]))


#: The second pass over this scene still sweeps once (a last-leg anchor),
#: so the lockstep replay below needs both sides at the same pass.
_SECOND_PASS_SWEEPS = (
    [
        Obstacle(0, Polygon.from_rect(Rect(5.0, 5.0, 15.0, 15.0))),
        Obstacle(1, Polygon.from_rect(Rect(5.0, 25.0, 15.0, 35.0))),
    ],
    [Point(0.0, 15.0), Point(11.0, 17.0)],
    [Point(0.0, 41.0)],
    0.0,
)


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("sets", [1, 2])
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scene=_scenes())
@example(scene=_SECOND_PASS_SWEEPS)
def test_roundtrip_parity(tmp_path, backend, sets, scene):
    """Answers, page counters, runtime counters and cached graphs all
    survive save -> load, on randomized scenes."""
    obstacles, entities, probes, snap = scene
    db = _build_db(obstacles, entities, backend=backend, sets=sets, snap=snap)
    live_answers = warm_queries(db, probes)
    saved_builds = db.runtime_stats()["graph_builds"]
    loaded = _roundtrip(db, tmp_path, backend)

    # Runtime counters persist (format 2): the restored database
    # reports the same build count it was saved with...
    assert loaded.runtime_stats()["graph_builds"] == saved_builds
    # ...and a warm start means replaying the workload adds zero new
    # builds on top of it, answering identically.
    loaded_answers = warm_queries(loaded, probes)
    assert loaded_answers == live_answers
    assert loaded.runtime_stats()["graph_builds"] == saved_builds

    # Cached graphs are structurally identical (before the replay the
    # signature already matched; the replay mutates recency only).
    assert cache_signature(loaded) == cache_signature(db)

    # Identical page-miss counters on a fixed access sequence: the
    # restored trees have the same pages *and* the same buffer
    # residency, so the counters march in lockstep — once the live
    # database has also run the pass the restored one just did (a
    # repeated pass may still sweep for a last-leg anchor).
    assert warm_queries(db, probes) == live_answers
    assert cache_signature(loaded) == cache_signature(db)
    db.reset_stats()
    loaded.reset_stats()
    replay_live = warm_queries(db, probes)
    replay_loaded = warm_queries(loaded, probes)
    assert replay_loaded == replay_live
    assert loaded.stats() == db.stats()
    assert runtime_counters(loaded) == runtime_counters(db)


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("sets", [1, 2])
def test_batch_answers_roundtrip(tmp_path, backend, sets):
    """batch_nearest / batch_range parity between live and restored."""
    obstacles = [
        Rect(10.0, 10.0, 20.0, 25.0),
        Rect(40.0, 5.0, 55.0, 18.0),
        Rect(30.0, 40.0, 45.0, 52.0),
    ]
    entities = [Point(5.0, 5.0), Point(25.0, 30.0), Point(60.0, 20.0)]
    queries = [Point(0.0, 0.0), Point(35.0, 35.0), Point(50.0, 2.0)]
    db = split_database(obstacles, sets=sets, backend=backend)
    db.add_entity_set("P", entities)
    live_nearest = db.batch_nearest("P", queries, 2, workers=0)
    live_range = db.batch_range("P", queries, 30.0, workers=0)
    loaded = _roundtrip(db, tmp_path, backend)
    assert loaded.batch_nearest("P", queries, 2, workers=0) == live_nearest
    assert loaded.batch_range("P", queries, 30.0, workers=0) == live_range


def test_composite_sources_roundtrip(tmp_path):
    """Multiple obstacle sets (composite source) round-trip."""
    db = ObstacleDatabase([Rect(2.0, 2.0, 4.0, 8.0)])
    db.add_obstacle_set("extra", [Rect(10.0, 1.0, 12.0, 6.0)])
    db.add_entity_set("P", [Point(6.0, 5.0), Point(0.0, 5.0)])
    q = Point(1.0, 5.0)
    live = db.nearest("P", q, 2)
    loaded = _roundtrip(db, tmp_path, "naive")
    assert loaded.nearest("P", q, 2) == live
    assert sorted(loaded._obstacle_indexes) == ["extra", "obstacles"]


def test_mutated_database_roundtrips_versions(tmp_path):
    """Insert/delete history (version counters) survives, so stamps
    saved fresh stay fresh and stamps saved stale stay stale."""
    db = ObstacleDatabase([Rect(2.0, 2.0, 4.0, 8.0)])
    db.add_entity_set("P", [Point(6.0, 5.0)])
    record = db.insert_obstacle(Rect(8.0, 2.0, 9.0, 4.0))
    db.nearest("P", Point(1.0, 5.0), 1)
    assert db.delete_obstacle(record)
    live_version = db.obstacle_index.version
    loaded = _roundtrip(db, tmp_path, "naive")
    assert loaded.obstacle_index.version == live_version
    assert [e.version for e in loaded.context.cache.entries()] == [
        e.version for e in db.context.cache.entries()
    ]
    assert loaded.nearest("P", Point(1.0, 5.0), 1) == db.nearest(
        "P", Point(1.0, 5.0), 1
    )


def test_dynamic_entity_updates_roundtrip(tmp_path):
    """Entity trees built by repeated insertion (not bulk) round-trip
    with their exact page structure."""
    db = ObstacleDatabase([Rect(5.0, 5.0, 8.0, 9.0)], bulk=False)
    db.add_entity_set("P", [])
    for i in range(40):
        db.insert_entity("P", Point(float(i % 7), float(i % 11)))
    assert db.delete_entity("P", Point(0.0, 0.0))
    live_tree = db.entity_tree("P")
    loaded = _roundtrip(db, tmp_path, "naive")
    loaded_tree = loaded.entity_tree("P")
    loaded_tree.check_invariants()
    assert loaded_tree.size == live_tree.size
    assert loaded_tree.page_count == live_tree.page_count
    assert loaded_tree.root_id == live_tree.root_id
    assert loaded_tree.height == live_tree.height
    assert sorted(loaded_tree.buffer.page_ids()) == sorted(
        live_tree.buffer.page_ids()
    )
    assert loaded_tree.counter.snapshot() == live_tree.counter.snapshot()


def test_cold_snapshot_excludes_cache(tmp_path):
    """include_cache=False writes structure only; the restored runtime
    starts cold but answers identically."""
    db = ObstacleDatabase([Rect(3.0, 3.0, 6.0, 7.0)])
    db.add_entity_set("P", [Point(1.0, 1.0), Point(9.0, 9.0)])
    q = Point(5.0, 1.0)
    live = db.nearest("P", q, 1)
    path = os.path.join(str(tmp_path), "cold.snap")
    db.save(path, include_cache=False)
    loaded = ObstacleDatabase.load(path)
    assert len(loaded.context.cache) == 0
    assert loaded.nearest("P", q, 1) == live
    assert loaded.runtime_stats()["graph_builds"] > 0


def test_runtime_counters_roundtrip(tmp_path):
    """Format 2 carries the runtime counters: a restored database
    reports exactly the values it was saved with (except ``backend``,
    which the restored context re-selects)."""
    db = ObstacleDatabase([Rect(4.0, 2.0, 6.0, 8.0)])
    db.add_entity_set("P", [Point(1.0, 5.0), Point(9.0, 5.0)])
    db.nearest("P", Point(2.0, 1.0), 2)
    db.obstructed_distance(Point(2.0, 5.0), Point(8.0, 5.0))
    saved = db.runtime_stats()
    assert saved["graph_builds"] > 0  # the probe did real work
    loaded = _roundtrip(db, tmp_path, "naive")
    restored = loaded.runtime_stats()
    for counter, value in saved.items():
        if counter == "backend":
            continue
        assert restored[counter] == value, f"counter {counter} drifted"


def test_empty_database_roundtrip(tmp_path):
    """A database with no obstacles and no entities still round-trips."""
    db = ObstacleDatabase([])
    loaded = _roundtrip(db, tmp_path, "naive")
    assert len(loaded.obstacle_index) == 0
    assert loaded.universe() is None


def _page_reads(db: ObstacleDatabase) -> int:
    return sum(counts["reads"] for counts in db.stats().values())


def _grow_every_entry(db: ObstacleDatabase, factor: float) -> int:
    """Grow each cached graph's coverage by ``factor``; the pages read."""
    before = _page_reads(db)
    for entry in list(db.context.cache.entries()):
        db.context.ensure_coverage(entry, entry.covered * factor)
    return _page_reads(db) - before


def test_a_loaded_entry_keeps_its_clear_radius(tmp_path):
    """ROADMAP item 21: growing every entry of ``producer.build_db``'s
    one-set twin by 1 % stays inside each clear radius and reads no
    page — after save / load as well as live (format 8 dropped the
    bounds: 14 page reads)."""
    from tests.persist.producer import build_db

    live = build_db(False, 0.0)
    loaded = _roundtrip(live, tmp_path, "numpy-kernel")
    assert len(loaded.context.cache) == 6
    assert [(e.clear_sq, e.clear_d) for e in loaded.context.cache.entries()] == [
        (e.clear_sq, e.clear_d) for e in live.context.cache.entries()
    ]
    assert _grow_every_entry(live, 1.01) == 0
    assert _grow_every_entry(loaded, 1.01) == 0


#: The ``snapshot`` profile (``tests/conftest.py``) at 200 examples, or
#: at the profile's own 500 when it is loaded
#: (``--hypothesis-profile snapshot``).
SNAPSHOT = settings(
    settings.get_profile("snapshot"),
    max_examples=max(200, settings.default.max_examples),
)


@SNAPSHOT
@given(
    scene=_scenes(),
    sets=st.sampled_from([1, 2]),
    grow=st.sampled_from([1.001, 1.01, 1.5, 3.0]),
    data=st.data(),
)
def test_the_next_ops_read_the_same_pages_after_a_roundtrip(
    tmp_path_factory, scene, sets, grow, data
):
    """A saved database and the one loaded from its file read the same
    pages — and answer the same — on their next ops: the probes again,
    farther, then every cached graph grown by ``grow``.  Each cached
    graph is saved pending or, drawn per entry, connected first as a
    bend query's freeze connects it; the loaded one is pending either
    way."""
    obstacles, entities, probes, snap = scene
    db = _build_db(obstacles, entities, backend="numpy-kernel", sets=sets, snap=snap)
    warm_queries(db, probes)
    for entry in db.context.cache.entries():
        if data.draw(st.booleans(), label="connected"):
            frozen(entry.graph)
    loaded = _roundtrip(db, tmp_path_factory.mktemp("snap"), "numpy-kernel")

    def next_ops(one: ObstacleDatabase) -> tuple:
        one.reset_stats()
        answers = warm_queries(one, probes, k=len(entities)) + [
            one.range("P", q, 15.0 * grow) for q in probes
        ]
        return answers, _grow_every_entry(one, grow), one.stats()

    assert next_ops(loaded) == next_ops(db)


@pytest.mark.parametrize("backend", backend_params())
def test_a_save_writes_each_graph_as_registered(tmp_path, backend, monkeypatch):
    """A save makes no visibility test and leaves the live cache as it
    found it — a pending entry pending, a connected one connected — and
    the load registers each graph again, every node pending, with the
    centre, coverage, clear radius, stamp, obstacles and free points
    the live entry has; both answer as a cold ``naive`` database."""
    walls = [Rect(4.0, -10.0, 6.0, 10.0), Rect(20.0, 0.0, 22.0, 30.0)]

    def database(backend: str) -> ObstacleDatabase:
        db = ObstacleDatabase(walls, max_entries=8, min_entries=3, backend=backend)
        db.add_entity_set("P", [Point(0.0, 0.0), Point(10.0, 0.0), Point(30.0, 5.0)])
        return db

    db = database(backend)
    db.obstructed_distance(Point(0.0, 12.0), Point(10.0, 12.0))  # in sight
    db.obstructed_distance(Point(0.0, 0.0), Point(10.0, 0.0))  # round the wall
    pending, connected = entries = db.context.cache.entries()
    assert pending.graph.pending and pending.graph.edge_count == 0
    assert not connected.graph.pending and connected.graph.edge_count > 0
    before = [(list(e.graph.pending), e.graph.edge_count) for e in entries]

    def called(*args, **kwargs):
        raise AssertionError("a save decided a visibility pair")

    path = tmp_path / "registered.snap"
    with monkeypatch.context() as spy:
        for name in ("connect_pairs", "visible_pairs", "visible_ids"):
            spy.setattr(type(db.context.backend), name, called)
        db.save(path)
    assert [(list(e.graph.pending), e.graph.edge_count) for e in entries] == before

    loaded = ObstacleDatabase.load(path, backend=backend)
    restored = loaded.context.cache.entries()
    assert len(restored) == len(entries)
    for live, back in zip(entries, restored):
        assert back.center == live.center and back.covered == live.covered
        assert (back.clear_sq, back.clear_d) == (live.clear_sq, live.clear_d)
        assert back.version == live.version
        assert back.graph.obstacle_ids() == live.graph.obstacle_ids()
        assert back.graph.registration()[1] == live.graph.registration()[1]
        assert list(back.graph.pending) == list(back.graph.nodes())
        assert back.graph.edge_count == 0

    cold = database("naive")
    probes = [Point(0.0, 12.0), Point(10.0, 12.0), Point(0.0, 0.0), Point(10.0, 0.0)]
    for a in probes:
        for b in probes:
            want = cold.obstructed_distance(a, b)
            assert loaded.obstructed_distance(a, b) == want, (a, b)
            assert db.obstructed_distance(a, b) == want, (a, b)
        want = cold.nearest("P", a, 3)
        assert loaded.nearest("P", a, 3) == db.nearest("P", a, 3) == want


@pytest.mark.parametrize("backend", backend_params())
def test_a_centre_on_an_obstacle_corner_survives_the_corners_delete(
    tmp_path, backend
):
    """A query centre on an obstacle corner is promoted to a vertex; a
    loaded graph must promote it again, so deleting the obstacle after
    the load demotes the centre to a free point, as live, instead of
    dropping it from the graph."""
    db = ObstacleDatabase(
        [Rect(2.0, 2.0, 4.0, 8.0), Rect(10.0, 0.0, 12.0, 6.0)], backend=backend
    )
    db.add_entity_set("P", [Point(6.0, 5.0), Point(0.0, 5.0)])
    corner = Point(2.0, 2.0)
    live = db.nearest("P", corner, 2)
    loaded = _roundtrip(db, tmp_path, backend)
    for one in (db, loaded):
        assert one.delete_obstacle(0)
        (entry,) = one.context.cache.entries()
        assert corner in entry.graph.free_points()
        assert one.nearest("P", corner, 2) == db.nearest("P", corner, 2) != live
