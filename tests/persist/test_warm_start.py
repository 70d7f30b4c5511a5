"""Warm-start regression tests.

A restored database must (a) build zero new visibility graphs for
query centres its restored cache already covers, and (b) keep routing
post-load mutations repair-first — the context re-subscribes to the
restored sources' mutation feed at load time.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.geometry.rect import Rect

from tests.persist import producer
from tests.persist.helpers import backend_params, cache_signature

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _warm_db(backend: str, shards: int | None) -> tuple[ObstacleDatabase, list[Point]]:
    obstacles = [
        Rect(10.0, 10.0, 20.0, 25.0),
        Rect(40.0, 5.0, 55.0, 18.0),
        Rect(30.0, 40.0, 45.0, 52.0),
    ]
    db = ObstacleDatabase(obstacles, backend=backend, shards=shards)
    db.add_entity_set("P", [Point(5.0, 5.0), Point(25.0, 30.0), Point(60.0, 20.0)])
    probes = [Point(0.0, 0.0), Point(35.0, 35.0), Point(50.0, 2.0)]
    for q in probes:
        db.nearest("P", q, 2)
    return db, probes


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("shards", [None, 8])
def test_covered_centres_build_nothing(tmp_path, backend, shards):
    """Load-then-query builds 0 new graphs for restored centres."""
    db, probes = _warm_db(backend, shards)
    live = [db.nearest("P", q, 2) for q in probes]
    path = tmp_path / "warm.snap"
    db.save(path)
    saved = db.runtime_stats()
    loaded = ObstacleDatabase.load(path, backend=backend)
    assert [loaded.nearest("P", q, 2) for q in probes] == live
    # Counters persist (format 2): the replay adds zero builds and
    # zero rebuilds on top of the restored counts — only cache hits.
    stats = loaded.runtime_stats()
    assert stats["graph_builds"] == saved["graph_builds"]
    assert stats["graph_rebuilds"] == saved["graph_rebuilds"]
    assert stats["graph_cache_hits"] > saved["graph_cache_hits"]


@pytest.mark.parametrize("shards", [None, 8])
def test_mutation_after_load_routes_repair_first(tmp_path, shards):
    """An insert landing inside a restored coverage disk is repaired in
    place (feed re-subscription), not invalidated."""
    db, probes = _warm_db("python-sweep", shards)
    path = tmp_path / "warm.snap"
    db.save(path)
    loaded = ObstacleDatabase.load(path, backend="python-sweep")
    # Prime one lookup so the entry is demonstrably live, then mutate
    # inside its coverage disk (the probe's nearest ran at radius >=
    # distance to the entities, so a small box near the probe is in).
    q = probes[0]
    loaded.nearest("P", q, 2)
    before = loaded.runtime_stats()["graph_cache_repairs"]
    record = loaded.insert_obstacle(Rect(q.x + 1.0, q.y + 1.0, q.x + 3.0, q.y + 3.0))
    after_insert = loaded.runtime_stats()
    assert after_insert["graph_cache_repairs"] > before
    assert after_insert["graph_cache_invalidations"] == 0
    # The repaired cache answers exactly like a cold database over the
    # mutated obstacle set.
    reference = ObstacleDatabase(
        [o.polygon for __, o in _obstacle_items(loaded)],
        backend="python-sweep",
    )
    reference.add_entity_set(
        "P", [p for p, __ in loaded.entity_tree("P").items()]
    )
    for probe in probes:
        assert loaded.nearest("P", probe, 2) == reference.nearest(
            "P", probe, 2
        )
    # Delete routes repair-first too.
    repairs = loaded.runtime_stats()["graph_cache_repairs"]
    assert loaded.delete_obstacle(record)
    assert loaded.runtime_stats()["graph_cache_repairs"] > repairs


def _obstacle_items(db: ObstacleDatabase):
    """(oid, obstacle) pairs of the primary set, deduped."""
    seen = {}
    for tree in db._obstacle_indexes["obstacles"].trees():
        for obs, __ in tree.items():
            seen[obs.oid] = obs
    return sorted(seen.items())


def test_field_reuse_after_load(tmp_path):
    """obstructed_distance against a restored centre reuses the
    restored graph (distance-call path, not just nearest)."""
    db = ObstacleDatabase([Rect(4.0, 2.0, 6.0, 8.0)])
    a, b = Point(2.0, 5.0), Point(8.0, 5.0)
    live = db.obstructed_distance(a, b)
    path = tmp_path / "d.snap"
    db.save(path)
    saved_builds = db.runtime_stats()["graph_builds"]
    loaded = ObstacleDatabase.load(path)
    assert loaded.obstructed_distance(a, b) == live
    assert loaded.runtime_stats()["graph_builds"] == saved_builds


def _produce_in_child(path) -> None:
    """Run ``python -m tests.persist.producer`` in a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    result = subprocess.run(
        [sys.executable, "-m", "tests.persist.producer", str(path)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


class TestCrossProcess:
    def test_subprocess_saved_snapshot_loads_here(self, tmp_path):
        """Save in one process, load in another: the producer module
        writes the snapshot in a child interpreter; this process
        restores it and matches an independently built twin."""
        path = tmp_path / "cross.snap"
        _produce_in_child(path)
        loaded = ObstacleDatabase.load(path)
        twin = producer.build_db()
        # The producer is deterministic, so the restored counters match
        # an identically built twin's exactly — and the probe replay
        # builds nothing new on either.
        assert (
            loaded.runtime_stats()["graph_builds"]
            == twin.runtime_stats()["graph_builds"]
        )
        assert producer.expected_answers(loaded) == producer.expected_answers(
            twin
        )
        assert (
            loaded.runtime_stats()["graph_builds"]
            == twin.runtime_stats()["graph_builds"]
        )
        assert cache_signature(loaded) == cache_signature(twin)

    def test_ci_handshake_snapshot(self, tmp_path):
        """The producer/consumer handshake: a child interpreter saves,
        this one restores onto the other visibility backend and cache
        policy (runtime configuration a snapshot does not carry) and
        answers as the twin does, building no graph."""
        path = tmp_path / "handshake.snap"
        _produce_in_child(path)
        loaded = ObstacleDatabase.load(
            path, backend="python-sweep", cache_policy="adaptive"
        )
        assert loaded.runtime_stats()["backend"] == "python-sweep"
        twin = producer.build_db()
        assert producer.expected_answers(loaded) == producer.expected_answers(
            twin
        )
        assert (
            loaded.runtime_stats()["graph_builds"]
            == twin.runtime_stats()["graph_builds"]
        )
