"""Persisted frozen-CSR distance-field arrays.

A snapshot carries, per cached graph, the frozen CSR adjacency arrays
of a freeze that was current at save time.  A warm load installs
them, so the first field evaluation after a restart skips the freeze;
entries whose freeze was stale at save time load with no frozen arrays
and re-freeze lazily.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.persist import codec, snapshot_info

from tests.persist.helpers import backend_params, warm_queries


def _warm_db(backend: str = "python-sweep") -> tuple[ObstacleDatabase, list[Point]]:
    obstacles = [
        Rect(10.0, 10.0, 20.0, 25.0),
        Rect(40.0, 5.0, 55.0, 18.0),
        Rect(30.0, 40.0, 45.0, 52.0),
    ]
    db = ObstacleDatabase(obstacles, backend=backend)
    db.add_entity_set(
        "P", [Point(5.0, 5.0), Point(25.0, 30.0), Point(60.0, 20.0)]
    )
    return db, [Point(0.0, 0.0), Point(35.0, 35.0), Point(50.0, 2.0)]


def _frozen_arrays(db: ObstacleDatabase) -> list[tuple]:
    out = []
    for entry in db.context.cache.entries():
        cached = entry.graph._csr
        if cached is not None and cached[0] == entry.graph.structure_revision:
            csr = cached[1]
            out.append(
                (
                    tuple(csr.points),
                    csr.indptr.tolist(),
                    csr.indices.tolist(),
                    csr.weights.tolist(),
                )
            )
    return out


@pytest.mark.parametrize("backend", backend_params())
def test_roundtrip_installs_frozen_arrays(tmp_path, backend):
    db, probes = _warm_db(backend)
    live = warm_queries(db, probes)
    saved_frozen = _frozen_arrays(db)
    assert saved_frozen  # the warm stream froze at least one graph
    path = tmp_path / "frozen.snap"
    db.save(path)

    info = snapshot_info(path)
    assert info["format_version"] == codec.FORMAT_VERSION
    assert info["frozen_fields"] == len(saved_frozen)

    loaded = ObstacleDatabase.load(path, backend=backend)
    assert _frozen_arrays(loaded) == saved_frozen
    freezes_before = loaded.runtime_stats()["field_freezes"]
    assert warm_queries(loaded, probes) == live
    # The restored arrays served the warm stream: zero new freezes.
    assert loaded.runtime_stats()["field_freezes"] == freezes_before


def test_stale_freeze_not_written(tmp_path):
    db, probes = _warm_db()
    warm_queries(db, probes)
    assert _frozen_arrays(db)
    # Mutate every cached graph's topology: the freezes go stale and
    # the save must omit them rather than persist a wrong adjacency.
    for entry in db.context.cache.entries():
        entry.graph.add_entity(Point(-50.0, -50.0))
    path = tmp_path / "stale.snap"
    db.save(path)
    assert snapshot_info(path)["frozen_fields"] == 0
    loaded = ObstacleDatabase.load(path)
    assert _frozen_arrays(loaded) == []


def test_entry_without_frozen_arrays_refreezes_lazily(tmp_path):
    db, probes = _warm_db()
    live = warm_queries(db, probes)
    for entry in db.context.cache.entries():
        entry.graph._csr = None  # as if never frozen
    path = tmp_path / "unfrozen.snap"
    db.save(path)
    assert snapshot_info(path)["frozen_fields"] == 0
    loaded = ObstacleDatabase.load(path)
    assert _frozen_arrays(loaded) == []
    freezes_before = loaded.runtime_stats()["field_freezes"]
    assert warm_queries(loaded, probes) == live
    assert loaded.runtime_stats()["field_freezes"] > freezes_before


def test_array_codec_roundtrip():
    """The ``f64_array``/``u32_array`` primitives round-trip exact
    values, including empties."""
    from repro.persist.codec import BinaryReader, BinaryWriter

    w = BinaryWriter()
    floats = [0.0, 1.5, -2.25, 3.141592653589793e300]
    ints = [0, 1, 7, 2**32 - 1]
    w.f64_array(floats)
    w.u32_array(ints)
    w.f64_array([])
    w.u32_array([])
    r = BinaryReader(w.getvalue(), path="<memory>")
    assert list(r.f64_array()) == floats
    assert list(r.u32_array()) == ints
    assert len(r.f64_array()) == 0
    assert len(r.u32_array()) == 0
