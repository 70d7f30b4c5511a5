"""Golden snapshots: bytes written by an earlier build keep their meaning.

``tests/persist/data/*.snap`` were written at the commit before the
snapshot payload got its one reader (format version 5):
``producer.build_db()`` — sharded, spatial keys, warm cache with
frozen graphs — and its monolithic exact-key twin, dataset refs off,
each as a *re-saved* snapshot (``load(first).save(golden)``: a live
database's file and its first re-save differ in buffer recency, a
re-saved one is a fixed point).  ``*.info.json`` is ``snapshot_info``
of each at that commit.  Both were re-saved once more (``load(golden).
save(golden)``) when ``RuntimeStats`` gained ``last_leg_probes`` /
``last_leg_fallbacks``: section 7 is name-keyed, so the two zero
counters, the section's count and the header are the only bytes that
moved.  Both were regenerated at format version 6, when every cache
entry's stamp became one encoding (a ``u32`` count and that many
``i64`` versions) and the sharded set lost its layout version; the
``stamp`` of each ``*.info.json`` cache entry is now that count.  Both
were regenerated at format version 7, when every graph became the
tangent visibility graph: the cached graphs' edge lists (and the edge
counts of each ``*.info.json`` cache entry) shrank with it.  Both
were re-saved once more when ``RuntimeStats`` gained
``exact_band_pairs``: one zero counter (29 bytes), the section's count
and the header moved, and each ``*.info.json`` gained the key.  Both
were re-saved once more when ``RuntimeStats`` lost ``sweep_passes``
with the kernel's rotational sweep: one counter (25 bytes), the
section's count and the header moved, and each ``*.info.json`` lost the
key.
Any other change that moves either is a format change:
bump ``FORMAT_VERSION``, then regenerate with
``python -m tests.persist.test_golden`` from the repo root.

The property below ties the two readers' *results* together on random
scenes: every count ``snapshot_info`` reports is the one read off the
database ``load_database`` assembles from the same file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import ObstacleDatabase
from repro.core.source import ShardedObstacleIndex
from repro.persist import snapshot_info

from tests.persist.helpers import storage_params, warm_queries
from tests.persist.producer import SHARDS, SNAP, build_db
from tests.strategies import disjoint_rect_obstacles, free_points

DATA = Path(__file__).parent / "data"
GOLDEN = {"sharded_spatial": (SHARDS, SNAP), "mono_exact": (None, 0.0)}


def _info_doc(path: Path) -> dict:
    """``snapshot_info`` as committed: through JSON, path made relative."""
    info = snapshot_info(path)
    info["path"] = path.name
    return json.loads(json.dumps(info))


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGolden:
    def test_loads_and_resaves_to_identical_bytes(self, name, tmp_path):
        golden = DATA / f"{name}.snap"
        again = tmp_path / "again.snap"
        ObstacleDatabase.load(golden).save(again)
        assert again.read_bytes() == golden.read_bytes()

    def test_info_equals_committed_json(self, name):
        want = json.loads((DATA / f"{name}.info.json").read_text())
        got = _info_doc(DATA / f"{name}.snap")
        assert list(got) == list(snapshot_info(DATA / f"{name}.snap"))
        assert got == want


def test_info_builds_no_obstacle_tree_or_graph(monkeypatch):
    """``snapshot_info`` summarises parsed parts: nothing is assembled."""
    from repro.geometry.polygon import Polygon
    from repro.index.rstar import RStarTree
    from repro.model import Obstacle
    from repro.visibility.graph import VisibilityGraph

    def built(self, *args, **kwargs):
        raise AssertionError(f"snapshot_info built a {type(self).__name__}")

    for cls in (Obstacle, Polygon, RStarTree, VisibilityGraph):
        monkeypatch.setattr(cls, "__init__", built)
    info = snapshot_info(DATA / "sharded_spatial.snap")
    assert info["cached_graphs"] == info["frozen_fields"] == 6


@st.composite
def _scenes(draw: st.DrawFn):
    obstacles = draw(disjoint_rect_obstacles(max_count=5))
    entities = draw(free_points(obstacles, min_count=2, max_count=6))
    probes = draw(free_points(obstacles, min_count=1, max_count=3))
    return obstacles, entities, probes


@pytest.mark.parametrize("include_cache", [True, False])
@pytest.mark.parametrize("shards", storage_params())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scene=_scenes())
def test_info_counts_are_the_loaded_databases(
    tmp_path, shards, include_cache, scene
):
    obstacles, entities, probes = scene
    db = ObstacleDatabase(
        [o.polygon for o in obstacles],
        shards=shards,
        graph_cache_snap=2.0,
        max_entries=8,
        min_entries=3,
    )
    db.add_entity_set("P", entities)
    warm_queries(db, probes)
    path = os.path.join(str(tmp_path), "db.snap")
    db.save(path, include_cache=include_cache)

    info = snapshot_info(path)
    loaded = ObstacleDatabase.load(path)
    assert info["shards"] == shards
    assert info["next_oid"] == len(obstacles)
    assert info["distinct_obstacles"] == len(obstacles)
    assert info["journal_seq"] == 0

    (row,) = info["obstacle_sets"]
    index = loaded.obstacle_index
    assert row["obstacles"] == len(index)
    assert row["pages"] == sum(len(list(t.pages())) for t in index.trees())
    if shards is not None:
        assert isinstance(index, ShardedObstacleIndex)
        assert row["kind"] == "sharded"
        assert row["shards"] == index.shard_count
        assert row["grid_order"] == index.grid.order
    else:
        assert row["kind"] == "monolithic"
    (entity_row,) = info["entity_sets"]
    tree = loaded.entity_tree("P")
    assert entity_row["points"] == len(tree) == len(entities)
    assert entity_row["pages"] == len(list(tree.pages()))
    counters = {
        key: {k: row[k] for k in ("reads", "misses", "writes")}
        for key, row in (
            ("obstacles:obstacles", row),
            ("entities:P", entity_row),
        )
    }
    assert counters == loaded.stats()

    entries = loaded.context.cache.entries()
    assert info["cached_graphs"] == len(entries)
    assert include_cache or not entries
    frozen = 0
    for summary, entry in zip(info["cache_entries"], entries):
        graph = entry.graph
        assert summary["center"] == (entry.center.x, entry.center.y)
        assert summary["covered"] == entry.covered
        assert summary["obstacles"] == len(graph.obstacle_ids())
        assert summary["nodes"] == len(list(graph.nodes()))
        assert summary["edges"] == sum(
            len(list(graph.neighbors(u))) for u in graph.nodes()
        ) // 2
        assert summary["stamp"] == len(entry.version)
        if shards is None:
            assert summary["stamp"] == 1
        if graph._csr is not None:
            frozen += 1
            csr = graph._csr[1]
            assert summary["frozen_nodes"] == len(csr.points)
            assert summary["frozen_edges"] == len(csr.indices) // 2
        else:
            assert "frozen_nodes" not in summary
    assert info["frozen_fields"] == frozen
    saved = {k: v for k, v in info["runtime_stats"].items() if k != "backend"}
    assert saved == {
        k: v for k, v in loaded.runtime_stats().items() if k != "backend"
    }


def regenerate() -> None:
    """Rewrite the golden files from :func:`producer.build_db`."""
    for name, (shards, snap) in GOLDEN.items():
        db = build_db(shards, snap)
        db.context.stats.sweep_seconds = 0.0  # the one wall-clock counter
        first, golden = DATA / f"{name}.first", DATA / f"{name}.snap"
        db.save(first)
        ObstacleDatabase.load(first).save(golden)
        first.unlink()
        (DATA / f"{name}.info.json").write_text(
            json.dumps(_info_doc(golden), indent=2, sort_keys=True) + "\n"
        )


if __name__ == "__main__":
    regenerate()
