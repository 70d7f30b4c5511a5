"""Golden snapshots: bytes written by an earlier build keep their meaning.

``tests/persist/data/*.snap`` are ``producer.build_db()`` — two
obstacle sets, spatial keys, warm cache — and its
one-set exact-key twin, dataset refs off, each *re-saved*
(``load(first).save(golden)``, a fixed point), with ``snapshot_info``
of each as ``*.info.json``; a change that moves them bumps
``FORMAT_VERSION`` and regenerates all four with
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
from repro.persist import snapshot_info

from tests.persist.helpers import warm_queries
from tests.persist.producer import SNAP, build_db
from tests.strategies import disjoint_rect_obstacles, free_points

DATA = Path(__file__).parent / "data"
GOLDEN = {"composite_spatial": (True, SNAP), "mono_exact": (False, 0.0)}


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
    info = snapshot_info(DATA / "composite_spatial.snap")
    assert info["cached_graphs"] == 6


@st.composite
def _scenes(draw: st.DrawFn):
    obstacles = draw(disjoint_rect_obstacles(max_count=5))
    entities = draw(free_points(obstacles, min_count=2, max_count=6))
    probes = draw(free_points(obstacles, min_count=1, max_count=3))
    return obstacles, entities, probes


@pytest.mark.parametrize("include_cache", [True, False])
@pytest.mark.parametrize("sets", [1, 2])
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scene=_scenes())
def test_info_counts_are_the_loaded_databases(
    tmp_path, sets, include_cache, scene
):
    obstacles, entities, probes = scene
    polygons = [o.polygon for o in obstacles]
    db = ObstacleDatabase(
        polygons[::sets], graph_cache_snap=2.0, max_entries=8, min_entries=3
    )
    if sets == 2:
        db.add_obstacle_set("walls", polygons[1::2])
    db.add_entity_set("P", entities)
    warm_queries(db, probes)
    path = os.path.join(str(tmp_path), "db.snap")
    db.save(path, include_cache=include_cache)

    info = snapshot_info(path)
    loaded = ObstacleDatabase.load(path)
    assert info["next_oid"] == len(obstacles)
    assert info["distinct_obstacles"] == len(obstacles)
    assert info["journal_seq"] == 0

    indexes = loaded._obstacle_indexes
    assert [row["name"] for row in info["obstacle_sets"]] == list(indexes)
    for row in info["obstacle_sets"]:
        index = indexes[row["name"]]
        assert row["obstacles"] == len(index)
        assert row["pages"] == len(list(index.tree.pages()))
    (entity_row,) = info["entity_sets"]
    tree = loaded.entity_tree("P")
    assert entity_row["points"] == len(tree) == len(entities)
    assert entity_row["pages"] == len(list(tree.pages()))
    counters = {
        key: {k: row[k] for k in ("reads", "misses", "writes")}
        for key, row in [
            *((f"obstacles:{row['name']}", row) for row in info["obstacle_sets"]),
            ("entities:P", entity_row),
        ]
    }
    assert counters == loaded.stats()

    entries = loaded.context.cache.entries()
    assert info["cached_graphs"] == len(entries)
    assert include_cache or not entries
    for summary, entry in zip(info["cache_entries"], entries):
        graph = entry.graph
        assert summary["center"] == (entry.center.x, entry.center.y)
        assert summary["covered"] == entry.covered
        assert summary["obstacles"] == len(graph.obstacle_ids())
        assert summary["free"] == len(graph.registration()[1])
        assert summary["stamp"] == len(entry.version) == sets
    saved = {k: v for k, v in info["runtime_stats"].items() if k != "backend"}
    assert saved == {
        k: v for k, v in loaded.runtime_stats().items() if k != "backend"
    }


def regenerate() -> None:
    """Rewrite the golden files from :func:`producer.build_db`."""
    for name, (composite, snap) in GOLDEN.items():
        db = build_db(composite, snap)
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
