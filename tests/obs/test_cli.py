"""The ``repro-obs`` command-line interface."""

from __future__ import annotations

import json
import random

import pytest

from repro.datasets.io import save_obstacles, save_points
from repro.obs.cli import main
from repro.persist.cli import main as snapshot_main

from tests.conftest import random_disjoint_rects, random_free_points


@pytest.fixture
def scene(tmp_path):
    """Dataset files plus a warm snapshot built through repro-snapshot."""
    rng = random.Random(23)
    obstacles = random_disjoint_rects(rng, 8)
    points = random_free_points(rng, 6, obstacles)
    obstacle_path = tmp_path / "obstacles.txt"
    points_path = tmp_path / "pois.txt"
    save_obstacles(obstacle_path, obstacles)
    save_points(points_path, points)
    snap = tmp_path / "scene.snap"
    assert (
        snapshot_main(
            [
                "save",
                "--obstacles",
                str(obstacle_path),
                "--entities",
                f"pois={points_path}",
                "--warm",
                "2",
                "--out",
                str(snap),
            ]
        )
        == 0
    )
    return snap, obstacle_path, points_path


class TestExport:
    def test_json_export_from_snapshot(self, scene, capsys):
        snap, __, __ = scene
        assert main(["export", "--snapshot", str(snap), "--probe", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # Counters restored from the warm snapshot plus the probe work.
        assert doc["runtime"]["graph_builds"] >= 1
        assert any(name.startswith("entities:") for name in doc["pages"])

    def test_prometheus_export_from_datasets(self, scene, capsys):
        __, obstacle_path, points_path = scene
        code = main(
            [
                "export",
                "--obstacles",
                str(obstacle_path),
                "--entities",
                f"pois={points_path}",
                "--probe",
                "2",
                "--format",
                "prometheus",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_runtime_graph_builds gauge" in out
        assert "repro_runtime_graph_builds" in out

    def test_trace_out_roundtrips_through_trace_command(
        self, scene, tmp_path, capsys
    ):
        snap, __, __ = scene
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "export",
                "--snapshot",
                str(snap),
                "--probe",
                "2",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(trace_path.read_text())
        assert doc["name"].startswith("query.")
        assert main(["trace", str(trace_path)]) == 0
        printed = capsys.readouterr().out
        assert doc["name"] in printed
        assert "ms" in printed

    def test_source_arguments_are_exclusive(self, scene, capsys):
        snap, obstacle_path, __ = scene
        assert main(["export"]) == 2
        assert (
            main(
                [
                    "export",
                    "--snapshot",
                    str(snap),
                    "--obstacles",
                    str(obstacle_path),
                ]
            )
            == 2
        )


class TestTrace:
    def test_rejects_non_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["trace", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_renders_slow_log_dump(self, tmp_path, capsys):
        entries = [
            {
                "name": "query.nearest",
                "duration_ms": 12.5,
                "trace": {
                    "name": "query.nearest",
                    "start": 0.0,
                    "duration_s": 0.0125,
                    "counters": {"rtree.page_fetch": 4},
                    "children": [
                        {
                            "name": "graph.build",
                            "start": 0.0,
                            "duration_s": 0.01,
                        }
                    ],
                },
            }
        ]
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(entries))
        assert main(["trace", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "query.nearest" in printed
        assert "graph.build" in printed
        assert "rtree.page_fetch=4" in printed


class TestTop:
    def test_top_prints_one_line_per_tick(self, scene, capsys):
        snap, __, __ = scene
        assert main(["top", "--snapshot", str(snap), "--ticks", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 ticks
        assert "reqs" in lines[0]
        assert "req/batch" in lines[0] and "wait p50" in lines[0]
        # Each tick's probes arrive together: one batch holds them all.
        row = lines[1].split()
        assert int(row[2]) == 1 and float(row[3]) == int(row[1]) > 1

    def test_top_rejects_bad_ticks(self, scene, capsys):
        snap, __, __ = scene
        assert main(["top", "--snapshot", str(snap), "--ticks", "0"]) == 2
