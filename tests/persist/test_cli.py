"""The ``repro-snapshot`` command-line interface."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import ObstacleDatabase
from repro.datasets.io import save_obstacles, save_points
from repro.persist.cli import main
from repro.persist.codec import FORMAT_VERSION

from tests.conftest import random_disjoint_rects, random_free_points


@pytest.fixture
def dataset_files(tmp_path):
    """Obstacle + entity dataset files and their records."""
    rng = random.Random(11)
    obstacles = random_disjoint_rects(rng, 10)
    points = random_free_points(rng, 15, obstacles)
    obstacle_path = tmp_path / "obstacles.txt"
    points_path = tmp_path / "cafes.txt"
    save_obstacles(obstacle_path, obstacles)
    save_points(points_path, points)
    return obstacle_path, points_path, obstacles, points


class TestSave:
    def test_save_info_verify(self, dataset_files, tmp_path, capsys):
        obstacle_path, points_path, obstacles, points = dataset_files
        out = tmp_path / "scene.snap"
        code = main(
            [
                "save",
                "--obstacles",
                str(obstacle_path),
                "--entities",
                f"cafes={points_path}",
                "--warm",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert main(["info", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"obstacle set 'obstacles': {len(obstacles)} obstacle(s)" in printed
        assert "cafes" in printed
        assert "dataset ref" in printed
        assert main(["verify", str(out)]) == 0
        db = ObstacleDatabase.load(out)
        assert len(db.obstacle_index) == len(obstacles)
        assert db.entity_tree("cafes").size == len(points)
        assert len(db.context.cache) > 0  # --warm shipped a warm cache
        # A cached graph is listed as what registered it: obstacles and
        # free points, no node or edge count.
        assert f"snapshot format v{FORMAT_VERSION}" in printed
        for i, entry in enumerate(db.context.cache.entries()):
            held, free = entry.graph.registration()
            assert (
                f"graph {i}: center=({entry.center.x:g}, {entry.center.y:g}), "
                f"covered={entry.covered:g}, {len(held)} obstacle(s), "
                f"{len(free)} free point(s), stamp of 1 version(s)"
            ) in printed
        assert "node(s)" not in printed and "edge(s)" not in printed

    def test_warm_without_entities(self, dataset_files, tmp_path):
        obstacle_path = dataset_files[0]
        out = tmp_path / "scene.snap"
        code = main(
            [
                "save",
                "--obstacles",
                str(obstacle_path),
                "--warm",
                "2",
                "--no-refs",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(ObstacleDatabase.load(out).context.cache) > 0

    def test_malformed_entity_spec(self, dataset_files, tmp_path):
        obstacle_path = dataset_files[0]
        code = main(
            [
                "save",
                "--obstacles",
                str(obstacle_path),
                "--entities",
                "nofile",
                "--out",
                str(tmp_path / "x.snap"),
            ]
        )
        assert code == 2

    def test_corrupt_file_reports_error(self, dataset_files, tmp_path, capsys):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"garbage bytes, not a snapshot")
        assert main(["verify", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
