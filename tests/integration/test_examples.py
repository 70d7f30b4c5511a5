"""Smoke tests: every example script must run to completion.

Examples are executed in-process (via runpy) with small seeds; their
printed output is captured and sanity-checked for the key phenomena
they demonstrate.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [script] + argv
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run("quickstart.py", [], capsys)
    assert "Obstacle range query" in out
    assert "detour!" in out
    assert "Obstacle closest pairs" in out


def test_city_navigation(capsys):
    out = _run("city_navigation.py", ["42"], capsys)
    assert "Pedestrian at" in out
    assert "Walking route" in out
    assert "Detour factor" in out


def test_facility_planning(capsys):
    out = _run("facility_planning.py", ["7"], capsys)
    assert "True walking coverage" in out
    assert "Pharmacy load" in out


def test_incremental_browsing(capsys):
    out = _run("incremental_browsing.py", ["3"], capsys)
    assert "dispatch" in out
    assert "Nearest available ambulance" in out


def test_visualize_scene(tmp_path, capsys):
    out_file = tmp_path / "scene.svg"
    out = _run("visualize_scene.py", ["11", str(out_file)], capsys)
    assert out_file.exists()
    assert "wrote" in out
    assert out_file.read_text().startswith("<svg")
