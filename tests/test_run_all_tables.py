"""The figure tables ``benchmarks/run_all.py`` prints and records.

``_print`` renders a figure's ``(x, metrics)`` rows as a right-aligned
text table, one column per plotted series, and records the same rows
for ``--json``.  The expected texts below are the layout the harness
has always printed; a change to them changes every figure's output.
"""

import pytest

from benchmarks import run_all

KEYS = [
    ("entity_pa", "data R-tree PA"),
    ("obstacle_pa", "obstacle R-tree PA"),
    ("cpu_ms", "CPU (ms)"),
]
ROWS = [
    (0.1, {"entity_pa": 2.0, "obstacle_pa": 7.25, "cpu_ms": 0.5}),
    (1.0, {"entity_pa": 12.5, "obstacle_pa": 7.0, "cpu_ms": 13.0625}),
    (10.0, {"entity_pa": 1234.5, "obstacle_pa": 8.0, "cpu_ms": 0.0}),
]
TITLE = "Fig. 13 - OR cost vs |P|/|O| (e=0.1%)"


@pytest.fixture(autouse=True)
def results(monkeypatch):
    """A fresh ``RESULTS`` record, so no test sees another's rows."""
    fresh: dict = {}
    monkeypatch.setattr(run_all, "RESULTS", fresh)
    return fresh


def test_rows_print_as_a_right_aligned_table(capsys):
    run_all._print(TITLE, "|P|/|O|", ROWS, KEYS)
    assert capsys.readouterr().out == (
        "== Fig. 13 - OR cost vs |P|/|O| (e=0.1%) ==\n"
        "|P|/|O|  data R-tree PA  obstacle R-tree PA  CPU (ms)\n"
        "-------  --------------  ------------------  --------\n"
        "    0.1           2.000               7.250     0.500\n"
        "      1          12.500               7.000    13.062\n"
        "     10        1234.500               8.000     0.000\n"
        "\n"
    )


def test_no_rows_print_the_header_and_rule(capsys):
    run_all._print("t", "k", [], KEYS)
    assert capsys.readouterr().out == (
        "== t ==\n"
        "k  data R-tree PA  obstacle R-tree PA  CPU (ms)\n"
        "-  --------------  ------------------  --------\n"
        "\n"
    )


def test_printed_rows_are_recorded_with_every_metric(results, capsys):
    rows = [(x, {**metrics, "unplotted": x * 2}) for x, metrics in ROWS]
    run_all._print(TITLE, "|P|/|O|", rows, KEYS[:1])
    assert "unplotted" not in capsys.readouterr().out
    assert results == {
        TITLE: {
            "x_label": "|P|/|O|",
            "rows": [{"x": x, **metrics} for x, metrics in rows],
        }
    }
