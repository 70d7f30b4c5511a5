"""The figure tables ``benchmarks/run_all.py`` prints and records.

``_print`` renders a figure's ``(x, metrics)`` rows as a right-aligned
text table, one column per plotted series, and records the same rows
for ``--json``.  The expected texts below are the layout the harness
has always printed; a change to them changes every figure's output.
``judge`` turns a figure's claim checks into its verdict, and
``run_figures`` runs each sweep once for every figure that plots it.
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


@pytest.mark.parametrize(
    "shape, holding, deviating",
    [
        ("rises", [1.0, 0.0, 2.0], [2.0, 3.0, 1.0]),
        ("falls", [3.0, 4.0, 1.0], [1.0, 0.0, 1.0]),
        ("flat", [2.0, 3.0, 4.0], [0.0, 1.0, 1.0]),
        ("peaks", [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]),
        ("never rises", [3.0, 3.0, 1.0], [3.0, 1.0, 2.0]),
        ("equal", [1.0, 1.0, 1.0], [1.0, 1.0, 2.0]),
    ],
)
def test_each_shape_on_a_series_that_has_it_and_one_that_has_not(
    shape, holding, deviating
):
    assert run_all.SHAPES[shape](holding)
    assert not run_all.SHAPES[shape](deviating)


CHECKS = (("entity_pa", "rises"), ("obstacle_pa", "flat"))


def test_a_claim_holds_when_every_check_passes():
    assert run_all.judge(CHECKS, ROWS) == "holds"


def test_a_claim_deviates_and_names_the_checks_that_failed():
    """Fig. 13's shape at the default scale: the obstacle tree is never
    read at the sparsest set, so its page accesses are not flat."""
    rows = [
        (0.1, {"entity_pa": 2.0, "obstacle_pa": 0.0}),
        (1.0, {"entity_pa": 1.125, "obstacle_pa": 0.75}),
        (10.0, {"entity_pa": 3.25, "obstacle_pa": 1.75}),
    ]
    assert run_all.judge(CHECKS, rows) == "deviates (failed: obstacle_pa flat)"
    falling = [(x, {**m, "entity_pa": -x}) for x, m in rows]
    assert run_all.judge(CHECKS, falling) == (
        "deviates (failed: entity_pa rises, obstacle_pa flat)"
    )


def test_every_figure_names_a_sweep_columns_and_checks_it_can_read():
    columns = {
        "entity_pa", "obstacle_pa", "obstacle_reads", "cpu_ms", "cpu_s",
        "false_hit_ratio", "result_size",
    }
    for figure in run_all.FIGURES:
        assert figure.sweep in run_all.SWEEPS
        assert {key for key, __ in figure.columns} <= columns
        assert figure.checks and all(
            shape in run_all.SHAPES and column in columns - {"cpu_ms", "cpu_s"}
            for column, shape in figure.checks
        )


def test_each_sweep_runs_once_for_every_figure_that_plots_it(
    monkeypatch, results, capsys
):
    ran = []

    def fake_sweep(sweep):
        ran.append(sweep)
        metrics = dict.fromkeys(
            ("entity_pa", "obstacle_pa", "cpu_ms", "false_hit_ratio"), 1.0
        )
        return [(x, metrics) for x in sweep.xs]

    monkeypatch.setattr(run_all, "run_sweep", fake_sweep)
    run_all.run_figures({"13", "15"})
    assert ran == [run_all.SWEEPS["or-cardinality"], run_all.SWEEPS["or-range"]]
    assert list(results) == [
        "Fig. 13 - OR cost vs |P|/|O| (e=0.1%)",
        "Fig. 15a - OR false-hit ratio vs |P|/|O| (e=0.1%)",
        "Fig. 15b - OR false-hit ratio vs e (|P|=|O|)",
    ]
    assert results[TITLE]["verdict"] == "deviates (failed: entity_pa rises)"
    assert results[TITLE]["claim"].startswith("entity R-tree page accesses grow")
    out = capsys.readouterr().out
    assert "check: entity_pa rises, obstacle_pa flat -> deviates" in out
