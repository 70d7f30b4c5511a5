"""The benchmark-regression gate: compare() semantics and the committed
baseline's integrity."""

import json
import pathlib

import pytest

from benchmarks.check_regression import (
    GATES,
    _lookup,
    compare,
    delta_rows,
    format_delta_table,
    format_markdown_summary,
    main,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _doc(**overrides):
    """A minimal passing document, with dotted-path overrides."""
    results = {
        "smoke": {
            "OR": {
                "entity_pa": 2.5,
                "obstacle_pa": 3.0,
                "result_size": 1.0,
                "false_hit_ratio": 0.0,
            },
            "ONN (k=4)": {"entity_pa": 3.5, "obstacle_pa": 6.5},
            "ODJ": {"obstacle_pa": 22.0, "result_size": 5.0},
            "OCP (k=4)": {"entity_pa": 11.0, "result_size": 4.0},
        },
        "smoke repeated d_O": {
            "fresh": {"graph_builds": 16.0},
            "cached": {"graph_builds": 2.0},
        },
        "smoke moving-query cache": {
            "exact": {"graph_builds": 24.0},
            "snapped": {"graph_builds": 3.0},
        },
        "smoke snapshot warm-start": {
            "builds_cold": 24.0,
            "builds_warm": 0.0,
            "build_reduction": float("inf"),
        },
        "smoke kernel": {
            "edges_match": 1.0,
            "tangent_build_match": 1.0,
            "batch_match": 1.0,
            "batched 56v": {"batch_match": 1.0, "batch_speedup_ok": 1.0},
            "batched 1000v": {"batch_match": 1.0, "batch_speedup_ok": 1.0},
        },
        "smoke euclidean": {
            "join 131x13k": {"match": 1.0, "speedup_ok": 1.0},
            "closest 131x13k": {"match": 1.0, "speedup_ok": 1.0},
        },
        "smoke serve": {
            "parity": 1.0,
            "warm_builds": 0.0,
            "persistent": {"graph_builds": 8.0, "pool_batches": 8.0},
        },
        "smoke obs": {
            "trace_parity": 1.0,
            "pool_trace_merged": 1.0,
            "registry_complete": 1.0,
            "prometheus_parses": 1.0,
        },
        "smoke field engine": {
            "parity": 1.0,
            "counters_match": 1.0,
            "graph_builds": 4.0,
            "field_freezes": 10.0,
        },
        "smoke warm distance stream": {
            "parity": 1.0,
            "field_freezes": 0.0,
            "node_growth": 0.0,
            "backend_calls": 1000.0,
        },
        "smoke warm distance stream (repeated sources)": {
            "parity": 1.0,
            "field_freezes": 0.0,
            "node_growth": 0.0,
            "backend_calls": 81.0,
            "last_leg_fallbacks": 0.0,
        },
        "smoke adaptive policy": {
            "gate_ok": 1.0,
            "parity": 1.0,
            "trace_deterministic": 1.0,
            "wins": 2.0,
            "losses": 0.0,
            "zipf-hotspot": {"builds_adaptive": 17.0},
            "churn-heavy": {"builds_adaptive": 13.0},
        },
        "smoke journal": {
            "recovery_parity": 1.0,
            "compaction_ok": 1.0,
            "incremental_ok": 1.0,
            "save_speedup_ok": 1.0,
            "bytes_ratio": 195.0,
            "write_amplification": 1.0,
        },
    }
    for dotted, value in overrides.items():
        node = results
        *parents, leaf = dotted.split("/")
        for key in parents:
            node = node[key]
        if value is None:
            del node[leaf]
        else:
            node[leaf] = value
    return {"results": results}


class TestCompare:
    def test_identical_documents_pass(self):
        assert compare(_doc(), _doc()) == []

    def test_every_gate_path_resolves_in_the_fixture(self):
        doc = _doc()["results"]
        for path, __ in GATES:
            assert _lookup(doc, path) is not None, path

    def test_lower_gate_catches_regression(self):
        worse = _doc(**{"smoke/OR/entity_pa": 2.5 * 1.4})
        violations = compare(_doc(), worse)
        assert len(violations) == 1
        assert "entity_pa" in violations[0]

    def test_lower_gate_tolerates_within_threshold(self):
        slightly = _doc(**{"smoke/OR/entity_pa": 2.5 * 1.2})
        assert compare(_doc(), slightly) == []

    def test_improvement_always_passes(self):
        better = _doc(**{"smoke moving-query cache/snapped/graph_builds": 1.0})
        assert compare(_doc(), better) == []

    def test_higher_gate_catches_drop(self):
        base = _doc(**{"smoke snapshot warm-start/build_reduction": 8.0})
        worse = _doc(**{"smoke snapshot warm-start/build_reduction": 4.0})
        violations = compare(base, worse)
        assert len(violations) == 1
        assert "build_reduction" in violations[0]

    def test_infinite_reduction_is_stable(self):
        # inf baseline vs inf current (builds_warm == 0 on both sides).
        assert compare(_doc(), _doc()) == []
        worse = _doc(**{"smoke snapshot warm-start/build_reduction": 4.0})
        assert compare(_doc(), worse)  # falling from inf is a regression

    def test_exact_gate_catches_any_change(self):
        flipped = _doc(**{"smoke serve/parity": 0.0})
        violations = compare(_doc(), flipped)
        assert len(violations) == 1
        assert "parity" in violations[0]

    def test_exact_gate_on_a_zero_count_catches_growth(self):
        # A warm distance call that adds one node to its graph is a
        # regression no relative threshold on a zero baseline would see.
        grown = _doc(**{"smoke warm distance stream/node_growth": 1.0})
        violations = compare(_doc(), grown)
        assert len(violations) == 1
        assert "node_growth" in violations[0]

    def test_missing_in_current_is_a_violation(self):
        gone = _doc(**{"smoke kernel": None})
        violations = compare(_doc(), gone)
        assert any("missing from the current run" in v for v in violations)

    def test_missing_in_baseline_is_skipped(self):
        old = _doc(**{"smoke serve": None})
        assert compare(old, _doc()) == []

    def test_threshold_override(self):
        worse = _doc(**{"smoke/OR/entity_pa": 2.5 * 1.2})
        assert compare(_doc(), worse, threshold=0.1)

    def test_bare_results_mapping_accepted(self):
        assert compare(_doc()["results"], _doc()["results"]) == []

    def test_a_figure_verdict_must_not_move(self):
        """A figure record's ``verdict`` is gated exactly, a deviation
        included: it may neither start nor stop holding."""

        def figs(verdict):
            record = {"x_label": "k", "rows": [], "verdict": verdict}
            return {"results": {"Fig. 17": record}}

        held, deviated = figs("holds"), figs("deviates (failed: entity_pa rises)")
        assert compare(held, figs("holds")) == []
        assert compare(deviated, deviated) == []
        assert compare(held, deviated) == [
            "Fig. 17 / verdict: expected 'holds', got "
            "'deviates (failed: entity_pa rises)'"
        ]
        assert compare(deviated, held)
        assert compare(held, {"results": {}}) == [
            "Fig. 17 / verdict: missing from the current run"
        ]
        text = format_delta_table(delta_rows(held, deviated))
        assert "Fig. 17 / verdict" in text and "holds" in text


class TestDeltaTable:
    def test_one_row_per_gate(self):
        rows = delta_rows(_doc(), _doc())
        assert len(rows) == len(GATES)
        assert all(r[5] == "ok" for r in rows)

    def test_regression_row_carries_old_new_delta(self):
        worse = _doc(**{"smoke/OR/entity_pa": 5.0})
        row = next(
            r for r in delta_rows(_doc(), worse) if "entity_pa" in r[0]
        )
        label, direction, base, cur, delta, verdict = row
        assert (direction, base, cur, verdict) == ("lower", 2.5, 5.0, "FAIL")
        assert delta == pytest.approx(100.0)

    def test_missing_baseline_rows_are_skipped(self):
        old = _doc(**{"smoke field engine": None})
        rows = delta_rows(old, _doc())
        skipped = [r for r in rows if r[5] == "skipped"]
        assert len(skipped) == 4  # the four field-engine gates
        assert compare(old, _doc()) == []

    def test_skipped_rows_carry_the_current_value(self):
        # The CLI's stale-baseline check (exit 3) needs to see whether
        # the current run emitted the gate the baseline lacks.
        old = _doc(**{"smoke adaptive policy": None})
        rows = delta_rows(old, _doc())
        skipped = [r for r in rows if r[5] == "skipped"]
        assert len(skipped) == 7  # the seven adaptive-policy gates
        assert all(r[2] is None for r in skipped)  # no baseline value
        assert all(r[3] is not None for r in skipped)  # current value rides

    def test_zero_and_inf_baselines_have_no_delta(self):
        rows = delta_rows(_doc(), _doc())
        by_label = {r[0]: r for r in rows}
        assert by_label["smoke snapshot warm-start / builds_warm"][4] is None
        assert (
            by_label["smoke snapshot warm-start / build_reduction"][4] is None
        )

    def test_plain_table_renders_every_gate(self):
        text = format_delta_table(delta_rows(_doc(), _doc()))
        assert "Δ%" in text and "verdict" in text
        for path, __ in GATES:
            assert " / ".join(path) in text

    def test_failures_only_filter(self):
        worse = _doc(**{"smoke/OR/entity_pa": 5.0})
        text = format_delta_table(
            delta_rows(_doc(), worse), failures_only=True
        )
        assert "entity_pa" in text
        assert "field engine" not in text

    def test_markdown_summary_counts_failures(self):
        worse = _doc(**{"smoke serve/parity": 0.0})
        md = format_markdown_summary(
            delta_rows(_doc(), worse), threshold=0.3
        )
        assert "**1 regression(s)**" in md
        assert "| smoke serve / parity |" in md
        assert md.count("❌") == 1

    def test_markdown_summary_clean(self):
        md = format_markdown_summary(delta_rows(_doc(), _doc()), threshold=0.3)
        assert "all gates clean" in md
        assert "❌" not in md


class TestCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _doc())
        cur = self._write(tmp_path, "cur.json", _doc())
        assert main([base, cur]) == 0
        assert "clean" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _doc())
        cur = self._write(
            tmp_path, "cur.json", _doc(**{"smoke/OR/entity_pa": 99.0})
        )
        assert main([base, cur]) == 1
        assert "entity_pa" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        base = self._write(tmp_path, "base.json", _doc())
        cur = self._write(
            tmp_path, "cur.json", _doc(**{"smoke/OR/entity_pa": 2.5 * 1.2})
        )
        assert main([base, cur]) == 0
        assert main(["--threshold", "0.1", base, cur]) == 1

    def test_bad_usage_exits_two(self, tmp_path):
        assert main([]) == 2
        assert main(["--threshold", "x", "a", "b"]) == 2
        assert main(["--summary"]) == 2

    def test_failure_prints_delta_table(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _doc())
        cur = self._write(
            tmp_path, "cur.json", _doc(**{"smoke/OR/entity_pa": 99.0})
        )
        assert main([base, cur]) == 1
        out = capsys.readouterr().out
        assert "Δ%" in out  # the full table, not just the violation list
        assert "smoke kernel / edges_match" in out

    def test_stale_baseline_exits_three(self, tmp_path, capsys):
        # The baseline predates a gate the current run emits: distinct
        # exit code plus the refresh command, not a KeyError or a
        # silent pass.
        base = self._write(
            tmp_path, "base.json", _doc(**{"smoke adaptive policy": None})
        )
        cur = self._write(tmp_path, "cur.json", _doc())
        assert main([base, cur]) == 3
        out = capsys.readouterr().out
        assert "missing from the baseline" in out
        assert "smoke adaptive policy / gate_ok" in out
        assert "run_all.py --smoke --json BENCH_smoke.json" in out

    def test_stale_baseline_does_not_mask_regressions(self, tmp_path):
        # A real regression still wins over the stale-baseline notice.
        base = self._write(
            tmp_path, "base.json", _doc(**{"smoke adaptive policy": None})
        )
        cur = self._write(
            tmp_path, "cur.json", _doc(**{"smoke/OR/entity_pa": 99.0})
        )
        assert main([base, cur]) == 1

    def test_gate_absent_on_both_sides_stays_quiet(self, tmp_path):
        # Neither document knows the metric (e.g. both predate it):
        # skipped, but not stale — exit 0.
        base = self._write(
            tmp_path, "base.json", _doc(**{"smoke adaptive policy": None})
        )
        cur = self._write(
            tmp_path, "cur.json", _doc(**{"smoke adaptive policy": None})
        )
        assert main([base, cur]) == 0

    def test_summary_written_pass_and_fail(self, tmp_path):
        base = self._write(tmp_path, "base.json", _doc())
        good = self._write(tmp_path, "good.json", _doc())
        bad = self._write(
            tmp_path, "bad.json", _doc(**{"smoke serve/parity": 0.0})
        )
        summary = tmp_path / "summary.md"
        assert main(["--summary", str(summary), base, good]) == 0
        assert "all gates clean" in summary.read_text()
        assert main(["--summary", str(summary), base, bad]) == 1
        # Appended (the CI step-summary file accumulates).
        text = summary.read_text()
        assert "all gates clean" in text
        assert "**1 regression(s)**" in text


class TestCommittedBaseline:
    """The baseline the CI diff step runs against must stay healthy."""

    def test_figure_baseline_has_a_verdict_per_figure(self):
        from benchmarks.run_all import FIGURES

        doc = json.loads((ROOT / "benchmarks/results/figs_default.json").read_text())
        assert doc["config"]["bench_o"] == 2000
        assert doc["config"]["bench_queries"] == 8
        assert sorted(doc["results"]) == sorted(f.title for f in FIGURES)
        for record in doc["results"].values():
            assert record["verdict"].split()[0] in ("holds", "deviates")

    def test_baseline_exists_and_parses(self):
        doc = json.loads((ROOT / "BENCH_smoke.json").read_text())
        assert "results" in doc and "config" in doc

    def test_baseline_covers_every_gate(self):
        doc = json.loads((ROOT / "BENCH_smoke.json").read_text())
        for path, __ in GATES:
            assert _lookup(doc["results"], path) is not None, path

    def test_baseline_parity_flags_hold(self):
        results = json.loads((ROOT / "BENCH_smoke.json").read_text())["results"]
        assert results["smoke serve"]["parity"] == 1.0
        assert results["smoke serve"]["warm_builds"] == 0.0
        assert results["smoke kernel"]["edges_match"] == 1.0
        assert results["smoke kernel"]["tangent_build_match"] == 1.0
        for flag in (
            "trace_parity",
            "pool_trace_merged",
            "registry_complete",
            "prometheus_parses",
        ):
            assert results["smoke obs"][flag] == 1.0, flag
        policy = results["smoke adaptive policy"]
        assert policy["gate_ok"] == 1.0
        assert policy["parity"] == 1.0
        assert policy["trace_deterministic"] == 1.0
        assert policy["wins"] >= 2.0
        assert policy["losses"] == 0.0
