"""Self-test of the end-to-end benchmark at ``--scale tiny`` (< 60 s).

Run by path — it is not part of the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import e2e_compare  # noqa: E402
from e2e_compare import verdict  # noqa: E402
from repro import RStarTree  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEQUENTIAL = [w for w in WORKLOADS if w != "serve-stream"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def one_pass(workload: str, trace: int, tmp_path: Path) -> tuple[dict, dict]:
    """A driver-style run: ``(last stdout line, full record)``."""
    out = tmp_path / f"{workload}-{trace}.json"
    done = subprocess.run(
        SPEC["command"]
        + ["--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", "--json-out", str(out),
           "--workdir", str(tmp_path / "work")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


def test_spec_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(m["better"] in ("lower", "higher") for m in SPEC["per_layer"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_answers_hold(workload, tmp_path):
    if workload == "serve-stream" and run.nproc() < 2:
        pytest.skip("insufficient cores")
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        line, record = one_pass(workload, trace, tmp_path)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, record["failures"]
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
        if trace == 0:
            assert all(v["value"] > 0 for v in line["metrics"].values())
        else:
            layers = {n: v["value"] for n, v in line["metrics"].items()}
            assert layers["obs.attributed_share"] >= 0.95
            if workload == "paper-cold":
                assert layers["runtime.cache.hit_rate"] == 0
            if workload == "churn-durable":
                assert layers["runtime.cache.repairs_per_mutation"] > 0
                assert layers["persist.recover_s"] > 0
            if workload == "serve-stream":
                assert (
                    layers["serve.overhead.ms_per_op"]
                    > layers["visibility.build.self_ms_per_op"]
                )
                assert all(
                    layers[f"serve.probe.{mode}_ms_per_item"] > 0
                    for mode in ("sequential", "fork", "persistent")
                )


@pytest.mark.parametrize("workload", SEQUENTIAL)
def test_counts_repeat_exactly(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    __, first = one_pass(workload, 0, tmp_path / "a")
    __, second = one_pass(workload, 0, tmp_path / "b")
    assert first["input_sha256"] == second["input_sha256"]
    assert first["notes"]["answer_sha256"] == second["notes"]["answer_sha256"]
    assert (
        first["metrics"]["pages_per_op"]["value"]
        == second["metrics"]["pages_per_op"]["value"]
    )


def test_seed_zero_inputs_are_pinned():
    pins = json.loads((HERE / "pinned.json").read_text())
    for workload in WORKLOADS:
        assert run.generate(workload, 0, "tiny", 1.0).sha256 == (
            pins["tiny"]["digests"][workload]
        )
    # The seed draws query points, join sets and mutation placement;
    # the two profile streams are one stream under every seed.
    for workload in WORKLOADS:
        same = run.generate(workload, 1, "tiny", 1.0).sha256 == (
            pins["tiny"]["digests"][workload]
        )
        assert same == (workload in ("hotspot-warm", "serve-stream"))


def test_wrappers_are_gone_after_the_traced_pass(tmp_path):
    original = RStarTree.__dict__["read_node"]
    doc = run.run_one("hotspot-warm", 0, 1.0, 1, "tiny", str(tmp_path))
    assert doc["correct"], doc["failures"]
    assert RStarTree.__dict__["read_node"] is original
    assert not run.e2e_trace.installed()


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, steady, better="lower", bound=0.1)[0] == "same"
    assert verdict(steady, [12.0, 12.1, 11.9], better="lower", bound=0.1)[0] == "worse"
    assert verdict(steady, [8.0, 8.1, 7.9], better="lower", bound=0.1)[0] == "better"
    assert verdict(steady, [8.0, 8.1, 7.9], better="higher", bound=0.1)[0] == "worse"
    noisy = [10.0, 14.0, 7.0, 12.0]
    assert verdict(noisy, [10.5, 13.0, 8.0], better="lower", bound=0.1)[0] == "unresolved"
    assert verdict(noisy, [5.0, 6.0, 5.5], better="lower", bound=0.1)[0] == "better"
    assert verdict(noisy, [15.0, 19.0, 16.0], better="lower", bound=0.1)[0] == "worse"


def _result(seed: int, ops_per_s: float | None) -> dict:
    entry = {"error": "pass trace=0 exited 1"} if ops_per_s is None else {
        "end_to_end": {"ops_per_s": ops_per_s}, "failed_share": 0.0,
    }
    return {"seed": seed, "workloads": {"hotspot-warm": entry}}


def test_compare_applies_the_issue_bounds_on_equal_seeds(tmp_path, capsys):
    spec = {
        "workloads": [{"name": "hotspot-warm"}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
        ],
    }

    def side(name: str, docs: list[dict]) -> str:
        (tmp_path / name).mkdir()
        for i, doc in enumerate(docs):
            (tmp_path / name / f"{i}.json").write_text(json.dumps(doc))
        return str(tmp_path / name)

    a = side("a", [_result(s, 100.0 + s) for s in (1, 2, 3)])
    slower = side("slower", [_result(s, 85.0 + s) for s in (1, 2, 3)])
    other_seeds = side("other", [_result(s, 85.0 + s) for s in (4, 5, 6)])
    died = side("died", [_result(1, 100.0), _result(2, 101.0), _result(3, None)])
    # 15 % slower: worse under the 10 % bound of equal seeds, inside
    # BENCHMARK.json's looser bound across different seeds.
    assert e2e_compare.main(a, slower, spec) == 1
    assert e2e_compare.main(a, other_seeds, spec) == 0
    # A pass that died on one side is a failure, not a KeyError.
    assert e2e_compare.main(a, died, spec) == 1
    assert "failed_share" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".cache", "work", "__pycache__", "trace-*"),
    )
    done = subprocess.run(
        SPEC["command"] + ["--workload", "paper-cold", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
