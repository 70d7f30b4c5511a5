#!/usr/bin/env python3
"""The end-to-end benchmark (see README.md beside this file).

One workload, one pass — what ``BENCHMARK.json``'s command runs::

    python3 benchmarks/e2e/run.py --workload paper-cold --seed 3 \\
        --seconds 10 --trace 0

prints every metric by name with its unit and ends with one JSON line.
``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` runs a prefix of the same stream twice on freshly set-up
databases — untraced, then with the layer wrappers — for the per-layer
metrics.

Everything, each workload and pass in a fresh child process::

    python3 benchmarks/e2e/run.py --out benchmarks/e2e/results/run-1.json

``--workdir`` (default ``work/`` beside this file) holds the journals,
snapshots and the program's own temporary files; its filesystem is
recorded with the result.

Two results (files, comma-separated lists of files, or directories)
against the regression bounds::

    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the program under test is missing ({SRC / 'repro'})")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import e2e_compare  # noqa: E402
import e2e_trace  # noqa: E402
from e2e_inputs import (  # noqa: E402
    SCALES,
    WORKLOADS,
    digest_of,
    points_array,
    generate,
)
from e2e_layers import false_hit_ratio, layer_metrics, serve_summary  # noqa: E402
from e2e_workloads import (  # noqa: E402
    SETUP_REPS,
    WORKLOAD_CLASSES,
    ChurnDurable,
    SpeedReference,
    Workload,
    build_database,
    page_misses,
    page_reads,
    percentile,
    reference_check,
    traced_prefix,
)
from repro import RStarTree  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
PINNED = HERE / "pinned.json"
#: Batches the pool probe replays (each three ways).
PROBE_BATCHES = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------ one pass
def _delta(after: dict, before: dict) -> dict:
    return {
        k: v - before.get(k, 0)
        for k, v in after.items()
        if isinstance(v, (int, float))
    }


def _pinned_digest(workload: str, seed: int, seconds: float, scale: str):
    """The recorded seed-0 input digest for these arguments, if any."""
    if seed != 0 or not PINNED.is_file():
        return None
    pins = json.loads(PINNED.read_text()).get(scale, {})
    if pins.get("seconds") != seconds:
        return None
    return pins.get("digests", {}).get(workload)


def _timings(result, setup_s: float) -> dict:
    lat = result.latencies_ms()
    return {
        "setup_s": setup_s,
        "ops_per_s": result.ops_per_s(),
        "op_p50_ms": percentile(lat, 50),
        "op_p95_ms": percentile(lat, 95),
    }


def measure_end_to_end(wl: Workload, seed: int) -> dict:
    """The untraced pass: set-up, the whole timed stream, the checks."""
    inputs = wl.inputs
    ref = SpeedReference()
    # (raw, reported) seconds of each cold build; a pass reported raw
    # (serve-stream) takes the raw ones for both.
    builds = []
    for __ in range(SETUP_REPS):
        wl.discard()
        raw_s, ref_s = ref.bracket(wl.build)
        builds.append((raw_s, ref_s if wl.corrected else raw_s))
    warm = wl.warm()
    setup_raw, setup_s = (
        statistics.median(b[side] for b in builds) + warm[side] for side in (0, 1)
    )
    misses_before = sum(page_misses(wl.db).values())
    result = wl.run(inputs.ops)
    misses = sum(page_misses(wl.db).values()) - misses_before
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + wl.extra_rss_kb()
    lat = result.latencies_ms()
    metrics = {
        **_timings(result, setup_s),
        "pages_per_op": misses / len(lat),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    failures = [f"op {i} raised {exc}" for i, exc in result.raised]
    checked, bad = wl.extra_checks(result)
    failures += bad
    sampled, bad = reference_check(wl, result, seed)
    failures += bad
    prefix = traced_prefix(inputs.ops)
    return {
        "metrics": metrics,
        "attempted": len(lat) + checked + sampled,
        "failures": failures,
        "raw": _timings(result.raw(), setup_raw),
        "notes": {
            "ops": len(lat),
            "slowness": result.machine_slowness,
            "corrected": wl.corrected,
            "setup_builds_s": [b[1] for b in builds],
            "warm_s": warm[1],
            "answer_sha256": result.answer_digest(),
            "prefix_answer_sha256": digest_of(result.answers[: len(prefix)]),
            "checked_ops": checked + sampled,
        },
    }


def pool_probe(inputs, db_kwargs: dict, batches: list[tuple]) -> dict[str, float]:
    """The recorded microbatches replayed three ways on fresh
    databases set up as the workload's: sequential, fork-per-batch,
    persistent pool."""
    batches = batches[:PROBE_BATCHES]
    # args: (pairs,) for batch_distance, (set, points, k-or-e) otherwise.
    per_batch = [
        list(args[0] if method == "batch_distance" else args[1])
        for method, args in batches
    ]
    items = sum(len(b) for b in per_batch)
    boot_pairs = list(
        dict.fromkeys(
            pair
            for (method, __), b in zip(batches, per_batch)
            if method == "batch_distance"
            for pair in b
        )
    )[:2]
    modes = {
        "sequential": {"workers": 0},
        "fork": {"workers": 2, "pool": "fork"},
        "persistent": {"workers": 2, "pool": "persistent"},
    }
    out = {}
    for mode, kwargs in modes.items():
        db = build_database(inputs, **db_kwargs)
        try:
            if mode == "persistent" and len(boot_pairs) == 2:
                # Boot the workers outside the timing, as a server would.
                db.serving_pool(2).batch_distance(boot_pairs)
            t0 = time.perf_counter()
            for method, args in batches:
                getattr(db, method)(*args, **kwargs)
            out[f"probe_{mode}"] = 1000.0 * (time.perf_counter() - t0) / max(1, items)
        finally:
            db.close()
    return out


def _traced_pass(wl: Workload, prefix: list[tuple], rec) -> dict:
    """Set ``wl`` up and run ``prefix`` under the installed wrappers;
    what the pass recorded, as keyword arguments of ``layer_metrics``
    (its ``extras`` started) plus the ``batches`` for the probe."""
    serving = wl.clients > 1
    wl.build()
    wl.warm()
    rec.reset()
    rec.serve_roots.clear()
    rec.batches.clear()
    misses0, reads0 = page_misses(wl.db), page_reads(wl.db)
    runtime0 = wl.db.runtime_stats()
    if serving:
        admitted0 = (wl.server.stats.requests, wl.server.stats.coalesced)
    traced = wl.run(prefix, rec)
    out = {
        "traced": traced,
        "pages": _delta(page_misses(wl.db), misses0),
        "reads": page_reads(wl.db) - reads0,
        "runtime": _delta(wl.db.runtime_stats(), runtime0),
        "totals": rec.layer_totals(),
        "counts": dict(rec.counts),
        "serve": None,
        "extras": {},
        "batches": list(rec.batches),
    }
    if serving:
        stats = wl.server.stats
        out["extras"] = {
            "coalesced_share": (stats.coalesced - admitted0[1])
            / max(1, stats.requests - admitted0[0]),
            "spawn_s": wl.spawn_s,
        }
        serve = out["serve"] = serve_summary(rec.serve_roots)
        e2e_trace.merge_totals(out["totals"], serve["worker_totals"])
        for key, value in serve["worker_counts"].items():
            out["counts"][key] = out["counts"].get(key, 0.0) + value
        out["op_span_s"] = out["totals"]["serve.client"][2]
    else:
        out["op_span_s"] = sum(
            s[e2e_trace.END] - s[e2e_trace.START]
            for s in rec.spans
            if s[e2e_trace.PARENT] is None
        )
    (HERE / "results").mkdir(exist_ok=True)
    rec.dump(
        HERE / "results" / f"trace-{wl.inputs.workload}.json",
        {
            "workload": wl.inputs.workload,
            "input_sha256": wl.inputs.sha256,
            "ops": len(prefix),
        },
    )
    return out


def measure_per_layer(wl_class, inputs, workdir: str) -> dict:
    """Untraced then traced over the same prefix, each on a fresh
    set-up; the per-layer metrics and the checks between the two."""
    prefix = traced_prefix(inputs.ops)
    plain = wl_class(inputs, os.path.join(workdir, "untraced"))
    os.makedirs(plain.workdir)
    try:
        plain.build()
        parts = dict(plain.build_parts)
        plain.warm()
        untraced = plain.run(prefix)
    finally:
        plain.close()

    failures: list[str] = []
    original_read_node = RStarTree.__dict__["read_node"]
    wl = wl_class(inputs, os.path.join(workdir, "traced"))
    os.makedirs(wl.workdir)
    try:
        rec = e2e_trace.install(program_tracer=wl.clients > 1)
        try:
            seen = _traced_pass(wl, prefix, rec)
        finally:
            e2e_trace.uninstall()
        if RStarTree.__dict__["read_node"] is not original_read_node:
            failures.append("the traced pass left a wrapper on RStarTree.read_node")
        if isinstance(wl, ChurnDurable):
            recovered, seen["extras"]["recover_s"] = wl.recover()
            recovered.journal.close()
    finally:
        wl.close()
    traced, extras, batches = seen["traced"], seen["extras"], seen.pop("batches")
    if wl.clients > 1:
        extras.update(pool_probe(inputs, wl_class.db_kwargs, batches))
    extras["gen_s"] = inputs.gen_s
    extras["false_hit_ratio"] = false_hit_ratio(
        traced, {n: points_array(p) for n, p in inputs.entity_sets.items()}
    )
    metrics = layer_metrics(list(PER_LAYER), untraced=untraced, parts=parts, **seen)
    failures += [f"untraced op {i} raised {exc}" for i, exc in untraced.raised]
    failures += [f"traced op {i} raised {exc}" for i, exc in traced.raised]
    if untraced.answer_digest() != traced.answer_digest():
        failures.append("the traced pass answered differently from the untraced one")
    if metrics["obs.attributed_share"] < 0.95:
        failures.append(
            f"obs.attributed_share = {metrics['obs.attributed_share']:.3f} < 0.95: "
            "the op spans do not cover the traced wall"
        )
    if wl.clients > 1 and not (
        metrics["serve.overhead.ms_per_op"] > metrics["visibility.build.self_ms_per_op"]
    ):
        failures.append(
            "serve-stream is sweep-bound: the serve layer's "
            f"{metrics['serve.overhead.ms_per_op']:.2f} ms/op is below the graph "
            f"builds' {metrics['visibility.build.self_ms_per_op']:.2f} ms/op"
        )
    if isinstance(wl, ChurnDurable) and not (
        metrics["runtime.cache.repairs_per_mutation"] > 0
    ):
        failures.append("no mutation of churn-durable reached a cached graph")
    return {
        "metrics": metrics,
        "attempted": 2 * len(prefix),
        "failures": failures,
        "notes": {
            "ops": len(prefix),
            "slowness": traced.machine_slowness,
            "prefix_answer_sha256": traced.answer_digest(),
        },
    }


def run_one(
    workload: str, seed: int, seconds: float, trace: int, scale: str, work_root: str
) -> dict:
    """One workload, one pass, in this process; its files under a
    fresh directory of ``work_root``."""
    if workload == "serve-stream" and nproc() < 2:
        sys.exit("serve-stream skipped: insufficient cores (needs nproc >= 2)")
    inputs = generate(workload, seed, scale, seconds)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    wl_class = WORKLOAD_CLASSES[workload]
    try:
        if trace:
            doc = measure_per_layer(wl_class, inputs, workdir)
            units = PER_LAYER
        else:
            wl = wl_class(inputs, workdir)
            try:
                doc = measure_end_to_end(wl, seed)
            finally:
                wl.close()
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pinned = _pinned_digest(workload, seed, seconds, scale)
    if pinned is not None and pinned != inputs.sha256:
        doc["failures"].append(
            f"seed-0 input digest {inputs.sha256} differs from the pinned {pinned}: "
            "the generators changed the load"
        )
    doc["metrics"] = {
        name: {"value": doc["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    doc.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        scale=scale,
        trace=trace,
        input_sha256=inputs.sha256,
        gen_s=inputs.gen_s,
        failed=len(doc["failures"]),
        correct=not doc["failures"],
    )
    return doc


def report(doc: dict) -> None:
    """Every metric by name with its unit, then the one-line result."""
    print(f"# {doc['workload']} seed={doc['seed']} seconds={doc['seconds']:g} "
          f"scale={doc['scale']} trace={doc['trace']} ops={doc['notes']['ops']}")
    print(f"workloads.input_sha256 {doc['input_sha256']}")
    print(f"workloads.gen_s {doc['gen_s']:.4f} s")
    for name, m in doc["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in doc.get("raw", {}).items():
        print(f"raw.{name} {value:.6g} {END_TO_END[name]}")
    for failure in doc["failures"][:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))


# ------------------------------------------------------------ everything
def hardware(work_root: str) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "work_fs": _filesystem_of(work_root),
        "platform": platform.platform(),
    }


def _filesystem_of(path: str) -> str:
    """Type of the filesystem holding ``path`` (the journal's fsyncs
    land there)."""
    best, fs = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            __, mount, kind = line.split()[:3]
            if os.path.realpath(path).startswith(mount) and len(mount) > len(best):
                best, fs = mount, kind
    except OSError:
        pass
    return fs


def run_all(args) -> int:
    """Each workload and pass in a fresh child process (the heap one
    run leaves behind slows the next), merged into one result file."""
    doc = {
        "benchmark": "e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "hardware": hardware(args.workdir),
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        if workload == "serve-stream" and nproc() < 2:
            doc["workloads"][workload] = {"skipped": "insufficient cores"}
            print(f"# {workload}: skipped: insufficient cores")
            continue
        entry: dict = {}
        for trace in (0, 1):
            with tempfile.NamedTemporaryFile(suffix=".json", dir=args.workdir) as tmp:
                cmd = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--scale", args.scale, "--workdir", args.workdir,
                    "--json-out", tmp.name,
                ]
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
                if done.returncode != 0:
                    ok = False
                    entry["error"] = f"pass trace={trace} exited {done.returncode}"
                    continue
                one = json.loads(Path(tmp.name).read_text())
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {n: m["value"] for n, m in one["metrics"].items()}
            if "raw" in one:
                entry["end_to_end_raw"] = one["raw"]
            entry[f"{key}_notes"] = one["notes"]
            entry["input_sha256"] = one["input_sha256"]
            entry["gen_s"] = one["gen_s"]
            entry.setdefault("failures", []).extend(one["failures"])
            entry["attempted"] = entry.get("attempted", 0) + one["attempted"]
        notes = (entry.get("end_to_end_notes"), entry.get("per_layer_notes"))
        if all(notes) and (
            notes[0]["prefix_answer_sha256"] != notes[1]["prefix_answer_sha256"]
        ):
            entry["failures"].append(
                "the traced pass's answers differ from the untraced run's prefix"
            )
        entry["failed_share"] = len(entry.get("failures", [])) / max(
            1, entry.get("attempted", 0)
        )
        ok = ok and not entry.get("failures")
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"# wrote {args.out}")
    return 0 if ok else 1


def write_pins() -> int:
    """Record the seed-0 input digests (``pinned.json``)."""
    pins = {}
    for scale, seconds in (("full", float(SPEC["run_seconds"])), ("tiny", 1.0)):
        pins[scale] = {
            "seconds": seconds,
            "digests": {
                w: generate(w, 0, scale, seconds).sha256 for w in WORKLOADS
            },
        }
    PINNED.write_text(json.dumps({"seed": 0, **pins}, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--json-out", help="also write the pass's full record here")
    parser.add_argument("--out", help="result file of a run of everything")
    parser.add_argument(
        "--workdir", default=str(HERE / "work"),
        help="where journals, snapshots and temporary files go",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--pin", action="store_true", help="rewrite pinned.json")
    args = parser.parse_args(argv)
    args.workdir = os.path.abspath(args.workdir)
    os.makedirs(args.workdir, exist_ok=True)
    if args.compare:
        return e2e_compare.main(args.compare[0], args.compare[1], SPEC)
    if args.pin:
        return write_pins()
    if args.workload is None:
        return run_all(args)
    # The program's own temporary files (the pool's boot snapshot) go
    # where TMPDIR says, in this process and the workers it forks.
    os.environ["TMPDIR"] = args.workdir
    if tempfile.gettempdir() != args.workdir:
        sys.exit(f"run.py: temporary files would land in {tempfile.gettempdir()}")
    doc = run_one(
        args.workload, args.seed, args.seconds, args.trace, args.scale, args.workdir
    )
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(doc))
    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
