"""Benchmark-regression gate over the committed smoke baseline.

Compares a fresh ``run_all.py --smoke --json`` document against the
``BENCH_smoke.json`` baseline committed at the repo root, and fails
(exit 1) when any *gated* metric regresses by more than the threshold
(default 30 %).

Only deterministic metrics are gated — page-access counters, graph
build counts, result sizes, parity flags.  Wall-clock metrics
(``cpu_ms``, ``qps``, ``p99_ms``...) vary with the runner and are
recorded for the trajectory but never gated here; the wall-clock bars
live in the dedicated pytest benches where core counts gate them.

Usage::

    python benchmarks/run_all.py --smoke --json BENCH_current.json
    python benchmarks/check_regression.py BENCH_smoke.json BENCH_current.json

Refreshing the baseline after an intentional change::

    python benchmarks/run_all.py --smoke --json BENCH_smoke.json
"""

from __future__ import annotations

import json
import sys

#: Relative regression tolerated on ``lower``/``higher`` gates.
DEFAULT_THRESHOLD = 0.30

#: Gated metrics: a path into the ``results`` document plus a
#: direction.  ``lower`` fails when the current value exceeds baseline
#: by more than the threshold (improvements always pass); ``higher``
#: is the mirror image; ``exact`` fails on any change (parity flags).
GATES: tuple[tuple[tuple[str, ...], str], ...] = (
    (("smoke", "OR", "entity_pa"), "lower"),
    (("smoke", "OR", "obstacle_pa"), "lower"),
    (("smoke", "OR", "result_size"), "exact"),
    (("smoke", "OR", "false_hit_ratio"), "lower"),
    (("smoke", "ONN (k=4)", "entity_pa"), "lower"),
    (("smoke", "ONN (k=4)", "obstacle_pa"), "lower"),
    (("smoke", "ODJ", "obstacle_pa"), "lower"),
    (("smoke", "ODJ", "result_size"), "exact"),
    (("smoke", "OCP (k=4)", "entity_pa"), "lower"),
    (("smoke", "OCP (k=4)", "result_size"), "exact"),
    (("smoke repeated d_O", "fresh", "graph_builds"), "lower"),
    (("smoke repeated d_O", "cached", "graph_builds"), "lower"),
    (("smoke moving-query cache", "exact", "graph_builds"), "lower"),
    (("smoke moving-query cache", "snapped", "graph_builds"), "lower"),
    (("smoke snapshot warm-start", "builds_cold"), "lower"),
    (("smoke snapshot warm-start", "builds_warm"), "lower"),
    (("smoke snapshot warm-start", "build_reduction"), "higher"),
    (("smoke kernel", "edges_match"), "exact"),
    # The numpy build's edges are the scalar tangent reference's:
    # is_visible and is_tangent_at, pair by pair.
    (("smoke kernel", "tangent_build_match"), "exact"),
    # Batched vs per-source kernel sweeps: list-for-list parity and the
    # wall-clock verdicts (>= 2x at 56 vertices, not slower at 1,000)
    # evaluated in the smoke run where they were measured.
    (("smoke kernel", "batch_match"), "exact"),
    (("smoke kernel", "batched 56v", "batch_match"), "exact"),
    (("smoke kernel", "batched 56v", "batch_speedup_ok"), "exact"),
    (("smoke kernel", "batched 1000v", "batch_match"), "exact"),
    (("smoke kernel", "batched 1000v", "batch_speedup_ok"), "exact"),
    # Array-evaluated R-tree nodes vs the scalar oracle at the
    # paper-join cardinalities: same values in the same order, and the
    # wall-clock verdicts (join >= 8x, first 64 closest pairs >= 6x).
    (("smoke euclidean", "join 131x13k", "match"), "exact"),
    (("smoke euclidean", "join 131x13k", "speedup_ok"), "exact"),
    (("smoke euclidean", "closest 131x13k", "match"), "exact"),
    (("smoke euclidean", "closest 131x13k", "speedup_ok"), "exact"),
    (("smoke serve", "parity"), "exact"),
    (("smoke serve", "warm_builds"), "lower"),
    (("smoke serve", "persistent", "graph_builds"), "lower"),
    (("smoke serve", "persistent", "pool_batches"), "exact"),
    # Observability: boolean verdicts only — the raw overhead ratios
    # are wall-clock and ride in the JSON ungated; their bars (disabled
    # <= 5%, sampled <= 15%) are enforced at benchmark scale by
    # benchmarks/test_trace_overhead.py.
    (("smoke obs", "trace_parity"), "exact"),
    (("smoke obs", "pool_trace_merged"), "exact"),
    (("smoke obs", "registry_complete"), "exact"),
    (("smoke obs", "prometheus_parses"), "exact"),
    # Distance fields: a warm range+nearest stream answers bit for bit
    # what one cold round answers, at no further build or obstacle
    # page read, plus the deterministic freeze / build counts.
    (("smoke field engine", "parity"), "exact"),
    (("smoke field engine", "counters_match"), "exact"),
    (("smoke field engine", "graph_builds"), "lower"),
    (("smoke field engine", "field_freezes"), "lower"),
    # Warm stream (distances, ONN, OR) on one hot graph: bit-identical
    # to a cold exact-key database, and an op only reads its cached
    # graph — the counts over 1,000 ops at fresh points are exact.
    (("smoke warm distance stream", "parity"), "exact"),
    (("smoke warm distance stream", "field_freezes"), "exact"),
    (("smoke warm distance stream", "node_growth"), "exact"),
    (("smoke warm distance stream", "backend_calls"), "exact"),
    # The same stream with sources from a fixed pool (the profiles'
    # shape): a seen source's distance reads its field and probes the
    # goal's last leg, as every ONN / OR probes its candidates', so its
    # backend calls and probe give-ups (of both) are exact counts too.
    (("smoke warm distance stream (repeated sources)", "parity"), "exact"),
    (("smoke warm distance stream (repeated sources)", "field_freezes"), "exact"),
    (("smoke warm distance stream (repeated sources)", "node_growth"), "exact"),
    (("smoke warm distance stream (repeated sources)", "backend_calls"), "exact"),
    (
        ("smoke warm distance stream (repeated sources)", "last_leg_fallbacks"),
        "exact",
    ),
    # Adaptive cache policy: the acceptance verdict (>= 2 wins, no
    # losses, bit-identical answers), the deterministic trace check,
    # and the build counters of the two headline-win profiles.
    (("smoke adaptive policy", "gate_ok"), "exact"),
    (("smoke adaptive policy", "parity"), "exact"),
    (("smoke adaptive policy", "trace_deterministic"), "exact"),
    (("smoke adaptive policy", "wins"), "higher"),
    (("smoke adaptive policy", "losses"), "lower"),
    (("smoke adaptive policy", "zipf-hotspot", "builds_adaptive"), "lower"),
    (("smoke adaptive policy", "churn-heavy", "builds_adaptive"), "lower"),
    # Write-ahead journal durability: the crash-recovery and compaction
    # verdicts, the bytes-per-mutation advantage over rewriting the
    # snapshot, and write amplification (journal + compaction bytes
    # over appended bytes — 1.0 while no auto-compaction triggers).
    # The incremental-save speedup is gated through its >= 2x verdict;
    # the raw wall-clock ratio rides in the JSON ungated.
    (("smoke journal", "recovery_parity"), "exact"),
    (("smoke journal", "compaction_ok"), "exact"),
    (("smoke journal", "incremental_ok"), "exact"),
    (("smoke journal", "save_speedup_ok"), "exact"),
    (("smoke journal", "bytes_ratio"), "higher"),
    (("smoke journal", "write_amplification"), "lower"),
)


def _lookup(results: dict, path: tuple[str, ...]):
    node = results
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def delta_rows(
    baseline: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[tuple[str, str, float, object, float | None, str]]:
    """One row per gate: ``(label, direction, old, new, delta, verdict)``.

    ``delta`` is the relative change in percent (``None`` when the
    baseline is zero, infinite, or the metric is missing); ``verdict``
    is ``"ok"``, ``"FAIL"``, or ``"skipped"`` (no baseline history).
    ``baseline`` and ``current`` are full ``--json`` documents (or bare
    ``results`` mappings).
    """
    base_results = baseline.get("results", baseline)
    cur_results = current.get("results", current)
    rows = []
    for path, direction in GATES:
        label = " / ".join(path)
        base = _lookup(base_results, path)
        if base is None:
            # No baseline history; the current value still rides in the
            # row so the CLI can flag a stale baseline (exit 3).
            cur = _lookup(cur_results, path)
            rows.append((label, direction, base, cur, None, "skipped"))
            continue
        cur = _lookup(cur_results, path)
        delta = None
        if (
            cur is not None
            and base not in (0, 0.0)
            and abs(base) != float("inf")
        ):
            delta = (cur - base) / base * 100.0
        if cur is None:
            verdict = "FAIL"
        elif direction == "exact":
            verdict = "FAIL" if abs(cur - base) > 1e-9 else "ok"
        elif direction == "lower":
            verdict = (
                "FAIL" if cur > base * (1.0 + threshold) + 1e-9 else "ok"
            )
        else:  # higher
            verdict = (
                "FAIL" if cur < base * (1.0 - threshold) - 1e-9 else "ok"
            )
        rows.append((label, direction, base, cur, delta, verdict))
    return rows


def compare(
    baseline: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Violation messages for every gated metric that regressed.

    A gate whose metric is missing from the baseline is skipped (new
    benchmark, no history yet); one missing from the current run is
    itself a violation — a benchmark silently disappearing must not
    read as a pass.
    """
    violations = []
    for label, direction, base, cur, __, verdict in delta_rows(
        baseline, current, threshold=threshold
    ):
        if verdict != "FAIL":
            continue
        if cur is None:
            violations.append(f"{label}: missing from the current run")
        elif direction == "exact":
            violations.append(f"{label}: expected {base!r}, got {cur!r}")
        elif direction == "lower":
            violations.append(
                f"{label}: {cur!r} exceeds baseline {base!r} "
                f"by more than {threshold:.0%}"
            )
        else:  # higher
            violations.append(
                f"{label}: {cur!r} fell below baseline {base!r} "
                f"by more than {threshold:.0%}"
            )
    return violations


def _cell(value) -> str:
    if value is None:
        return "—"
    return f"{value:g}"


def _delta_cell(delta) -> str:
    if delta is None:
        return "—"
    return f"{delta:+.1f}%"


def format_delta_table(rows, *, failures_only: bool = False) -> str:
    """The per-metric delta table as aligned plain text."""
    shown = [
        r for r in rows if not failures_only or r[5] == "FAIL"
    ]
    header = ("metric", "gate", "old", "new", "Δ%", "verdict")
    cells = [header] + [
        (label, direction, _cell(base), _cell(cur), _delta_cell(delta), verdict)
        for label, direction, base, cur, delta, verdict in shown
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append(
            "  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_markdown_summary(rows, *, threshold: float) -> str:
    """The delta table as GitHub-flavored markdown (CI step summary)."""
    failed = sum(1 for r in rows if r[5] == "FAIL")
    verdict = (
        f"**{failed} regression(s)**" if failed else "all gates clean"
    )
    lines = [
        "## Benchmark regression gate",
        "",
        f"{len(rows)} gated metrics, {threshold:.0%} threshold — {verdict}.",
        "",
        "| metric | gate | old | new | Δ% | verdict |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for label, direction, base, cur, delta, row_verdict in rows:
        mark = {"ok": "✅", "FAIL": "❌", "skipped": "⏭️"}[row_verdict]
        lines.append(
            f"| {label} | {direction} | {_cell(base)} | {_cell(cur)} "
            f"| {_delta_cell(delta)} | {mark} {row_verdict} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    """CLI entry point:
    ``check_regression.py [--threshold F] [--summary PATH] BASELINE CURRENT``.

    ``--summary`` writes the full delta table as markdown (intended for
    ``$GITHUB_STEP_SUMMARY``), pass or fail.  On failure the plain-text
    table is also printed so the log shows old/new/Δ% for every gate,
    not just the violated ones.

    Exit codes: ``0`` clean, ``1`` regression, ``2`` bad usage, ``3``
    stale baseline — the current run emits a gated metric the baseline
    has no history for (a new benchmark landed without refreshing
    ``BENCH_smoke.json``); the fix-it command is printed.
    """
    argv = list(argv)
    threshold = DEFAULT_THRESHOLD
    summary_path = None
    if "--threshold" in argv:
        flag = argv.index("--threshold")
        try:
            threshold = float(argv[flag + 1])
        except (IndexError, ValueError):
            print("--threshold needs a float argument", file=sys.stderr)
            return 2
        del argv[flag : flag + 2]
    if "--summary" in argv:
        flag = argv.index("--summary")
        try:
            summary_path = argv[flag + 1]
        except IndexError:
            print("--summary needs a file path argument", file=sys.stderr)
            return 2
        del argv[flag : flag + 2]
    if len(argv) != 2:
        print(
            "usage: check_regression.py [--threshold F] [--summary PATH] "
            "BASELINE CURRENT",
            file=sys.stderr,
        )
        return 2
    with open(argv[0]) as fh:
        baseline = json.load(fh)
    with open(argv[1]) as fh:
        current = json.load(fh)
    rows = delta_rows(baseline, current, threshold=threshold)
    violations = compare(baseline, current, threshold=threshold)
    if summary_path is not None:
        with open(summary_path, "a") as fh:
            fh.write(format_markdown_summary(rows, threshold=threshold))
    if violations:
        print(f"{len(violations)} benchmark regression(s):")
        for message in violations:
            print(f"  - {message}")
        print()
        print(format_delta_table(rows))
        return 1
    stale = [r for r in rows if r[5] == "skipped" and r[3] is not None]
    if stale:
        print(
            f"{len(stale)} gate(s) missing from the baseline but emitted "
            "by the current run:"
        )
        for label, *__ in stale:
            print(f"  - {label}")
        print()
        print(
            "the committed baseline predates these gates; refresh it with:"
        )
        print("  python benchmarks/run_all.py --smoke --json BENCH_smoke.json")
        return 3
    print(f"benchmark gates clean ({len(GATES)} metrics, {threshold:.0%} threshold)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
