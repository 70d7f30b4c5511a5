"""``run.py --compare A B``: two sets of results against the bounds.

Each side is one result file of a run of everything, several
(comma-separated), or a directory of them.  Per workload and end-to-end
metric the verdict is

* ``worse`` — B's median is worse than A's by more than the bound, or
  every run of B is worse than every run of A;
* ``unresolved`` — a side's own spread (interquartile range over its
  median) is wider than the bound, and B's runs are neither all better
  nor all worse than A's;
* ``better`` — B's median is better by more than both sides' spread;
* ``same`` — otherwise.

When both sides ran the same seeds, each value is first divided by its
seed's level (the geometric mean of that seed's values on the two
sides), so what a seed's stream happens to contain drops out and only
the difference between the sides and the machine's noise remain; the
bounds are then :data:`SAME_SEED_BOUNDS`, the ones the benchmark's
issue fixed.  ``pages_per_op`` on the sequential workloads is a count
that repeats exactly for equal seeds, and is compared seed by seed with
a bound of 0: any increase is ``worse``.  Across different seeds the
bounds are ``BENCHMARK.json``'s, which have to hold the spread between
seeds.  ``failed_share`` — failed ops and answer checks over those
attempted — has a bound of 0 either way.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SEQUENTIAL = ("paper-cold", "paper-join", "hotspot-warm", "churn-durable")

#: Regression bounds when both sides ran the same seeds.
SAME_SEED_BOUNDS = {
    "setup_s": 0.15,
    "ops_per_s": 0.10,
    "op_p50_ms": 0.10,
    "op_p95_ms": 0.10,
    "pages_per_op": 0.10,  # serve-stream; 0 on the sequential workloads
    "peak_rss_mb": 0.10,
}


def load_side(spec: str) -> list[dict]:
    path = Path(spec)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
    else:
        files = [Path(p) for p in spec.split(",")]
    docs = [json.loads(f.read_text()) for f in files]
    return [d for d in docs if "workloads" in d]


def _values(side: list[dict], workload: str, metric: str) -> list[float]:
    return [
        doc["workloads"][workload]["end_to_end"][metric]
        for doc in side
        if metric in doc["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def _by_seed(side_a: list[dict], side_b: list[dict], workload: str, metric: str):
    """``seed -> (A's values, B's values)``."""
    by_seed: dict[int, tuple[list, list]] = {}
    for side, docs in ((0, side_a), (1, side_b)):
        for doc in docs:
            values = doc["workloads"].get(workload, {}).get("end_to_end", {})
            if metric in values:
                by_seed.setdefault(doc["seed"], ([], []))[side].append(values[metric])
    # A seed one side failed to measure has no level.
    return {seed: ab for seed, ab in by_seed.items() if ab[0] and ab[1]}


def _failed_shares(side: list[dict], workload: str) -> list[float]:
    """Per run: failures over attempts; a pass that died counts whole."""
    entries = [doc["workloads"].get(workload, {}) for doc in side]
    return [1.0 if "error" in e else e.get("failed_share", 1.0) for e in entries]


def _levelled(by_seed) -> tuple[list[float], list[float]]:
    """Both sides' values over their seed's level."""
    a, b = [], []
    for values_a, values_b in by_seed.values():
        level = (
            statistics.geometric_mean(values_a)
            * statistics.geometric_mean(values_b)
        ) ** 0.5
        a += [v / level for v in values_a]
        b += [v / level for v in values_b]
    return a, b


def _spread(values: list[float]) -> float:
    """Interquartile range over the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(
    a: list[float], b: list[float], *, better: str, bound: float
) -> tuple[str, float, float]:
    """``(verdict, B's change as a share of A's median — positive is
    worse, the wider side's spread)``."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / abs(med_a)
    spread = max(_spread(a), _spread(b))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", change, spread
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse", change, spread
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if -change > spread:
        return "better", change, spread
    return "same", change, spread


def exact_verdict(by_seed) -> str:
    """A count that repeats exactly, compared seed by seed."""
    pairs = [(max(a), max(b)) for a, b in by_seed.values()]
    if any(b > a for a, b in pairs):
        return "worse"
    return "better" if any(b < a for a, b in pairs) else "same"


def main(spec_a: str, spec_b: str, benchmark: dict) -> int:
    side_a, side_b = load_side(spec_a), load_side(spec_b)
    if not side_a or not side_b:
        print("compare: each side needs at least one result file")
        return 2
    same_seeds = sorted(d["seed"] for d in side_a) == sorted(
        d["seed"] for d in side_b
    )
    print(f"# A: {len(side_a)} run(s)   B: {len(side_b)} run(s)   "
          f"same seeds: {same_seeds}")
    print(f"{'workload':<14} {'metric':<13} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    worse = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        skipped = [
            doc["workloads"].get(workload, {}).get("skipped")
            for doc in side_a + side_b
        ]
        if any(skipped):
            print(f"{workload:<14} skipped: {next(s for s in skipped if s)}")
            continue
        shares = [_failed_shares(side, workload) for side in (side_a, side_b)]
        what = "worse" if max(shares[1]) > 0 else "same"
        worse += what == "worse"
        print(f"{workload:<14} {'failed_share':<13} {max(shares[0]):>12.5g} "
              f"{max(shares[1]):>12.5g} {'':>8} {'':>7} {0:>6.0%}  {what}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a, b = _values(side_a, workload, name), _values(side_b, workload, name)
            by_seed = _by_seed(side_a, side_b, workload, name)
            if not a or not b or (same_seeds and not by_seed):
                continue
            bound = SAME_SEED_BOUNDS[name] if same_seeds else metric["bound"]
            what, change, spread = verdict(
                *(_levelled(by_seed) if same_seeds else (a, b)),
                better=metric["better"],
                bound=bound,
            )
            if name == "pages_per_op" and workload in SEQUENTIAL and same_seeds:
                bound = 0.0
                what = exact_verdict(by_seed)
            worse += what == "worse"
            print(f"{workload:<14} {name:<13} {statistics.median(a):>12.5g} "
                  f"{statistics.median(b):>12.5g} {change:>+8.1%} {spread:>7.1%} "
                  f"{bound:>6.0%}  {what}")
    return 1 if worse else 0
