"""Warm distance stream benchmark: compiled engine vs the reference path.

Not a paper figure — point-to-point obstructed distance is the
primitive under every query type and 7 of 8 ops of the shipped
workload profiles.  The stream is the serving steady state of one
hotspot: 1,000 distances between fresh endpoints jittered around one
anchor, all served by one cached graph whose coverage is saturated.
The reference (``python``) engine inserts both endpoints into the
graph (two sweeps), runs the dict-adjacency Dijkstra and deletes one
again; the compiled (``csr``) engine sweeps both endpoints against the
frozen graph in one backend call and runs one seeded search over the
arrays, leaving the graph, its freeze and its memos alone.

Acceptance bar (CI-enforced): **>= 2x** CPU speedup with
**bit-identical** answers, no freeze, no graph growth and at most one
backend call per distance.
"""

from __future__ import annotations

from benchmarks.common import (
    BENCH_O,
    DISTANCE_STREAM_SPEEDUP,
    distance_stream_comparison,
)


class TestDistanceStream:
    def test_compiled_engine_2x_on_warm_distances(self):
        metrics = distance_stream_comparison(BENCH_O)
        assert metrics["parity"], "compiled engine changed distances"
        assert metrics["graphs"] == 1.0
        assert metrics["field_freezes"] == 0.0
        assert metrics["node_growth"] == 0.0
        assert metrics["backend_calls"] <= metrics["calls"]
        assert metrics["speedup"] >= DISTANCE_STREAM_SPEEDUP, (
            f"compiled engine too slow: "
            f"{metrics['python_cpu_s'] * 1e3:.0f} ms (python) vs "
            f"{metrics['csr_cpu_s'] * 1e3:.0f} ms (csr) over "
            f"{metrics['calls']:.0f} calls = {metrics['speedup']:.2f}x; "
            f"bar is {DISTANCE_STREAM_SPEEDUP}x"
        )
