"""Warm stream benchmark: queries only read their cached graph.

Not a paper figure — point-to-point obstructed distance is the
primitive under every query type and 7 of 8 ops of the shipped
workload profiles.  The stream is the serving steady state of one
hotspot: 1,000 ops — distances between fresh endpoints jittered around
one anchor, with an ONN and an OR at a fresh centre every 16 ops — all
served by one cached graph whose coverage is saturated.  Each op
sweeps its off-graph points against the frozen graph and searches the
arrays from the anchors it sees, leaving the graph, its freeze and its
memos alone.

Acceptance bar: answers **bit-identical** to a cold exact-key
database's, no freeze, no graph growth, at most one backend call per
distance and three per ONN / OR.  CI enforces it through the `warm
distance stream` row of ``run_all.py --smoke`` (the same function at
the same scale, gated in ``check_regression.py``); this file is the
way to run it alone.
"""

from __future__ import annotations

from benchmarks.common import BENCH_O, distance_stream_comparison


class TestDistanceStream:
    def test_warm_ops_leave_their_graph_alone(self):
        metrics = distance_stream_comparison(BENCH_O)
        assert metrics["parity"], "a warm shared graph changed an answer"
        assert metrics["graphs"] == 1.0
        assert metrics["field_freezes"] == 0.0
        assert metrics["node_growth"] == 0.0
        assert metrics["backend_calls"] <= (
            metrics["calls"] + 2 * metrics["field_ops"]
        )
