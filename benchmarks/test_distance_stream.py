"""Warm stream benchmark: queries only read their cached graph.

Not a paper figure — point-to-point obstructed distance is the
primitive under every query type and 7 of 8 ops of the shipped
workload profiles.  The stream is the serving steady state of one
hotspot: 1,000 ops — distances to fresh goals jittered around one
anchor, with an ONN and an OR at a fresh centre every 16 ops — all
served by one cached graph whose coverage is saturated.  It runs in
two shapes, and each takes its own path:

* every source fresh: a distance sweeps both endpoints against the
  frozen graph in one backend call and searches the arrays from the
  anchors the source sees until the way to the goal is final;
* sources from a fixed pool (the profiles' shape: a few entities as
  sources, every goal fresh): after a source's first sighting its full
  field is memoized, and a goal's last leg is probed in lower-bound
  order with the exact oracle — no sweep, unless the probe gives up.

An ONN or OR sweeps its fresh centre and probes its candidates' last
legs the same way, in both shapes.

Either way an op leaves the graph, its freeze and its memos alone.

Acceptance bar: answers **bit-identical** to a cold exact-key
database's, no freeze, no graph growth, at most one backend call per
distance and three per ONN / OR — and with repeated sources none for a
distance beyond each source's first sighting and each probe that gave
up.  CI enforces it through the two `warm distance stream` rows of
``run_all.py --smoke`` (the same function at the same scale, gated in
``check_regression.py``); this file is the way to run it alone.
"""

from __future__ import annotations

import pytest

from benchmarks.common import BENCH_O, STREAM_SOURCES, distance_stream_comparison


class TestDistanceStream:
    @pytest.mark.parametrize(
        "sources", [0, STREAM_SOURCES], ids=["fresh", "repeated"]
    )
    def test_warm_ops_leave_their_graph_alone(self, sources):
        metrics = distance_stream_comparison(BENCH_O, sources=sources)
        assert metrics["parity"], "a warm shared graph changed an answer"
        assert metrics["graphs"] == 1.0
        assert metrics["field_freezes"] == 0.0
        assert metrics["node_growth"] == 0.0
        sweeping = (
            sources + metrics["last_leg_fallbacks"] if sources else metrics["calls"]
        )
        assert metrics["backend_calls"] <= sweeping + 2 * metrics["field_ops"]
