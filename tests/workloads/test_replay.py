"""Trace replay: answer alignment, parity across configs, bookkeeping."""

import math

import pytest

from repro.errors import DatasetError
from repro.geometry.rect import Rect
from repro.workloads.profiles import generate_trace
from repro.workloads.replay import (
    database_for_trace,
    replay_events,
    replay_trace,
    scene_for,
)
from repro.workloads.trace import WorkloadEvent

SCENE = {"n_obstacles": 40, "n_entities": 30}

METRIC_KEYS = {
    "events", "wall_ms_total", "wall_ms", "graph_builds", "cache_hits",
    "cache_misses", "hit_rate", "promotions", "policy_adjustments",
}


class TestReplay:
    def test_scene_is_cached_and_deterministic(self):
        a = scene_for(40, 7, 30)
        b = scene_for(40, 7, 30)
        assert a is b  # lru-cached: one geometry build per recipe
        obstacles, entities = a
        assert len(obstacles) == 40
        assert len(entities) == 30

    def test_answers_are_index_aligned(self):
        trace = generate_trace("churn-heavy", seed=2, n_events=48, **SCENE)
        answers, metrics = replay_trace(trace)
        assert len(answers) == len(trace.events)
        assert metrics["events"] == len(trace.events)
        for ev, answer in zip(trace.events, answers):
            if ev.kind in ("insert", "delete"):
                assert answer is None
            elif ev.kind == "distance":
                assert isinstance(answer, float)
                assert math.isfinite(answer)
            else:  # nearest / range
                assert isinstance(answer, list)

    def test_metrics_keys_complete(self):
        trace = generate_trace("uniform", seed=2, n_events=24, **SCENE)
        __, metrics = replay_trace(trace)
        assert set(metrics) == METRIC_KEYS
        assert metrics["graph_builds"] > 0
        assert 0.0 <= metrics["hit_rate"] <= 1.0

    def test_parity_across_cache_configs(self):
        # The headline invariant: snap quantum, capacity, and policy
        # are performance knobs — answers must compare equal bitwise.
        trace = generate_trace("zipf-hotspot", seed=5, n_events=64, **SCENE)
        exact, __ = replay_trace(trace, graph_cache_snap=0.0)
        snapped, __m = replay_trace(trace, graph_cache_snap=40.0)
        adaptive, __a = replay_trace(trace, cache_policy="adaptive")
        assert exact == snapped == adaptive

    def test_duplicate_insert_tag_rejected(self):
        trace = generate_trace("uniform", seed=2, n_events=8, **SCENE)
        db = database_for_trace(trace)
        rect_a = Rect(1.0, 1.0, 3.0, 3.0)
        rect_b = Rect(9990.0, 9990.0, 9992.0, 9992.0)
        events = [
            WorkloadEvent("insert", tag=1, rect=rect_a),
            WorkloadEvent("insert", tag=1, rect=rect_b),
        ]
        try:
            with pytest.raises(DatasetError, match="duplicate insert tag"):
                replay_events(db, events)
        finally:
            db.close()

    def test_delete_of_unknown_tag_rejected(self):
        trace = generate_trace("uniform", seed=2, n_events=8, **SCENE)
        db = database_for_trace(trace)
        try:
            with pytest.raises(DatasetError, match="unknown tag"):
                replay_events(db, [WorkloadEvent("delete", tag=99)])
        finally:
            db.close()

    def test_unknown_event_kind_rejected(self):
        trace = generate_trace("uniform", seed=2, n_events=8, **SCENE)
        db = database_for_trace(trace)
        try:
            with pytest.raises(DatasetError, match="unknown event kind"):
                replay_events(db, [WorkloadEvent("teleport")])
        finally:
            db.close()
