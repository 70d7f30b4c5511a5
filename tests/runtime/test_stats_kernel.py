"""Regression tests for the per-backend sweep counters in
:class:`~repro.runtime.stats.RuntimeStats` (``sweeps_run``,
``sweep_events``, ``sweep_seconds``, ``backend``)."""

import pytest

from repro.core.engine import ObstacleDatabase
from repro.geometry import Point, Rect
from repro.runtime.stats import RuntimeStats
from tests.conftest import rect_obstacle


@pytest.fixture
def small_db():
    db = ObstacleDatabase([Rect(4, 4, 6, 6), Rect(10, 2, 12, 8)])
    db.add_entity_set("P", [Point(0, 0), Point(14, 5), Point(5, 10)])
    return db


class TestSweepCounters:
    def test_snapshot_exposes_kernel_fields(self, small_db):
        stats = small_db.runtime_stats()
        for field in ("sweeps_run", "sweep_events", "sweep_seconds", "backend"):
            assert field in stats
        assert stats["sweeps_run"] == 0
        assert stats["backend"] == "numpy-kernel"

    def test_distance_ticks_sweep_counters(self, small_db):
        small_db.obstructed_distance((0, 0), (14, 5))
        stats = small_db.runtime_stats()
        assert stats["sweeps_run"] > 0
        # Every sweep processes at least the other query point.
        assert stats["sweep_events"] >= stats["sweeps_run"]
        assert stats["sweep_seconds"] > 0.0

    def test_reset_zeroes_counters_but_keeps_backend(self, small_db):
        small_db.nearest("P", (1, 1), k=2)
        assert small_db.runtime_stats()["sweeps_run"] > 0
        small_db.reset_stats()
        stats = small_db.runtime_stats()
        assert stats["sweeps_run"] == 0
        assert stats["sweep_events"] == 0
        assert stats["sweep_seconds"] == 0.0
        assert stats["backend"] == "numpy-kernel"

    @pytest.mark.parametrize("name", ["python-sweep", "naive"])
    def test_explicit_backend_is_reported(self, name):
        db = ObstacleDatabase([Rect(4, 4, 6, 6)], backend=name)
        db.add_entity_set("P", [Point(0, 0), Point(9, 9)])
        db.obstructed_distance((0, 0), (9, 9))
        stats = db.runtime_stats()
        assert stats["backend"] == name
        assert stats["sweeps_run"] > 0

    def test_numpy_kernel_backend_counts_match_naive(self):
        counts = {}
        for name in ("naive", "numpy-kernel"):
            db = ObstacleDatabase(
                [Rect(4, 4, 6, 6), Rect(10, 2, 12, 8)], backend=name
            )
            db.add_entity_set("P", [Point(0, 0), Point(14, 5)])
            db.nearest("P", (1, 1), k=2)
            stats = db.runtime_stats()
            counts[name] = (stats["sweeps_run"], stats["sweep_events"])
        # Identical query plans on identical scenes: the two backends
        # decide graph pairs without sweeping and must run the same
        # sweeps (off-graph points) over the same events.
        assert counts["naive"] == counts["numpy-kernel"]

    @pytest.mark.parametrize("name", ["numpy-kernel", "python-sweep", "naive"])
    def test_sweep_events_count_what_each_source_meets(self, name):
        """A node sweeping its graph meets every other node; an
        off-graph probe (a last-leg anchor sweep) meets them all — from
        the single-scene entry and the scenes entry alike."""
        from repro.visibility import VisibilityGraph, resolve_backend

        stats = RuntimeStats()
        backend = resolve_backend(name, stats=stats)
        graph = VisibilityGraph.build(
            [Point(0, 0)], [rect_obstacle(0, 4, 4, 6, 6)], method=backend
        )
        assert graph.node_count == 5
        stats.reset()
        node, probe = Point(0, 0), Point(9, 1)
        backend.visible_from_many([node, probe], graph)
        assert (stats.sweeps_run, stats.sweep_events) == (2, 4 + 5)
        backend.visible_from_scenes([([probe], graph), ([node, node], graph)])
        assert (stats.sweeps_run, stats.sweep_events) == (5, 9 + 5 + 4 + 4)

    def test_sweep_passes_tick_once_per_kernel_pass(self, monkeypatch):
        """``sweeps_run / sweep_passes`` is the batching factor: one
        pass holds as many sources, of as many graphs, as the pair
        budget does; the looping backends make no passes.  Connecting
        graphs sweeps nothing: their pairs are decided over arrays."""
        from repro.visibility import VisibilityGraph, resolve_backend
        from repro.visibility.kernel import numpy_sweep

        stats = RuntimeStats()
        backend = resolve_backend("numpy-kernel", stats=stats)
        graphs = [
            VisibilityGraph.registered(
                [Point(0, 0)], [rect_obstacle(0, 4, 4, 6, 6)], method=backend
            )
            for __ in range(3)
        ]
        VisibilityGraph.connect(graphs)
        assert (stats.sweeps_run, stats.sweep_passes) == (0, 0)
        backend.visible_from_scenes([(list(g.nodes()), g) for g in graphs])
        assert (stats.sweeps_run, stats.sweep_passes) == (15, 1)
        monkeypatch.setattr(numpy_sweep, "_PAIR_BUDGET", 1)
        backend.visible_from_many(list(graphs[0].nodes()), graphs[0])
        assert (stats.sweeps_run, stats.sweep_passes) == (20, 6)
        looping = RuntimeStats()
        naive = resolve_backend("naive", stats=looping)
        graph = VisibilityGraph.build(
            [Point(0, 0)], [rect_obstacle(0, 4, 4, 6, 6)], method=naive
        )
        assert (looping.sweeps_run, looping.sweep_passes) == (0, 0)
        naive.visible_from_many(list(graph.nodes()), graph)
        assert (looping.sweeps_run, looping.sweep_passes) == (5, 0)

    def test_standalone_stats_default_backend_label(self):
        assert RuntimeStats().backend == ""

    def test_shared_backend_instance_ticks_each_database(self):
        """One backend instance across two databases: each database's
        counters reflect its own sweeps (the instance is wrapped, not
        mutated and bound to the first database's stats)."""
        from repro.visibility.kernel.backend import PythonSweepBackend

        shared = PythonSweepBackend()
        dbs = []
        for _ in range(2):
            db = ObstacleDatabase([Rect(4, 4, 6, 6)], backend=shared)
            db.add_entity_set("P", [Point(0, 0), Point(9, 9)])
            dbs.append(db)
        dbs[1].obstructed_distance((0, 0), (9, 9))
        assert dbs[0].runtime_stats()["sweeps_run"] == 0
        assert dbs[1].runtime_stats()["sweeps_run"] > 0
        assert shared.stats is None


class _RecordingBackend:
    """A caller-owned backend that notes every source it is asked to
    sweep; the exact oracle answers."""

    name = "recording"

    def __init__(self):
        from repro.visibility.kernel.backend import NaiveBackend

        self._oracle = NaiveBackend()
        self.swept = []

    def visible_from(self, p, graph):
        self.swept.append(p)
        return self._oracle.visible_from(p, graph)

    def visible_from_many(self, sources, graph):
        return [self.visible_from(p, graph) for p in sources]


class TestLastLegSweeps:
    def test_anchor_sweeps_use_the_backend_and_are_counted(self):
        """A range query's candidates never enter the graph: their
        visible anchors come from one more sweep each, and those sweeps
        go through the database's backend and into ``sweeps_run``."""
        backend = _RecordingBackend()
        db = ObstacleDatabase(
            [Rect(4, 4, 6, 6), Rect(10, 2, 12, 8)], backend=backend
        )
        candidates = [Point(0, 0), Point(14, 5), Point(5, 10), Point(8, 1)]
        db.add_entity_set("P", candidates)
        found = db.range("P", (7, 5), 12.0)
        assert found  # the query did evaluate candidates
        # Every candidate was swept by the configured backend ...
        assert set(candidates) <= set(backend.swept)
        # ... and every sweep the backend ran is in the counter.
        assert db.runtime_stats()["sweeps_run"] == len(backend.swept)
