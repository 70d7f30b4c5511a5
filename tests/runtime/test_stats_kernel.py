"""Regression tests for the per-backend anchor counters in
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
        stats = small_db.runtime_stats()
        # The centre is its graph's node and the candidates are probed.
        assert stats["sweeps_run"] == 0 and stats["last_leg_probes"] > 0
        small_db.obstructed_distance((0, 9), (14, 5))  # sweeps its source
        assert small_db.runtime_stats()["sweeps_run"] > 0
        small_db.reset_stats()
        stats = small_db.runtime_stats()
        assert stats["sweeps_run"] == 0
        assert stats["last_leg_probes"] == 0
        assert stats["sweep_events"] == 0
        assert stats["sweep_seconds"] == 0.0
        assert stats["backend"] == "numpy-kernel"

    @pytest.mark.parametrize("name", ["naive"])
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

    @pytest.mark.parametrize("name", ["numpy-kernel", "naive"])
    def test_sweep_events_count_what_each_source_meets(self, name):
        """A node anchored on its graph meets every other node; an
        off-graph probe (a last-leg anchor) meets them all — from the
        single-scene entry and the scenes entry alike."""
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

    @pytest.mark.parametrize("name", ["numpy-kernel", "naive"])
    def test_connecting_graphs_anchors_nothing(self, name):
        """Connecting graphs decides node pairs, no source is anchored:
        only a ``visible_ids`` call ticks the anchor counters."""
        from repro.visibility import VisibilityGraph, resolve_backend

        stats = RuntimeStats()
        backend = resolve_backend(name, stats=stats)
        graphs = [
            VisibilityGraph.registered(
                [Point(0, 0)], [rect_obstacle(0, 4, 4, 6, 6)], method=backend
            )
            for __ in range(3)
        ]
        VisibilityGraph.connect(graphs)
        assert (stats.sweeps_run, stats.sweep_events) == (0, 0)
        assert all(g.edge_count > 0 for g in graphs)
        backend.visible_from_scenes([(list(g.nodes()), g) for g in graphs])
        assert (stats.sweeps_run, stats.sweep_events) == (15, 60)

    def test_standalone_stats_default_backend_label(self):
        assert RuntimeStats().backend == ""

    def test_a_backend_instance_is_refused(self):
        """``backend=`` takes a name: an instance, even a resolved one,
        is an unknown backend."""
        from repro.errors import QueryError
        from repro.visibility import resolve_backend

        with pytest.raises(QueryError, match="unknown visibility backend"):
            ObstacleDatabase([Rect(4, 4, 6, 6)], backend=resolve_backend("naive"))


class _Recording:
    """Notes every source a resolved backend is asked to anchor."""

    def __init__(self, backend):
        self.swept = []
        inner = backend.visible_ids

        def visible_ids(scenes):
            self.swept += [p for sources, __ in scenes for p in sources]
            return inner(scenes)

        backend.visible_ids = visible_ids


class TestLastLegSweeps:
    def test_anchor_sweeps_use_the_backend_and_are_counted(self, monkeypatch):
        """A range query's candidates never enter the graph: each one's
        last leg is probed with the exact oracle, and only a give-up
        (forced here by a zero cap) is anchored — one point a call, by
        the database's backend and into ``sweeps_run``."""
        from repro.visibility import csr

        candidates = [Point(0, 0), Point(14, 5), Point(5, 10), Point(8, 1)]
        for cap in (csr.LAST_LEG_PROBES, 0):
            monkeypatch.setattr(csr, "LAST_LEG_PROBES", cap)
            db = ObstacleDatabase(
                [Rect(4, 4, 6, 6), Rect(10, 2, 12, 8)], backend="naive"
            )
            db.add_entity_set("P", candidates)
            backend = _Recording(db.context.backend)
            found = db.range("P", (7, 5), 12.0)
            assert len(found) == len(candidates)  # every candidate evaluated
            stats = db.runtime_stats()
            assert stats["last_leg_probes"] == len(candidates)
            swept = [p for p in backend.swept if p in candidates]
            assert len(swept) == stats["last_leg_fallbacks"]
            assert sorted(swept) == (sorted(candidates) if cap == 0 else [])
            # Every sweep the backend ran is in the counter.
            assert stats["sweeps_run"] == len(backend.swept)
