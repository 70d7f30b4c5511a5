"""The unified metrics registry: exhaustiveness over every layer's
counters, and the JSON / Prometheus exports."""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs.metrics import MetricsRegistry
from repro.runtime.stats import RuntimeStats
from repro.serve.server import QueryServer
from repro.stats.counters import PageAccessCounter

#: Every line of a Prometheus text exposition dump we emit matches one
#: of these shapes.
_PROM_TYPE = re.compile(r"^# TYPE [a-zA-Z_][a-zA-Z0-9_]* gauge$")
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" -?[0-9.+e-]+$"
)


@pytest.fixture
def db() -> ObstacleDatabase:
    database = ObstacleDatabase(
        [Rect(10.0, 10.0, 20.0, 25.0), Rect(40.0, 5.0, 55.0, 18.0)]
    )
    database.add_entity_set(
        "pois", [Point(5.0, 5.0), Point(25.0, 30.0), Point(60.0, 20.0)]
    )
    yield database
    database.close()


def _serve_some(server: QueryServer) -> None:
    async def drive() -> None:
        await asyncio.gather(
            server.nearest("pois", Point(0.0, 0.0), 2),
            server.nearest("pois", Point(1.0, 1.0), 2),
            server.distance(Point(0.0, 0.0), Point(30.0, 30.0)),
        )
        await server.close()

    asyncio.run(drive())


class TestExhaustiveness:
    def test_snapshot_covers_every_runtime_counter(self, db):
        """Acceptance: one snapshot() carries every counter the runtime
        layer ticks — the full RuntimeStats slot set, with live values."""
        db.nearest("pois", Point(0.0, 0.0), 2)  # probes its candidates
        db.obstructed_distance(Point(1.0, 1.0), Point(30.0, 20.0))  # sweeps
        doc = db.metrics().snapshot()
        for name in RuntimeStats.__slots__:
            assert name in doc["runtime"], f"runtime counter {name} missing"
        assert doc["runtime"]["graph_builds"] >= 1
        assert doc["runtime"]["last_leg_probes"] >= 1
        assert doc["runtime"]["sweeps_run"] >= 1

    def test_snapshot_covers_every_tree_page_counter(self, db):
        db.nearest("pois", Point(0.0, 0.0), 1)
        doc = db.metrics().snapshot()
        counter_keys = set(PageAccessCounter().snapshot())
        assert set(doc["pages"]) == {"obstacles:obstacles", "entities:pois"}
        for tree, counters in doc["pages"].items():
            assert counter_keys <= set(counters), (
                f"page counters incomplete for {tree}"
            )
        assert doc["pages"]["entities:pois"]["reads"] >= 1

    def test_server_snapshot_covers_serve_counters(self, db):
        server = QueryServer(db, workers=0)
        registry = server.metrics()
        _serve_some(server)
        doc = registry.snapshot()
        for name in (
            "requests",
            "completed",
            "failed",
            "batches",
            "coalesced",
            "in_flight",
            "in_flight_peak",
        ):
            assert name in doc["serve"], f"serve counter {name} missing"
        assert doc["serve"]["requests"] == 3
        assert doc["serve"]["completed"] == 3
        # Queue wait is always on: one sample per request, no trace.
        assert doc["serve"]["queue_wait"]["count"] == 3
        assert doc["serve"]["queue_wait"]["p95_s"] > 0
        assert "repro_serve_queue_wait_p50_s " in registry.to_prometheus()
        # Per-kind latency histograms, labelled by request kind.
        assert set(doc["serve_latency"]) == {"nearest", "distance"}
        for kind, hist in doc["serve_latency"].items():
            for key in ("count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"):
                assert key in hist, f"latency metric {key} missing for {kind}"

    def test_pool_group_appears_when_pool_is_up(self, db):
        registry = db.metrics()
        assert registry.snapshot().get("pool", {}) == {}
        db.batch_nearest(
            "pois",
            [Point(0.0, 0.0), Point(1.0, 1.0)],
            1,
            workers=2,
            pool="persistent",
        )
        doc = registry.snapshot()
        assert doc["pool"] == {"workers": 2, "alive": 1}


class TestExports:
    def test_json_export_parses_and_sorts(self, db):
        db.nearest("pois", Point(0.0, 0.0), 1)
        doc = json.loads(db.metrics().to_json())
        assert doc["runtime"]["graph_builds"] >= 1
        assert doc["pages"]["entities:pois"]["reads"] >= 1

    def test_prometheus_export_parses(self, db):
        """Acceptance: every emitted line is valid text exposition."""
        db.nearest("pois", Point(0.0, 0.0), 1)
        dump = db.metrics().to_prometheus()
        assert dump.endswith("\n")
        names_typed = set()
        for line in dump.rstrip("\n").split("\n"):
            if line.startswith("#"):
                assert _PROM_TYPE.match(line), f"bad TYPE line: {line!r}"
                names_typed.add(line.split()[2])
            else:
                assert _PROM_SAMPLE.match(line), f"bad sample line: {line!r}"
                name = line.split("{")[0].split(" ")[0]
                assert name in names_typed, f"sample before TYPE: {line!r}"
        assert 'repro_pages_reads{tree="entities:pois"}' in dump
        assert "repro_runtime_graph_builds 1" in dump
        # String-valued metrics become *_info gauges with a label.
        assert re.search(
            r'repro_runtime_backend_info\{backend="[^"]+"\} 1', dump
        )

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.register(
            "pages", lambda: {'we"ird\nname': {"reads": 1}}, label="tree"
        )
        dump = registry.to_prometheus()
        assert 'tree="we\\"ird\\nname"' in dump

    def test_prometheus_sanitises_metric_names(self):
        registry = MetricsRegistry()
        registry.register("1bad-group", lambda: {"odd.metric": 2})
        dump = registry.to_prometheus()
        assert "repro__1bad_group_odd_metric 2" in dump

    def test_none_provider_is_skipped(self):
        registry = MetricsRegistry()
        registry.register("maybe", lambda: None)
        registry.register("maybe", lambda: {"present": 1})
        assert registry.snapshot() == {"maybe": {"present": 1}}
        assert registry.groups == ["maybe"]
