"""The span tracer: sampling, nesting, the disabled fast path, and
cross-process graft/merge."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.obs.trace import MAX_CHILDREN, NULL_SPAN, TRACER, Span, Tracer


@pytest.fixture
def tracer() -> Tracer:
    """A private, always-on tracer (never the module global)."""
    return Tracer(sample_rate=1.0)


class TestDisabledFastPath:
    def test_span_off_returns_null_span(self):
        t = Tracer(sample_rate=0.0)
        span = t.span("query.range")
        assert span is NULL_SPAN
        assert not span
        with span as s:
            s.set_attr("ignored", 1)
        assert not t.tracing()

    def test_count_off_is_noop(self):
        t = Tracer(sample_rate=0.0)
        t.count("rtree.page_fetch")  # no open span, no error, no state
        assert t.last_root is None

    def test_env_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        assert Tracer().sample_rate == 0.0

    def test_env_rate_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "7")
        assert Tracer().sample_rate == 1.0
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "-2")
        assert Tracer().sample_rate == 0.0

    @pytest.mark.parametrize("raw", ["banana", "nan", "0.5x"])
    def test_env_malformed_is_a_located_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", raw)
        with pytest.raises(ReproError, match=f"REPRO_TRACE_SAMPLE.*{raw!r}"):
            Tracer()
        before = TRACER.sample_rate
        with pytest.raises(ReproError, match=f"REPRO_TRACE_SAMPLE.*{raw!r}"):
            TRACER.reload_env()
        assert TRACER.sample_rate == before


class TestSampling:
    def test_rate_one_admits_every_root(self, tracer):
        for __ in range(3):
            with tracer.span("q") as span:
                pass
            assert span is not NULL_SPAN

    def test_deterministic_accumulator(self):
        t = Tracer(sample_rate=0.5)
        admitted = []
        for __ in range(8):
            span = t.span("q")
            admitted.append(span is not NULL_SPAN)
            if span is not NULL_SPAN:
                with span:
                    pass
        # acc: 0.5, 1.0*, 0.5, 1.0*, ... — every second root, no RNG.
        assert admitted == [False, True] * 4

    def test_configure_resets_accumulator(self):
        t = Tracer(sample_rate=0.5)
        t.span("q")  # acc -> 0.5
        t.configure(0.5)
        assert t.span("q") is NULL_SPAN  # acc restarted at 0


class TestNesting:
    def test_children_nest_under_open_parent(self, tracer):
        with tracer.span("query.nearest", k=2) as root:
            with tracer.span("field.build") as child:
                with tracer.span("graph.build") as grand:
                    pass
        assert [c.name for c in root.children] == ["field.build"]
        assert [c.name for c in child.children] == ["graph.build"]
        assert grand.children == []
        assert root.attrs == {"k": 2}
        assert root.duration > 0.0
        assert tracer.last_root is root

    def test_counters_tick_innermost_span(self, tracer):
        with tracer.span("q") as root:
            tracer.count("graph_cache.hit")
            with tracer.span("sweep"):
                tracer.count("sweep.events", 5)
                tracer.count("sweep.events", 2)
        assert root.counters == {"graph_cache.hit": 1}
        assert root.children[0].counters == {"sweep.events": 7}
        assert root.total_counters() == {
            "graph_cache.hit": 1,
            "sweep.events": 7,
        }

    def test_child_cap_drops_and_accounts(self, tracer):
        with tracer.span("q") as root:
            for __ in range(MAX_CHILDREN + 3):
                with tracer.span("child"):
                    pass
        assert len(root.children) == MAX_CHILDREN
        assert root.dropped == 3

    def test_walk_is_depth_first(self, tracer):
        with tracer.span("a") as root:
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]

    def test_root_sink_fires_on_finish(self, tracer):
        seen = []
        tracer.add_root_sink(seen.append)
        with tracer.span("q"):
            with tracer.span("inner"):
                pass  # child completion must not fire the sink
        assert [s.name for s in seen] == ["q"]


class TestSerialisation:
    def test_to_dict_from_dict_roundtrip(self, tracer):
        with tracer.span("q", set="P") as root:
            tracer.count("rtree.page_fetch", 3)
            with tracer.span("graph.build", radius=2.0):
                pass
        doc = root.to_dict()
        rebuilt = Span.from_dict(doc)
        assert rebuilt.name == "q"
        assert rebuilt.attrs == {"set": "P"}
        assert rebuilt.counters == {"rtree.page_fetch": 3}
        assert [c.name for c in rebuilt.children] == ["graph.build"]
        assert rebuilt.duration == pytest.approx(root.duration)
        assert rebuilt.to_dict() == doc

    def test_graft_attaches_worker_tree(self, tracer):
        worker = Tracer(sample_rate=0.0)
        worker.reset_thread()
        detached = worker.detached("pool.worker", items=4)
        with detached:
            worker.count("sweep.run", 2)
        payload = detached.to_dict()
        with tracer.span("query.batch") as root:
            tracer.graft(payload)
            tracer.graft(None)  # untraced reply: no-op
        assert [c.name for c in root.children] == ["pool.worker"]
        assert root.children[0].counters == {"sweep.run": 2}

    def test_graft_without_open_span_is_noop(self, tracer):
        tracer.graft({"name": "orphan", "start": 0.0, "duration_s": 0.0})
        assert tracer.last_root is None

    def test_detached_bypasses_sampling_and_sinks(self):
        t = Tracer(sample_rate=0.0)
        seen = []
        t.add_root_sink(seen.append)
        span = t.detached("pool.worker")
        with span:
            t.count("sweep.run")
        assert span.counters == {"sweep.run": 1}
        assert seen == []

    def test_reset_thread_clears_stale_stack(self, tracer):
        span = tracer.span("q")
        span.__enter__()
        assert tracer.tracing()
        tracer.reset_thread()
        assert not tracer.tracing()


class TestThreadIsolation:
    def test_stacks_are_per_thread(self, tracer):
        import threading

        other_tracing = []

        def probe():
            other_tracing.append(tracer.tracing())

        with tracer.span("q"):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert other_tracing == [False]
