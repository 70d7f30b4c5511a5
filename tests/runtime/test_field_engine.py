"""Cross-engine parity: the compiled CSR distance-field engine must be
bit-identical to the reference python (dict-adjacency) engine.

``REPRO_FIELD_ENGINE`` selects the engine per field construction, so
the same query script is replayed on a fresh database under each
engine and the answers are compared with ``==`` — not ``approx`` —
across every visibility backend, under insert/delete repair churn, and
through persistent-pool batch replies.
"""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.errors import QueryError
from repro.runtime.field import (
    FIELD_ENGINE_ENV,
    make_distance_field,
    resolve_field_engine,
)
from repro.visibility.kernel.backend import numpy_available
from tests.conftest import random_disjoint_rects, random_free_points

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="CSR engine requires numpy"
)

BACKENDS = ["python-sweep", "naive"] + (
    ["numpy-kernel"] if numpy_available() else []
)
ENGINES = ["python", "csr"]


def _db(seed, *, backend="python-sweep", shards=None, n_obstacles=12,
        n_points=26):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_points, obstacles)
    db = ObstacleDatabase(
        [o.polygon for o in obstacles],
        max_entries=8,
        min_entries=3,
        shards=shards,
        backend=backend,
    )
    db.add_entity_set("pois", points[8:])
    return db, points[:8]


class TestEngineResolution:
    def test_auto_prefers_csr_with_numpy(self, monkeypatch):
        monkeypatch.delenv(FIELD_ENGINE_ENV, raising=False)
        assert resolve_field_engine() == "csr"
        assert resolve_field_engine("auto") == "csr"

    def test_env_selects_python(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "python")
        assert resolve_field_engine() == "python"

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "python")
        assert resolve_field_engine("csr") == "csr"

    def test_unknown_engine_rejected(self):
        with pytest.raises(QueryError):
            resolve_field_engine("simd")

    def test_csr_without_numpy_rejected(self, monkeypatch):
        import repro.runtime.field as field_mod

        monkeypatch.setattr(field_mod, "np", None)
        with pytest.raises(QueryError):
            resolve_field_engine("csr")
        assert resolve_field_engine("auto") == "python"

    def test_factory_dispatches(self):
        from repro.core.distance import SourceDistanceField
        from repro.core.source import build_obstacle_index
        from repro.runtime.field import CSRSourceDistanceField
        from repro.visibility import VisibilityGraph

        index = build_obstacle_index([], max_entries=8, min_entries=3)
        q = Point(0.0, 0.0)
        graph = VisibilityGraph.build([q], [])
        compiled = make_distance_field(graph, q, index, engine="csr")
        reference = make_distance_field(graph, q, index, engine="python")
        assert isinstance(compiled, CSRSourceDistanceField)
        assert type(reference) is SourceDistanceField


def _query_script(db, queries):
    """A fixed mixed workload; returns every answer, exactly."""
    out = []
    for q in queries[:4]:
        out.append(("range", db.range("pois", q, 30.0)))
        out.append(("nearest", db.nearest("pois", q, 3)))
    out.append(("dist", db.obstructed_distance(queries[0], queries[1])))
    out.append(("semijoin", sorted(db.semijoin("pois", "pois").items())))
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
class TestCrossEngineParity:
    def test_warm_stream_bit_identical(self, backend, seed, monkeypatch):
        answers = {}
        for engine in ENGINES:
            monkeypatch.setenv(FIELD_ENGINE_ENV, engine)
            db, queries = _db(400 + seed, backend=backend)
            # Replay the stream twice: the second pass exercises the
            # warm caches (pinned freezes, per-source field arrays).
            first = _query_script(db, queries)
            second = _query_script(db, queries)
            assert first == second
            answers[engine] = (first, db.runtime_stats())
        (py, py_stats), (csr, csr_stats) = answers["python"], answers["csr"]
        assert py == csr  # bitwise: no approx
        # The engines drive identical graph builds and page traffic;
        # only the new freeze/batch counters may differ.
        for key in ("graph_builds", "graph_rebuilds", "field_builds"):
            assert py_stats[key] == csr_stats[key], key
        assert csr_stats["field_freezes"] > 0
        assert py_stats["field_freezes"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestParityUnderRepair:
    def test_mutation_churn_bit_identical(self, backend, monkeypatch):
        answers = {}
        for engine in ENGINES:
            monkeypatch.setenv(FIELD_ENGINE_ENV, engine)
            rng = random.Random(4242)
            db, queries = _db(515, backend=backend)
            script = [_query_script(db, queries)]
            rec = db.insert_obstacle(Rect(18.0, 18.0, 24.0, 23.0))
            script.append(_query_script(db, queries))
            assert db.delete_obstacle(rec)
            db.insert_obstacle(
                Rect(*(lambda x, y: (x, y, x + 4, y + 3))(
                    rng.uniform(30, 60), rng.uniform(30, 60)
                ))
            )
            script.append(_query_script(db, queries))
            answers[engine] = script
        assert answers["python"] == answers["csr"]


class TestParityThroughPool:
    def test_pool_replies_bit_identical(self, monkeypatch):
        results = {}
        for engine in ENGINES:
            monkeypatch.setenv(FIELD_ENGINE_ENV, engine)
            db, queries = _db(616)
            try:
                nn = db.batch_nearest(
                    "pois", queries, 2, workers=2, pool="persistent"
                )
                rr = db.batch_range(
                    "pois", queries, 25.0, workers=2, pool="persistent"
                )
                seq_nn = db.batch_nearest("pois", queries, 2, workers=0)
                assert nn == seq_nn
                results[engine] = (nn, rr)
            finally:
                db.close()
        assert results["python"] == results["csr"]


class TestEngineCounters:
    def test_batch_eval_counter_moves(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "csr")
        db, queries = _db(717)
        db.range("pois", queries[0], 30.0)
        stats = db.runtime_stats()
        assert stats["field_batch_evals"] >= 1
        assert stats["field_freezes"] >= 1

    def test_python_engine_never_freezes(self, monkeypatch):
        monkeypatch.setenv(FIELD_ENGINE_ENV, "python")
        db, queries = _db(718)
        db.range("pois", queries[0], 30.0)
        db.nearest("pois", queries[1], 2)
        stats = db.runtime_stats()
        assert stats["field_freezes"] == 0
        # Batched evaluation is engine-independent (range refinement
        # hands the field a candidate batch either way).
        assert stats["field_batch_evals"] >= 1


class _AnchorCallCounter:
    """Wraps a backend; counts the calls that sweep off-graph sources
    (anchor sweeps) apart from the graph's own maintenance sweeps."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.anchor_calls = 0

    def visible_from(self, p, graph):
        return self.visible_from_many((p,), graph)[0]

    def visible_from_many(self, sources, graph):
        if sources and not graph.has_node(sources[0]):
            self.anchor_calls += 1
        return self._inner.visible_from_many(sources, graph)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchEvalAcrossGrowth:
    """Fig. 8's enlargement can grow the graph in the middle of a
    batch: the anchor memo is dropped and refilled for the candidates
    still to come, and every answer stays what ``distance_to`` gives."""

    @staticmethod
    def _setup(backend):
        from repro.core.source import build_obstacle_index
        from repro.visibility import VisibilityGraph, resolve_backend
        from tests.conftest import rect_obstacle

        # Walls at growing distances from q: each ring of candidates
        # pulls the next wall into the graph.
        walls = [
            rect_obstacle(i, 10.0 * (i + 1), -6.0, 10.0 * (i + 1) + 2.0, 6.0)
            for i in range(4)
        ]
        index = build_obstacle_index(walls, max_entries=8, min_entries=3)
        q = Point(0.0, 0.0)
        counter = _AnchorCallCounter(resolve_backend(backend))
        graph = VisibilityGraph.build([q], [], method=counter)
        field = make_distance_field(graph, q, index, engine="csr")
        candidates = [
            Point(5.0, 1.0), Point(6.0, -2.0),      # before the first wall
            Point(15.0, 3.0), Point(16.0, -1.0),    # behind wall 0
            Point(25.0, 0.5), Point(5.0, 1.0),      # behind wall 1; a repeat
            Point(38.0, 2.0), Point(47.0, -4.0),    # behind walls 2 and 3
        ]
        return field, graph, counter, candidates

    def test_batch_equals_loop_with_bounded_anchor_calls(self, backend):
        field, graph, counter, candidates = self._setup(backend)
        growths = []
        enlarge = field._enlarge
        field._enlarge = lambda radius: growths.append(enlarge(radius)) or growths[-1]
        batched = field.batch_eval(candidates)
        assert sum(growths) >= 3  # the graph did grow mid-batch
        assert graph.obstacle_ids() == {0, 1, 2, 3}
        assert counter.anchor_calls <= 1 + sum(growths)

        loop_field, __, loop_counter, __ = self._setup(backend)
        looped = [loop_field.distance_to(p) for p in candidates]
        assert batched == looped  # bitwise
        # One candidate at a time pays one call per candidate and growth.
        assert loop_counter.anchor_calls > counter.anchor_calls
