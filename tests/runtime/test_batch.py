"""The batch layer: one command vocabulary, three routes.

Every route — sequential through the shared context, one forked child
per chunk, the persistent pool — answers ``==`` the per-query calls of
a twin database, before and after a mutation, books the same memo
hits, and ships its workers' counters home exactly once.  A worker killed mid-chunk
is a :class:`QueryError` naming the chunk in both lifecycles.
"""

import os
import random
import signal
import threading

import pytest

import repro.runtime.batch
import repro.serve.pool
from repro import ObstacleDatabase, Point, Rect
from repro.errors import DatasetError, QueryError
from repro.serve.pool import _chunk_ranges, fork_available, fork_batch
from tests.conftest import random_disjoint_rects, random_free_points, split_database

ROUTES = {
    "sequential": {"workers": 0},
    "fork": {"workers": 2, "pool": "fork"},
    "persistent": {"workers": 3, "pool": "persistent"},
}
E = 25.0

needs_fork = pytest.mark.skipif(not fork_available(), reason="fork unavailable")


def _dbs(seed=200, n_points=24, n_queries=8, sets=1):
    """A database, its twin (the per-query oracle), and query points;
    ``sets=2`` holds the obstacles of both in two obstacle sets."""
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, 10)
    points = random_free_points(rng, n_points, obstacles)
    dbs = []
    for __ in range(2):
        db = split_database(
            [o.polygon for o in obstacles],
            sets=sets,
            max_entries=8,
            min_entries=3,
        )
        db.add_entity_set("pois", points[n_queries:])
        dbs.append(db)
    return dbs[0], dbs[1], points[:n_queries]


def _items(kind, queries):
    """The batch of ``kind`` over ``queries``, its first item repeated."""
    if kind == "distance":
        items = [(queries[i], queries[i + 1]) for i in range(len(queries) - 1)]
    else:
        items = list(queries)
    return items + items[:1]


def _batch(db, kind, items, **routing):
    if kind == "nearest":
        return db.batch_nearest("pois", items, 2, **routing)
    if kind == "range":
        return db.batch_range("pois", items, E, **routing)
    return db.batch_distance(items, **routing)


def _one(db, kind, item):
    if kind == "nearest":
        return db.nearest("pois", item, 2)
    if kind == "range":
        return db.range("pois", item, E)
    return db.obstructed_distance(*item)


@pytest.mark.parametrize("sets", [1, 2])
@pytest.mark.parametrize("kind", ["nearest", "range", "distance"])
@pytest.mark.parametrize("route", list(ROUTES))
def test_every_route_answers_like_per_query_calls(route, kind, sets):
    if route != "sequential" and not fork_available():
        pytest.skip("fork unavailable")
    db, twin, queries = _dbs(sets=sets)
    items = _items(kind, queries)
    try:
        db.reset_stats(clear_buffers=True)
        assert _batch(db, kind, items, **ROUTES[route]) == [
            _one(twin, kind, item) for item in items
        ]
        runtime = db.runtime_stats()
        assert runtime["batch_memo_hits"] == 1
        assert runtime["parallel_batches"] == (route != "sequential")
        assert runtime["pool_batches"] == (route == "persistent")
        # Off the parent, every miss was ticked in a worker and shipped.
        assert sum(tree["misses"] for tree in db.stats().values()) > 0
        # A mutation between two batches: the fork inherits it, the
        # persistent workers replay it.
        q = queries[0]
        for each in (db, twin):
            each.insert_obstacle(Rect(q.x + 0.5, q.y - 40, q.x + 1.5, q.y + 40))
        assert _batch(db, kind, items, **ROUTES[route]) == [
            _one(twin, kind, item) for item in items
        ]
    finally:
        db.close()


def _counters(db):
    """Each tree's page reads plus the graph and field builds so far."""
    runtime = db.runtime_stats()
    counts = {name: tree["reads"] for name, tree in db.stats().items()}
    counts.update(
        graph_builds=runtime["graph_builds"], field_builds=runtime["field_builds"]
    )
    return counts


@needs_fork
@pytest.mark.parametrize("kind", ["nearest", "range", "distance"])
@pytest.mark.parametrize("route", ["fork", "persistent"])
def test_worker_counters_reach_the_parent_exactly(route, kind):
    """A worker's counters land in the parent once, on top of what the
    parent already had: a parallel batch grows every tree's page reads
    and the graph and field builds by exactly what the sequential batch
    grows them by on a twin with the same history.  A second batch adds
    its own workers' work again — a forked child starts from the
    parent's unchanged state, so exactly the first batch's growth; a
    persistent worker from its warm state, so exactly the twin's second
    growth."""
    db, twin, queries = _dbs(n_points=32, n_queries=16)
    history, queries = queries[:8], queries[8:]
    items = _items(kind, queries)
    try:
        for each in (db, twin):
            _batch(each, kind, _items(kind, history))  # counters stay non-zero
        grown, twin_grown = [], []
        for __ in range(2):
            before, twin_before = _counters(db), _counters(twin)
            _batch(db, kind, items, **ROUTES[route])
            _batch(twin, kind, items)
            after, twin_after = _counters(db), _counters(twin)
            grown.append({key: after[key] - before[key] for key in after})
            twin_grown.append(
                {key: twin_after[key] - twin_before[key] for key in twin_after}
            )
        assert grown[0] == twin_grown[0]
        assert sum(grown[0][name] for name in db.stats()) > 0
        assert grown[0]["graph_builds"] > 0
        if route == "fork":
            assert grown[1] == grown[0]
            assert grown[1]["graph_builds"] > twin_grown[1]["graph_builds"]
        else:
            assert grown[1] == twin_grown[1]
        runtime = db.runtime_stats()
        assert runtime["parallel_batches"] == 2
        assert runtime["pool_batches"] == 2 * (route == "persistent")
    finally:
        db.close()


class TestMemo:
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_repeated_points_evaluate_once(self, route):
        db, __, queries = _dbs(208)
        results = db.batch_nearest("pois", [queries[0]] * 10, 2, **ROUTES[route])
        assert results == [db.nearest("pois", queries[0], 2)] * 10
        runtime = db.runtime_stats()
        assert runtime["batch_memo_hits"] == 9
        # One distinct point is not worth a fan-out, nor a pool.
        assert runtime["parallel_batches"] == 0
        assert db._serving_pool is None

    def test_repeated_pairs_evaluate_once(self, monkeypatch):
        db, __, queries = _dbs(46)
        seen = []
        real = repro.runtime.batch.evaluate

        def recording(db_, command, items):
            seen.append((command, list(items)))
            return real(db_, command, items)

        monkeypatch.setattr(repro.runtime.batch, "evaluate", recording)
        a, b = (queries[0], queries[1]), (queries[2], queries[3])
        results = db.batch_distance([a, a, b, a, b])
        assert seen == [(("distance",), [a, b])]
        da, db_ = db.obstructed_distance(*a), db.obstructed_distance(*b)
        assert results == [da, da, db_, da, db_]
        assert db.runtime_stats()["batch_memo_hits"] == 3

    def test_occurrences_get_their_own_lists(self):
        db, __, queries = _dbs(47)
        first, second = db.batch_range("pois", [queries[0]] * 2, E)
        assert first == second and first is not second


class TestGuards:
    def test_mid_batch_mutation_raises(self, monkeypatch):
        db, __, queries = _dbs(210)
        real = repro.runtime.batch.evaluate

        def mutating(db_, command, items):
            db_.insert_obstacle(Rect(50, 50, 52, 52))
            return real(db_, command, items)

        monkeypatch.setattr(repro.runtime.batch, "evaluate", mutating)
        with pytest.raises(DatasetError, match="mutated during batch"):
            db.batch_nearest("pois", queries, 1)
        with pytest.raises(DatasetError, match="mutated during batch"):
            db.batch_distance([(queries[0], queries[1])])

    def test_arguments_validated(self):
        db, __, queries = _dbs(211)
        for call in (
            lambda: db.batch_nearest("pois", queries, 1, workers=-1),
            lambda: db.batch_range("pois", queries, 5.0, workers=-1),
            lambda: db.batch_distance([(queries[0], queries[1])], workers=-1),
        ):
            with pytest.raises(QueryError, match="worker count"):
                call()
        assert db.batch_nearest("pois", queries, 1, workers=None) == (
            db.batch_nearest("pois", queries, 1, workers=0)
        )

    def test_unknown_set_fails_before_any_fan_out(self):
        db, __, queries = _dbs(212)
        for pool in ("fork", "persistent"):
            with pytest.raises(DatasetError, match="nope"):
                db.batch_nearest("nope", queries, 1, workers=2, pool=pool)
        assert db._serving_pool is None
        assert db.runtime_stats()["parallel_batches"] == 0

    def test_no_fork_runs_sequentially(self, monkeypatch):
        """Where the platform cannot fork, a ``pool="fork"`` batch is
        the slower exact answer: the sequential path."""
        db, __, queries = _dbs(213)
        expected = db.batch_nearest("pois", queries, 2)
        monkeypatch.setattr(repro.serve.pool, "fork_available", lambda: False)
        assert db.batch_nearest("pois", queries, 2, workers=2) == expected
        assert db.runtime_stats()["parallel_batches"] == 0

    def test_chunk_ranges_cover_everything(self):
        for n in (1, 2, 7, 16):
            for parts in (1, 2, 3, 5):
                ranges = _chunk_ranges(n, parts)
                flat = [i for a, b in ranges for i in range(a, b)]
                assert flat == list(range(n))

    def test_tuple_queries_coerced(self):
        db = ObstacleDatabase([Rect(4, 0, 6, 4)], max_entries=8, min_entries=3)
        db.add_entity_set("pois", [Point(10, 2), Point(0, 2)])
        [r1], [r2] = db.batch_nearest("pois", [(0.0, 2.0), (10.0, 2.0)], 1)
        assert r1 == (Point(0, 2), 0.0)
        assert r2 == (Point(10, 2), 0.0)


@needs_fork
def test_a_failing_forked_child_replies_a_named_error():
    """A chunk that raises in a forked child comes back as an error
    reply, located like a persistent worker's."""
    db, __, queries = _dbs(214)
    with pytest.raises(
        QueryError, match=r"worker 0 failed on chunk \[0:4\) of a 'bogus' batch"
    ):
        fork_batch(db, ("bogus",), queries, 2)


@needs_fork
@pytest.mark.parametrize("pool", ["fork", "persistent"])
def test_a_killed_worker_is_a_named_error(monkeypatch, pool):
    """The worker serving the last query SIGKILLs itself (children
    inherit the patch through fork); the parent must raise, not hang —
    the join's timeout turns a hang into a failure — and the next batch
    must answer like the sequential one."""
    db, __, queries = _dbs(330)
    victim = queries[-1]
    real = repro.serve.pool._evaluate

    def killing(db_, command, items):
        if victim in items:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(db_, command, items)

    monkeypatch.setattr(repro.serve.pool, "_evaluate", killing)
    outcome = []

    def run():
        try:
            outcome.append(db.batch_nearest("pois", queries, 2, workers=2, pool=pool))
        except Exception as exc:  # noqa: BLE001 - asserted below
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=30)
    try:
        assert not thread.is_alive(), "the parent hangs on a dead worker"
        [error] = outcome
        assert isinstance(error, QueryError), error
        assert "died serving chunk [4:8) of a 'nearest' batch" in str(error)
        monkeypatch.undo()
        assert db.batch_nearest("pois", queries, 2, workers=2, pool=pool) == (
            db.batch_nearest("pois", queries, 2)
        )
    finally:
        db.close()
