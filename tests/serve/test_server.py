"""The asyncio front-end: coalescing, parity, latency accounting."""

import asyncio
import random
import threading

import pytest

from repro import ObstacleDatabase, Point, QueryServer
from repro.errors import DatasetError, QueryError
from tests.conftest import random_disjoint_rects, random_free_points


def _db(seed, *, n_obstacles=10, n_points=26):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_points, obstacles)
    db = ObstacleDatabase(
        [o.polygon for o in obstacles], max_entries=8, min_entries=3
    )
    db.add_entity_set("pois", points[8:])
    return db, points[:8]


def _run(coro):
    return asyncio.run(coro)


class TestServing:
    def test_concurrent_nearest_parity(self):
        db, queries = _db(401)

        async def main():
            async with QueryServer(db) as server:
                results = await asyncio.gather(
                    *[server.nearest("pois", q, 2) for q in queries]
                )
            return [list(r) for r in results]

        served = _run(main())
        assert served == db.batch_nearest("pois", queries, 2)

    def test_concurrent_range_parity(self):
        db, queries = _db(402)

        async def main():
            async with QueryServer(db) as server:
                return await asyncio.gather(
                    *[server.range("pois", q, 25.0) for q in queries]
                )

        served = [list(r) for r in _run(main())]
        assert served == db.batch_range("pois", queries, 25.0)

    def test_distance_requests(self):
        db, queries = _db(403)
        pairs = [(queries[0], queries[1]), (queries[2], queries[3])]

        async def main():
            async with QueryServer(db) as server:
                return await asyncio.gather(
                    *[server.distance(a, b) for a, b in pairs]
                )

        assert _run(main()) == db.batch_distance(pairs)

    def test_requests_coalesce_into_one_batch(self):
        db, queries = _db(404)

        async def main():
            server = QueryServer(db)
            results = await asyncio.gather(
                *[server.nearest("pois", q, 1) for q in queries]
            )
            await server.close()
            return server, results

        server, results = _run(main())
        snap = server.stats.snapshot()
        assert snap["requests"] == len(queries)
        assert snap["batches"] == 1
        assert snap["coalesced"] == len(queries) - 1
        assert snap["completed"] == len(queries)
        assert snap["in_flight"] == 0
        assert snap["in_flight_peak"] == len(queries)
        assert snap["latency"]["nearest"]["count"] == len(queries)
        assert snap["latency"]["nearest"]["p99_s"] > 0
        assert snap["queue_wait"]["count"] == len(queries)
        assert snap["queue_wait"]["max_s"] <= snap["latency"]["nearest"]["max_s"]

    def test_sequential_requests_get_a_batch_each_and_no_timer(self):
        db, queries = _db(406)

        async def main():
            loop = asyncio.get_running_loop()
            timers = []
            call_later = loop.call_later
            loop.call_later = lambda *args, **kw: (
                timers.append(args), call_later(*args, **kw)
            )[1]
            async with QueryServer(db) as server:
                first = await server.nearest("pois", queries[0], 1)
                second = await server.nearest("pois", queries[1], 1)
                await asyncio.gather(
                    *[server.nearest("pois", q, 1) for q in queries]
                )
            return server, [first, second], timers

        server, results, timers = _run(main())
        assert timers == []
        assert server.stats.batches == 3
        assert server.stats.coalesced == len(queries) - 1
        assert [list(r) for r in results] == db.batch_nearest(
            "pois", queries[:2], 1
        )

    def test_distinct_keys_never_share_a_batch(self):
        db, queries = _db(407)

        async def main():
            async with QueryServer(db) as server:
                await asyncio.gather(
                    server.nearest("pois", queries[0], 1),
                    server.nearest("pois", queries[1], 2),
                    server.range("pois", queries[2], 10.0),
                )
                return server

        server = _run(main())
        assert server.stats.batches == 3


def _gate(server):
    """Hold the server's first batch inside ``_run_batch`` until
    ``release`` is set.  Returns ``(entered, release, executed)``:
    ``entered`` is an awaitable that completes once that batch is
    executing, ``executed`` lists ``(kind, items)`` per batch run."""
    entered, release = threading.Event(), threading.Event()
    executed = []
    run_batch = server._run_batch

    def gated(batch):
        executed.append((batch.key[0], list(batch.items)))
        entered.set()
        assert release.wait(20.0)
        return run_batch(batch)

    server._run_batch = gated
    loop = asyncio.get_running_loop()
    return loop.run_in_executor(None, entered.wait, 20.0), release, executed


def _start(*requests):
    """Schedule the request coroutines as tasks; each is admitted, in
    order, the next time the caller awaits."""
    return [asyncio.ensure_future(r) for r in requests]


class TestDispatchDrivenCoalescing:
    def test_backlog_forms_one_next_batch_per_key_oldest_first(self):
        db, q = _db(430)

        async def main():
            server = QueryServer(db)
            entered, release, executed = _gate(server)
            first = _start(server.nearest("pois", q[0], 1))
            assert await entered
            # Admitted while the first batch executes: they wait for it
            # and for nothing else.
            backlog = _start(
                server.range("pois", q[1], 25.0),
                server.nearest("pois", q[2], 1),
                server.range("pois", q[3], 25.0),
                server.nearest("pois", q[4], 1),
            )
            await asyncio.sleep(0)
            assert server.stats.in_flight == 5
            assert server.stats.batches == 0
            release.set()
            answers = await asyncio.gather(*first, *backlog)
            await server.close()
            return server, executed, answers

        server, executed, answers = _run(main())
        assert executed == [
            ("nearest", [q[0]]),
            ("range", [q[1], q[3]]),
            ("nearest", [q[2], q[4]]),
        ]
        assert server.stats.batches == 3
        assert server.stats.coalesced == 2
        assert [list(a) for a in answers[1::2]] == db.batch_range(
            "pois", [q[1], q[3]], 25.0
        )
        wait = server.stats.snapshot()["queue_wait"]
        assert wait["count"] == 5 and wait["max_s"] > 0

    def test_backlog_deeper_than_max_batch_splits(self):
        db, q = _db(431)

        async def main():
            server = QueryServer(db, max_batch=3)
            entered, release, executed = _gate(server)
            first = _start(server.nearest("pois", q[0], 1))
            assert await entered
            backlog = _start(*[server.nearest("pois", p, 1) for p in q[1:5]])
            await asyncio.sleep(0)
            release.set()
            answers = await asyncio.gather(*first, *backlog)
            await server.close()
            return server, executed, answers

        server, executed, answers = _run(main())
        assert executed == [
            ("nearest", [q[0]]),
            ("nearest", q[1:4]),
            ("nearest", [q[4]]),
        ]
        assert server.stats.coalesced == 2
        assert [list(a) for a in answers] == db.batch_nearest("pois", q[:5], 1)

    def test_failed_batch_fails_only_its_requests(self):
        db, q = _db(432)

        async def main():
            async with QueryServer(db) as server:
                results = await asyncio.gather(
                    server.nearest("no-such-set", q[0], 1),
                    server.nearest("pois", q[1], 1),
                    server.nearest("no-such-set", q[2], 1),
                    return_exceptions=True,
                )
                after = await server.nearest("pois", q[3], 1)
            return server, results, after

        server, results, after = _run(main())
        assert isinstance(results[0], DatasetError)
        assert isinstance(results[2], DatasetError)
        assert [list(results[1]), list(after)] == db.batch_nearest(
            "pois", [q[1], q[3]], 1
        )
        assert (server.stats.failed, server.stats.completed) == (2, 2)
        assert server.stats.batches == 3
        assert server.stats.in_flight == 0

    @pytest.mark.parametrize("finish", ["close", "drain"])
    def test_close_and_drain_await_the_executing_batch(self, finish):
        db, q = _db(433)

        async def main():
            server = QueryServer(db)
            entered, release, __ = _gate(server)
            executing = _start(server.nearest("pois", q[0], 1))
            assert await entered
            queued = _start(server.nearest("pois", q[1], 1))
            finishing = _start(getattr(server, finish)())
            await asyncio.sleep(0)
            assert not finishing[0].done()
            if finish == "close":
                with pytest.raises(QueryError, match="closed"):
                    await server.nearest("pois", q[2], 1)
            release.set()
            await finishing[0]
            assert server.stats.in_flight == 0
            assert all(f.done() for f in executing + queued)
            return [list(f.result()) for f in executing + queued]

        assert _run(main()) == db.batch_nearest("pois", q[:2], 1)


    def test_cancelled_dispatcher_refuses_its_backlog(self):
        # Loop teardown cancels every task: nobody may be left waiting.
        db, q = _db(434)

        async def main():
            server = QueryServer(db)
            entered, release, __ = _gate(server)
            requests = _start(server.nearest("pois", q[0], 1))
            assert await entered
            requests += _start(server.range("pois", q[1], 25.0))
            await asyncio.sleep(0)
            server._dispatcher.cancel()
            results = await asyncio.gather(*requests, return_exceptions=True)
            release.set()
            return server, results

        server, results = _run(main())
        assert [type(r) for r in results] == [QueryError, QueryError]
        assert (server.stats.failed, server.stats.in_flight) == (2, 0)
        assert server._dispatcher is None


class TestFailures:
    def test_error_propagates_to_each_request(self):
        db, queries = _db(410)

        async def main():
            async with QueryServer(db) as server:
                results = await asyncio.gather(
                    server.nearest("no-such-set", queries[0], 1),
                    server.nearest("no-such-set", queries[1], 1),
                    return_exceptions=True,
                )
                return server, results

        server, results = _run(main())
        assert all(isinstance(r, DatasetError) for r in results)
        assert server.stats.failed == 2
        assert server.stats.in_flight == 0

    def test_closed_server_refuses_requests(self):
        db, queries = _db(411)

        async def main():
            server = QueryServer(db)
            await server.close()
            with pytest.raises(QueryError, match="closed"):
                await server.nearest("pois", queries[0], 1)
            await server.close()  # idempotent

        _run(main())

    def test_constructor_validation(self):
        db, __ = _db(412)
        with pytest.raises(QueryError):
            QueryServer(db, max_batch=0)
        # There is no window to set: batch depth follows the backlog.
        with pytest.raises(TypeError):
            QueryServer(db, coalesce_window=0.002)


class TestPooledServing:
    def test_server_over_persistent_pool(self):
        db, queries = _db(420)

        async def main():
            async with QueryServer(db, workers=2, pool="persistent") as server:
                return await asyncio.gather(
                    *[server.nearest("pois", q, 2) for q in queries]
                )

        try:
            served = [list(r) for r in _run(main())]
            assert served == db.batch_nearest("pois", queries, 2)
            assert db.runtime_stats()["pool_batches"] >= 1
        finally:
            db.close()
