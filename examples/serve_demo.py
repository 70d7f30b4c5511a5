"""The serving tier end to end: pool and async front-end.

A small town is indexed once, then served two ways:

1. a **persistent worker pool** answers batch queries from warm-started
   workers (snapshot boot, mutation deltas replayed in place);
2. an asyncio **QueryServer** coalesces concurrent requests into
   microbatches — whatever arrives together, or while a batch runs,
   shares the next one; there is no window to wait out — and reports
   p50/p99 latency per query kind and the time spent queued.

Run with::

    python examples/serve_demo.py [seed]
"""

import asyncio
import sys

from repro import ObstacleDatabase, QueryServer, Rect
from repro.datasets import (
    entities_following_obstacles,
    query_points,
    street_grid_obstacles,
)


def build_town(seed: int):
    """An ObstacleDatabase over a street grid with cafes as entities,
    plus 8 free-space client positions."""
    obstacles = street_grid_obstacles(150, seed=seed)
    cafes = entities_following_obstacles(40, obstacles, seed=seed + 1)
    db = ObstacleDatabase(obstacles, max_entries=32, min_entries=12)
    db.add_entity_set("cafes", cafes)
    return db, query_points(8, obstacles, seed=seed + 2)


def demo_pool(db: ObstacleDatabase, queries) -> None:
    """Batch queries through the warm-started persistent pool."""
    print("\n-- persistent pool " + "-" * 40)
    sequential = db.batch_nearest("cafes", queries, 2)
    pooled = db.batch_nearest("cafes", queries, 2, workers=2, pool="persistent")
    print(f"pool answers identical to sequential: {pooled == sequential}")
    record = db.insert_obstacle(Rect(4800, 4800, 5200, 5200))
    after = db.batch_nearest("cafes", queries, 2, workers=2, pool="persistent")
    print(
        "mutation replayed as a delta (no respawn): "
        f"{after == db.batch_nearest('cafes', queries, 2)}, "
        f"{db._serving_pool!r}"
    )
    db.delete_obstacle(record)


async def demo_server(db: ObstacleDatabase, queries) -> None:
    """Concurrent clients coalesced into microbatches: requests that
    arrive in the same loop tick share a batch, a lone request is
    dispatched at once."""
    print("\n-- async front-end " + "-" * 40)
    async with QueryServer(db) as server:
        answers = await asyncio.gather(
            *[server.nearest("cafes", q, 1) for q in queries]
        )
        alone = await server.nearest("cafes", queries[0], 1)
    snap = server.stats.snapshot()
    latency = snap["latency"]["nearest"]
    print(
        f"{len(queries)} concurrent requests + 1 alone -> "
        f"{snap['batches']:.0f} batches, {snap['coalesced']:.0f} coalesced; "
        f"p50 {latency['p50_s'] * 1000:.1f} ms, "
        f"p99 {latency['p99_s'] * 1000:.1f} ms, "
        f"queue wait p95 {snap['queue_wait']['p95_s'] * 1000:.2f} ms"
    )
    print(f"first client's nearest cafe: {answers[0][0][0]}")
    print(f"same answer when asked alone: {alone == answers[0]}")


def main(seed: int = 9) -> None:
    print(f"Generating town (seed={seed}) ...")
    db, queries = build_town(seed)
    with db:
        demo_pool(db, queries)
        asyncio.run(demo_server(db, queries))
    print(f"\npool shut down with the database: {db._serving_pool is None}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
