"""The serving tier end to end: pool, async front-end, subscriptions.

A small town is indexed once, then served three ways:

1. a **persistent worker pool** answers batch queries from warm-started
   workers (snapshot boot, mutation deltas replayed in place);
2. an asyncio **QueryServer** coalesces concurrent requests into
   microbatches — whatever arrives together, or while a batch runs,
   shares the next one; there is no window to wait out — and reports
   p50/p99 latency per query kind and the time spent queued;
3. a **ContinuousQueryHub** keeps a moving client's nearest-cafes
   subscription live through movement and a road closure.

Run with::

    python examples/serve_demo.py [seed]
"""

import asyncio
import sys

from repro import ContinuousQueryHub, ObstacleDatabase, Point, QueryServer, Rect
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


def demo_continuous(db: ObstacleDatabase, start) -> None:
    """A moving client's standing query, through a road closure."""
    print("\n-- continuous subscription " + "-" * 32)
    hub = ContinuousQueryHub(db)
    sub = hub.nearest("cafes", start, 3)
    print(f"initial top-3: {[p for p, __ in hub.poll(sub).added]}")
    step = db.universe().width * 0.02
    delta = hub.move(sub, Point(start.x + step, start.y))
    print(
        f"after moving: +{len(delta.added)} -{len(delta.removed)} "
        f"~{len(delta.changed)} cafes"
    )
    q = sub.position
    nearest, __ = sub.current[0]
    mx, my = (q.x + nearest.x) / 2, (q.y + nearest.y) / 2
    if abs(nearest.x - q.x) >= abs(nearest.y - q.y):
        wall = Rect(mx - 5, my - 400, mx + 5, my + 400)
    else:
        wall = Rect(mx - 400, my - 5, mx + 400, my + 5)
    record = db.insert_obstacle(wall)
    delta = hub.poll(sub)
    print(
        f"road closure across the walk re-evaluated the subscription "
        f"(reeval #{sub.reevaluations}): {len(delta.changed)} distance(s) "
        "changed"
    )
    db.delete_obstacle(record)


def main(seed: int = 9) -> None:
    print(f"Generating town (seed={seed}) ...")
    db, queries = build_town(seed)
    with db:
        demo_pool(db, queries)
        asyncio.run(demo_server(db, queries))
        demo_continuous(db, queries[0])
    print(f"\npool shut down with the database: {db._serving_pool is None}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
