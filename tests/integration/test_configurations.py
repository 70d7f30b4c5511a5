"""Every configuration answers as a cold exact-key oracle does.

Configuration is an argument.  Each named configuration below is a set
of keyword arguments — a visibility backend, spatial cache keys, the
adaptive cache policy, sharded storage, a write-ahead journal, a worker
pool of either kind, tracing, and combinations of them — and each runs
the same seeded script of interleaved queries, batches, obstacle and
entity mutations, ``save`` -> ``load`` and ``compact()``.  Every query
answer must equal, bit for bit, the answer of a cold
``backend="naive"``, exact-key, static-policy database mutated in
lock-step (its caches emptied before each query): options may move
cost, never an answer.  Each configuration also asserts the counter
that proves it was in force, so a dropped argument fails here rather
than passing as the default.

Scenes are the disjoint-obstacle scenes of ``tests/conftest.py``
(rectangles at least half a unit apart, generic float points), which
keeps them clear of the two exactness defects on record in ROADMAP
"Recent"; a seed that trips one stays in as ``xfail(strict=True)``.
"""

import random
import shutil
from functools import lru_cache

import pytest

from repro import ObstacleDatabase, Point, Rect
from repro.core.source import ShardedObstacleIndex
from repro.obs import TRACER
from tests.conftest import random_disjoint_rects, random_free_points

SEEDS = [17, 2004]

#: ``workers`` / ``pool`` go to the batch calls, ``durable`` becomes a
#: journal path, ``traced`` is ``TRACER.configure(1.0)``; the rest are
#: constructor arguments.
CONFIGURATIONS = {
    "python-sweep": {"backend": "python-sweep"},
    "snap": {"graph_cache_snap": 2.0},
    "adaptive": {"cache_policy": "adaptive"},
    "sharded": {"shards": 8},
    "durable": {"durable": True},
    "fork": {"workers": 2, "pool": "fork"},
    "persistent": {"workers": 2, "pool": "persistent"},
    "traced": {"traced": True},
    "adaptive+sharded+durable+persistent": {
        "cache_policy": "adaptive",
        "shards": 8,
        "durable": True,
        "workers": 2,
        "pool": "persistent",
    },
    "snap+python-sweep": {"graph_cache_snap": 2.0, "backend": "python-sweep"},
    "sharded+fork+traced": {
        "shards": 8,
        "workers": 2,
        "pool": "fork",
        "traced": True,
    },
}

#: Step kinds that answer, and how often each kind occurs in a script.
QUERIES = {
    "nearest": 10,
    "range": 8,
    "obstructed_distance": 10,
    "distance_join": 3,
    "closest_pairs": 3,
    "semijoin": 2,
    "batch_nearest": 3,
    "batch_range": 3,
    "batch_distance": 3,
}
OTHER_STEPS = {
    "insert_obstacle": 5,
    "delete_obstacle": 4,
    "insert_entity": 4,
    "delete_entity": 3,
    "reload": 3,
    "compact": 2,
}


@lru_cache(maxsize=None)
def _script(seed):
    """The scene of ``seed`` and its steps, as plain tuples.

    Query centres jitter around three hot spots, so spatial keys share
    graphs, coverage gets promoted and the adaptive policy has a
    displacement signal to tune on.  Obstacles are inserted clear of
    the live ones (never touching) and deleted by their key in the
    script; entities are deleted only where they are known to exist.
    """
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, 8)
    pois = random_free_points(rng, 10, obstacles)
    stops = random_free_points(rng, 5, obstacles)
    spots = random_free_points(rng, 3, obstacles)

    def near_spot():
        while True:
            s = rng.choice(spots)
            p = Point(s.x + rng.uniform(-0.6, 0.6), s.y + rng.uniform(-0.6, 0.6))
            if not any(o.polygon.contains_or_boundary(p) for o in obstacles):
                return p

    live = {i: o.mbr for i, o in enumerate(obstacles)}
    entities = {"pois": list(pois), "stops": list(stops)}
    kinds = [k for k, n in (QUERIES | OTHER_STEPS).items() for __ in range(n)]
    rng.shuffle(kinds)
    steps = []
    for kind in kinds:
        if kind == "nearest":
            name = rng.choice(["pois", "stops"])
            steps.append((kind, name, near_spot(), rng.randint(1, 3)))
        elif kind == "range":
            steps.append((kind, "pois", near_spot(), rng.uniform(15.0, 30.0)))
        elif kind == "obstructed_distance":
            steps.append((kind, near_spot(), rng.choice(pois + spots)))
        elif kind == "distance_join":
            # The last of the three repeats the one before at twice
            # its range, right behind it: every seed's graph is found
            # in the cache and topped up.
            joins = [step for step in steps if step[0] == kind]
            if len(joins) < 2:
                steps.append((kind, "stops", "pois", rng.uniform(12.0, 20.0)))
            if len(joins) == 1:
                steps.append((kind, "stops", "pois", 2.0 * steps[-1][3]))
        elif kind == "closest_pairs":
            steps.append((kind, "stops", "pois", rng.randint(1, 4)))
        elif kind == "semijoin":
            steps.append((kind, "stops", "pois"))
        elif kind == "batch_nearest":
            qs = [near_spot() for __ in range(5)]
            steps.append((kind, "pois", qs + qs[:1], 2))
        elif kind == "batch_range":
            steps.append((kind, "pois", [near_spot() for __ in range(5)], 22.0))
        elif kind == "batch_distance":
            pairs = [(near_spot(), rng.choice(pois)) for __ in range(5)]
            steps.append((kind, pairs + pairs[:1]))
        elif kind == "insert_obstacle":
            while True:
                x, y = rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0)
                w, h = rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0)
                rect = Rect(x, y, x + w, y + h)
                if not any(rect.expanded(0.5).intersects(r) for r in live.values()):
                    break
            key = len(obstacles) + len(steps)
            live[key] = rect
            steps.append((kind, key, rect))
        elif kind == "delete_obstacle":
            key = rng.choice(sorted(live))
            del live[key]
            steps.append((kind, key))
        elif kind == "insert_entity":
            name = rng.choice(["pois", "stops"])
            entities[name].append(near_spot())
            steps.append((kind, name, entities[name][-1]))
        elif kind == "delete_entity":
            name = rng.choice(["pois", "stops"])
            point = entities[name].pop(rng.randrange(len(entities[name])))
            steps.append((kind, name, point))
        else:
            steps.append((kind,))
    assert len(steps) >= 60
    return [o.polygon for o in obstacles], pois, stops, steps


def _run(
    seed,
    tmp_path=None,
    *,
    cold=False,
    workers=None,
    pool=None,
    durable=False,
    **db_kwargs,
):
    """Run the script of ``seed`` on a database built with
    ``db_kwargs``.  Returns the answer of every query step (a join's
    sorted: it finds its pairs in an order that depends on what earlier
    steps left in the cache), the largest value each runtime counter
    reached, and the final database.

    ``cold`` is the oracle's mode: every cache emptied before each
    query, and no ``save`` -> ``load``.
    """
    polygons, pois, stops, steps = _script(seed)
    load_kwargs = {
        k: db_kwargs[k] for k in ("backend", "cache_policy") if k in db_kwargs
    }
    if durable:
        db_kwargs["durable"] = tmp_path / "db.journal"
    db = ObstacleDatabase(polygons, max_entries=8, min_entries=3, **db_kwargs)
    db.add_entity_set("pois", pois)
    db.add_entity_set("stops", stops)
    anchor = None
    if durable:
        anchor = tmp_path / "base-0.snap"
        db.save(anchor)  # from here on mutations are journaled against it
    oids = {i: i for i in range(len(polygons))}
    answers, seen, reloads = [], {}, 0

    def note_stats():
        # Counters restart from the snapshot's on every load.
        for name, value in db.runtime_stats().items():
            if name != "backend":
                seen[name] = max(seen.get(name, 0), value)

    for kind, *args in steps:
        if kind in QUERIES:
            if cold:
                db.reset_stats(clear_buffers=True)
            if kind.startswith("batch_"):
                answer = getattr(db, kind)(*args, workers=workers, pool=pool)
            else:
                answer = getattr(db, kind)(*args)
            answers.append(sorted(answer) if kind == "distance_join" else answer)
        elif kind == "insert_obstacle":
            oids[args[0]] = db.insert_obstacle(args[1]).oid
        elif kind == "delete_obstacle":
            assert db.delete_obstacle(oids.pop(args[0]))
        elif kind == "insert_entity":
            db.insert_entity(*args)
        elif kind == "delete_entity":
            assert db.delete_entity(*args)
        elif kind == "compact" and durable:
            db.compact()
        elif kind == "reload" and not cold:
            note_stats()
            reloads += 1
            base = tmp_path / f"base-{reloads}.snap"
            if durable:
                # Crash recovery: the base as last anchored and the
                # journal written since, both as found on disk.
                journal = tmp_path / f"db-{reloads}.journal"
                shutil.copy(anchor, base)
                shutil.copy(db.journal.path, journal)
                db.journal.close()
                load_kwargs["durable"] = journal
                anchor = base
            else:
                db.save(base)
            db.close()
            db = ObstacleDatabase.load(base, **load_kwargs)
    note_stats()
    db.close()
    if durable:
        db.journal.close()
    return answers, seen, db


@lru_cache(maxsize=None)
def _oracle(seed):
    """What every configuration must answer: the ``naive`` backend on
    exact keys under the static policy, cold before each query."""
    answers, __, db = _run(
        seed,
        cold=True,
        backend="naive",
        graph_cache_snap=0,
        cache_policy="static",
    )
    assert db.runtime_stats()["backend"] == "naive"
    return answers


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_configuration_answers_as_the_oracle(name, seed, tmp_path):
    config = CONFIGURATIONS[name]
    kwargs = {k: v for k, v in config.items() if k != "traced"}
    rate = TRACER.sample_rate
    if "traced" in config:
        TRACER.configure(1.0)
    try:
        answers, seen, db = _run(seed, tmp_path, **kwargs)
    finally:
        TRACER.configure(rate)
    expected = _oracle(seed)
    assert len(answers) == len(expected)
    for i, (got, want) in enumerate(zip(answers, expected)):
        assert got == want, f"query step {i} differs from the oracle"
    # Per argument, what shows its value reached the code it configures.
    root = TRACER.last_root
    in_force = {
        "backend": lambda v: db.runtime_stats()["backend"] == v,
        "graph_cache_snap": lambda v: (
            seen["graph_cache_promotions"] > 0 and db.context.cache.snap == v
        ),
        "cache_policy": lambda v: (
            seen["policy_adjustments"] > 0 and db.cache_policy == v
        ),
        "shards": lambda v: (
            isinstance(db.obstacle_index, ShardedObstacleIndex)
            and db.obstacle_index.shard_count > 1
        ),
        "durable": lambda v: (
            seen["journal_appends"] > 0 and seen["compactions"] > 0
        ),
        "workers": lambda v: seen["parallel_batches"] > 0,
        "pool": lambda v: (seen["pool_batches"] > 0) == (v == "persistent"),
        "traced": lambda v: bool(root.children or root.total_counters()),
    }
    for argument, value in config.items():
        assert in_force[argument](value), (
            f"{argument}={value!r} left no sign of being in force: {seen}"
        )
