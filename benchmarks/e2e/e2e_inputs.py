"""Inputs of the end-to-end benchmark: pinned datasets, seeded streams.

The paper measures random query workloads against ONE fixed dataset
(the LA street MBRs).  The benchmark keeps that split.  Every *dataset*
is pinned by :data:`DATASET_SEED`; the three stream workloads replay
the shipped profiles through :func:`repro.workloads.generate_trace`
with that one seed, which fixes their scene, anchors and routes (with
seed-derived scenes the hotspot workloads moved by ~20 % from scene to
scene — where six anchors happened to fall — wider than any bound).
``--seed`` draws the query points of ``paper-cold``, the order in which
``paper-join`` joins its pinned sets, and where the mutations of
``churn-durable`` land.  ``hotspot-warm`` and ``serve-stream`` are the
same stream under every seed; their repeated runs are the repeated
measurement.

The program under test receives only what is generated here.  Every
stream has a sha256 over its scene and ops (floats as hex), and the
seed-0 digests are pinned in ``pinned.json``.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import Point, Rect
from repro.datasets import (
    entities_following_obstacles,
    query_points,
    street_grid_obstacles,
    synthetic,
)
from repro.workloads import (
    decode_trace,
    encode_trace,
    generate_trace,
    profiles,
    scene_for,
)

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"

#: Pins every dataset and profile trace (EDBT 2004).
DATASET_SEED = 2004

UNIVERSE = synthetic.DEFAULT_UNIVERSE
SIDE = UNIVERSE.width

WORKLOADS = (
    "paper-cold",
    "paper-join",
    "hotspot-warm",
    "churn-durable",
    "serve-stream",
)

#: Sizes per scale.  ``rate`` is timed ops per second of ``--seconds``
#: on the 2-core box the baseline was taken on, so a run measures for
#: about ``--seconds``; the op count is a function of the arguments
#: alone, which keeps every count exactly repeatable.
SCALES = {
    "full": {
        "paper_obstacles": 131_461,  # the paper's |O| (Sec. 7)
        "paper_T": 13_146,  # 0.1 |O|
        # 0.001 |O| per S set.  At the issue's 0.01 |O| a 10 s run times
        # 12 ops: its p50 sits on the edge between two op kinds and its
        # p95 is the maximum; over ten seeds they spread 16 % and 24 %.
        "join_S": 131,
        "trace_obstacles": 2_000,
        "trace_entities": 2_000,
        "rate": {
            "paper-cold": 22.0,
            "paper-join": 10.8,
            "hotspot-warm": 400.0,
            "churn-durable": 240.0,
            "serve-stream": 215.0,
        },
        "warmup": {
            "hotspot-warm": 1_000,
            "churn-durable": 1_000,
            "serve-stream": 600,
        },
    },
    "tiny": {
        "paper_obstacles": 1_200,
        "paper_T": 400,
        "join_S": 60,
        "trace_obstacles": 300,
        "trace_entities": 300,
        "rate": {
            "paper-cold": 20.0,
            "paper-join": 9.0,
            "hotspot-warm": 240.0,
            "churn-durable": 120.0,
            "serve-stream": 120.0,
        },
        "warmup": {
            "hotspot-warm": 80,
            "churn-durable": 80,
            "serve-stream": 40,
        },
    },
}

#: paper-cold's mix per ten ops (Sec. 7's e and k ranges).
COLD_MIX = (
    [("range", 0.001)] * 2
    + [("range", 0.005)] * 3
    + [("nearest", 4)] * 2
    + [("nearest", 16)] * 3
)

QUERY_KINDS = ("range", "nearest", "distance", "distance_join", "closest_pairs")
MUTATION_KINDS = ("insert", "delete")


@dataclass
class Inputs:
    """Everything one workload run is given."""

    workload: str
    obstacles: list
    entity_sets: dict[str, list[Point]]
    warmup: list[tuple]
    ops: list[tuple]
    gen_s: float = 0.0
    sha256: str = ""
    #: Workload-specific extras (recovery probes).
    extra: dict = field(default_factory=dict)


def rng_for(seed: int, *labels: str) -> random.Random:
    """The stream RNG for one purpose (str seeding hashes with sha512,
    so the sequence is the same on every host and Python version)."""
    return random.Random("e2e/" + "/".join((str(seed),) + labels))


# ---------------------------------------------------------------- digests
def _hex(x: float) -> str:
    return float(x).hex()


def canon(value) -> str:
    """Canonical text of an op, answer or scene part: floats as hex."""
    if isinstance(value, Point):
        return f"P({_hex(value.x)},{_hex(value.y)})"
    if isinstance(value, Rect):
        return "R(" + ",".join(
            _hex(v) for v in (value.minx, value.miny, value.maxx, value.maxy)
        ) + ")"
    if isinstance(value, float):
        return _hex(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    return repr(value)


def digest_of(parts) -> str:
    """sha256 over the canonical text of every part, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(canon(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def points_array(points) -> np.ndarray:
    """Coordinates as an ``(n, 2)`` array."""
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)


def _rects_array(obstacles) -> np.ndarray:
    return np.array(
        [(o.mbr.minx, o.mbr.miny, o.mbr.maxx, o.mbr.maxy) for o in obstacles],
        dtype=np.float64,
    ).reshape(-1, 4)


def _input_digest(inputs: Inputs) -> str:
    h = hashlib.sha256()
    h.update(_rects_array(inputs.obstacles).tobytes())
    for name in sorted(inputs.entity_sets):
        h.update(name.encode())
        h.update(points_array(inputs.entity_sets[name]).tobytes())
    h.update(digest_of(inputs.warmup).encode())
    h.update(digest_of(inputs.ops).encode())
    return h.hexdigest()


# ----------------------------------------------------------- pinned scenes
def _generator_stamp() -> str:
    """Cache key part: the generators' source, so an edit to
    ``repro.datasets`` or ``repro.workloads.profiles`` can never be
    hidden by a stale cached file."""
    h = hashlib.sha256()
    for module in (synthetic, profiles):
        h.update(Path(inspect.getsourcefile(module)).read_bytes())
    return h.hexdigest()[:12]


def _cached(name: str, make, dump, load):
    """``load(path)`` of the cached file ``name``, made and written
    (atomically) by ``dump(path, make())`` when it is missing."""
    path = CACHE_DIR / f"{DATASET_SEED}-{_generator_stamp()}-{name}"
    if not path.exists():
        CACHE_DIR.mkdir(exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        dump(tmp, make())
        os.replace(tmp, path)
    return load(path)


def _cached_points(tag: str, make) -> list[Point]:
    """Entity sets are cached as coordinate arrays (points rebuild in
    ~1 us each; obstacles are not cached — their polygons validate in
    the constructor and cost as much to rebuild as to generate)."""

    def dump(path, points):
        with open(path, "wb") as fh:
            np.save(fh, points_array(points))

    return _cached(
        f"{tag}.npy",
        make,
        dump,
        lambda path: [Point(x, y) for x, y in np.load(path).tolist()],
    )


def paper_scene(scale: str, *, with_p: bool, with_t: bool):
    """The pinned Sec. 7 dataset: street-grid obstacles, ``P`` with
    ``|P| = |O|`` and ``T`` with ``|T| = 0.1 |O|``, both following the
    obstacle distribution."""
    size = SCALES[scale]
    n = size["paper_obstacles"]
    obstacles = street_grid_obstacles(n, seed=DATASET_SEED)
    sets = {}
    if with_p:
        sets["P"] = _cached_points(
            f"paper-{scale}-P",
            lambda: entities_following_obstacles(
                n, obstacles, seed=DATASET_SEED + 1
            ),
        )
    if with_t:
        sets["T"] = _cached_points(
            f"paper-{scale}-T",
            lambda: entities_following_obstacles(
                size["paper_T"], obstacles, seed=DATASET_SEED + 2
            ),
        )
    return obstacles, sets


def profile_stream(profile: str, scale: str, n_events: int):
    """A shipped profile as the benchmark's ops: ``(obstacles, entity
    sets, ops)`` of ``generate_trace(profile, seed=DATASET_SEED)`` over
    the scale's scene.  The encoded trace is cached; the scene is
    rebuilt from the trace's recipe, as a replay does."""
    size = SCALES[scale]
    trace = _cached(
        f"{profile}-{scale}-{n_events}.trace",
        lambda: generate_trace(
            profile,
            seed=DATASET_SEED,
            n_events=n_events,
            n_obstacles=size["trace_obstacles"],
            n_entities=size["trace_entities"],
        ),
        lambda path, made: path.write_bytes(encode_trace(made)),
        lambda path: decode_trace(path.read_bytes()),
    )
    obstacles, entities = scene_for(
        trace.n_obstacles, trace.scene_seed, trace.n_entities
    )
    name = trace.set_name
    ops = []
    for ev in trace.events:
        if ev.kind == "distance":
            ops.append(("distance", ev.source, ev.center))
        elif ev.kind == "nearest":
            ops.append(("nearest", name, ev.center, ev.k))
        elif ev.kind == "range":
            ops.append(("range", name, ev.center, ev.e))
        elif ev.kind == "insert":
            ops.append(("insert", ev.tag, ev.rect))
        else:
            ops.append(("delete", ev.tag))
    return list(obstacles), {name: list(entities)}, ops


# ----------------------------------------------------------------- streams
def _op_count(workload: str, scale: str, seconds: float, multiple: int) -> int:
    n = SCALES[scale]["rate"][workload] * seconds
    return max(multiple, int(round(n / multiple)) * multiple)


def _paper_cold(seed: int, scale: str, seconds: float) -> Inputs:
    """Independent free-space query points, one cold graph each."""
    obstacles, sets = paper_scene(scale, with_p=True, with_t=False)
    n = _op_count("paper-cold", scale, seconds, len(COLD_MIX))
    rng = rng_for(seed, "paper-cold")
    points = query_points(n, obstacles, seed=rng.getrandbits(31))
    kinds = COLD_MIX * (n // len(COLD_MIX))
    rng.shuffle(kinds)
    ops = [
        (kind, "P", q, arg * SIDE if kind == "range" else arg)
        for (kind, arg), q in zip(kinds, points)
    ]
    return Inputs("paper-cold", obstacles, sets, [], ops)


def _paper_join(seed: int, scale: str, seconds: float) -> Inputs:
    """Per S set: ODJ e=0.1 %, ODJ e=0.2 %, OCP k=16 against pinned T.

    The S sets are pinned too and the seed draws the order they are
    joined in: 108 heavy-tailed ops are too few for the seed to draw
    their content (``op_p95_ms`` is then set by the few slowest joins
    of the draw and spread 11-29 % over sets of ten seeds)."""
    obstacles, sets = paper_scene(scale, with_p=False, with_t=True)
    size = SCALES[scale]["join_S"]
    n_sets = _op_count("paper-join", scale, seconds, 3) // 3
    # One sampler call for every S set: each call indexes all obstacles.
    pool = _cached_points(
        f"paper-{scale}-S{n_sets}",
        lambda: entities_following_obstacles(
            n_sets * size, obstacles, seed=DATASET_SEED + 3
        ),
    )
    order = list(range(n_sets))
    rng_for(seed, "paper-join").shuffle(order)
    ops = []
    for i in order:
        name = f"S{i}"
        sets[name] = pool[i * size : (i + 1) * size]
        ops.append(("distance_join", name, "T", 0.001 * SIDE))
        ops.append(("distance_join", name, "T", 0.002 * SIDE))
        ops.append(("closest_pairs", name, "T", 16))
    return Inputs("paper-join", obstacles, sets, [], ops)


def _profile_inputs(workload: str, profile: str, scale: str, seconds: float) -> Inputs:
    warm = SCALES[scale]["warmup"][workload]
    n = warm + _op_count(workload, scale, seconds, 16)
    obstacles, sets, ops = profile_stream(profile, scale, n)
    return Inputs(workload, obstacles, sets, ops[:warm], ops[warm:])


def _hotspot_warm(seed: int, scale: str, seconds: float) -> Inputs:
    """The ``zipf-hotspot`` profile (the same stream under every seed)."""
    return _profile_inputs("hotspot-warm", "zipf-hotspot", scale, seconds)


def _serve_stream(seed: int, scale: str, seconds: float) -> Inputs:
    """The ``commuter`` profile (the same stream under every seed)."""
    return _profile_inputs("serve-stream", "commuter", scale, seconds)


def _near_rect(
    rng: random.Random,
    centres: np.ndarray,
    rects: np.ndarray,
    entities: np.ndarray,
    side: float,
    reach: float,
) -> Rect:
    """A ``side``-square within ``reach`` of one of the stream's query
    centres — so inside the coverage disks of the graphs cached around
    the hotspot — that intersects no obstacle MBR and contains no
    entity and no query centre.  (The shipped ``churn-heavy`` profile
    keeps every rectangle 5 % of the universe from its anchors and
    never reaches a cached graph.)"""

    def holds_any(points: np.ndarray, r: Rect) -> bool:
        return bool(
            (
                (r.minx <= points[:, 0])
                & (points[:, 0] <= r.maxx)
                & (r.miny <= points[:, 1])
                & (points[:, 1] <= r.maxy)
            ).any()
        )

    while True:
        cx, cy = centres[rng.randrange(len(centres))]
        x = cx + rng.uniform(-reach, reach)
        y = cy + rng.uniform(-reach, reach)
        rect = Rect(x, y, x + side, y + side)
        if not UNIVERSE.contains_rect(rect):
            continue
        if (
            (rects[:, 0] <= rect.maxx)
            & (rect.minx <= rects[:, 2])
            & (rects[:, 1] <= rect.maxy)
            & (rect.miny <= rects[:, 3])
        ).any():
            continue
        if holds_any(entities, rect) or holds_any(centres, rect):
            continue
        return rect


def _churn_durable(seed: int, scale: str, seconds: float) -> Inputs:
    """The ``churn-heavy`` profile with every second insert moved next
    to the hotspots, and an explicit compaction after every fifth of
    the timed mutations."""
    warm = SCALES[scale]["warmup"]["churn-durable"]
    n = warm + _op_count("churn-durable", scale, seconds, 8)
    obstacles, sets, events = profile_stream("churn-heavy", scale, n)
    (entities,) = sets.values()
    centres = points_array([op[2] for op in events if op[0] in QUERY_KINDS])
    rects, ents = _rects_array(obstacles), points_array(entities)
    rng = rng_for(seed, "churn-durable")
    side = 0.002 * SIDE
    reach = profiles.CHURN_JITTER_FRACTION * SIDE
    for i, op in enumerate(events):
        if op[0] == "insert" and op[1] % 2 == 0:
            events[i] = ("insert", op[1], _near_rect(rng, centres, rects, ents, side, reach))
    timed = events[warm:]
    mutations = sum(1 for op in timed if op[0] in MUTATION_KINDS)
    every = max(2, mutations // 5)
    ops, seen = [], 0
    for op in timed:
        ops.append(op)
        if op[0] in MUTATION_KINDS:
            seen += 1
            if seen % every == 0:
                ops.append(("compact",))
    queries = [op for op in timed if op[0] in QUERY_KINDS]
    probes = rng_for(seed, "churn-durable", "probe").sample(
        queries, min(64, len(queries))
    )
    return Inputs(
        "churn-durable", obstacles, sets, events[:warm], ops,
        extra={"probes": probes},
    )


_GENERATORS = {
    "paper-cold": _paper_cold,
    "paper-join": _paper_join,
    "hotspot-warm": _hotspot_warm,
    "churn-durable": _churn_durable,
    "serve-stream": _serve_stream,
}


def generate(workload: str, seed: int, scale: str, seconds: float) -> Inputs:
    """The inputs of one run, with generation time and digest."""
    t0 = time.perf_counter()
    inputs = _GENERATORS[workload](seed, scale, seconds)
    inputs.sha256 = _input_digest(inputs)
    inputs.gen_s = time.perf_counter() - t0
    return inputs
