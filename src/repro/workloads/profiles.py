"""Named workload profiles: deterministic, seedable event streams.

Each profile distils one production access pattern into a replayable
:class:`~repro.workloads.trace.Trace` over a street-grid scene (stored
by recipe — the synthetic generators are deterministic):

* ``uniform`` — centres scattered uniformly over free space: no
  spatial locality at all, the regime where exact cache keys are
  optimal and any snapping is pure overhead.
* ``zipf-hotspot`` — a handful of anchor points drawn on a Zipf law,
  each query jittered around its anchor by *more* than the hand-tuned
  moving-query snap quantum: a static quantum shatters every hotspot
  into dozens of cells, while the right quantum covers each hotspot
  with one or two.
* ``commuter`` — interleaved moving clients advancing a fixed small
  step per tick (the moving-client stream the static quantum was
  hand-tuned on — the profile an adaptive policy must *match*, not
  beat).
* ``flash-crowd`` — a uniform background that collapses onto one
  sudden hotspot and disperses again: the quantum that is right
  mid-run is wrong at both ends.
* ``churn-heavy`` — hotspot queries interleaved with obstacle
  insert/delete pairs, exercising the repair-first mutation path under
  every policy decision.

Every query centre (and every mutation rectangle) is sampled in free
space — a centre inside an obstacle is disconnected from everything,
and proving those ``inf`` distances would measure full-universe
retrievals instead of cache behaviour.  Most events are
``distance`` evaluations from the centre's Euclidean-nearest entity
(a moving client's ONN inner loop, with naturally bounded graph radii);
``nearest`` and ``range`` events are mixed in at a fixed cadence so
every query family rides the same cache.
"""

from __future__ import annotations

import random

from repro.datasets.synthetic import DEFAULT_UNIVERSE
from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.workloads.replay import scene_for
from repro.workloads.trace import Trace, WorkloadEvent

#: Default scene size (obstacles / entities) for generated traces.
DEFAULT_OBSTACLES = 160
DEFAULT_ENTITIES = 150

#: Hotspot jitter radii as fractions of the universe side.  All are
#: *larger* than the hand-tuned moving-query snap fraction (0.004), so
#: a static quantum splits each hotspot into many cells.
HOTSPOT_JITTER_FRACTION = 0.010
CROWD_JITTER_FRACTION = 0.008
CHURN_JITTER_FRACTION = 0.006

#: Per-tick displacement of a commuter client (fraction of the
#: universe side) — matches the moving-query benches' step.
COMMUTER_STEP_FRACTION = 0.0004

#: Query-mix cadence: every ``NEAREST_EVERY``-th event is an ONN,
#: every ``RANGE_EVERY``-th an OR; the rest are distance evaluations.
NEAREST_EVERY = 8
RANGE_EVERY = 16
RANGE_FRACTION = 0.004  # OR radius as a fraction of the universe side


def _is_free(p: Point, obstacles) -> bool:
    return all(
        not (
            obs.mbr.contains_point(p)
            and obs.polygon.contains_or_boundary(p)
        )
        for obs in obstacles
    )


def _free_point(rng: random.Random, obstacles, universe) -> Point:
    while True:
        p = Point(
            rng.uniform(universe.minx, universe.maxx),
            rng.uniform(universe.miny, universe.maxy),
        )
        if _is_free(p, obstacles):
            return p


def _free_jitter(
    rng: random.Random, anchor: Point, jitter: float, obstacles, universe
) -> Point:
    while True:
        p = Point(
            min(
                max(anchor.x + rng.uniform(-jitter, jitter), universe.minx),
                universe.maxx,
            ),
            min(
                max(anchor.y + rng.uniform(-jitter, jitter), universe.miny),
                universe.maxy,
            ),
        )
        if _is_free(p, obstacles):
            return p


def _query_event(i: int, center: Point, entities, universe) -> WorkloadEvent:
    """The mixed-cadence query event at stream position ``i``: mostly
    distance evaluations from the Euclidean-nearest entity, with ONN /
    OR events every few ticks."""
    if i % RANGE_EVERY == RANGE_EVERY - 1:
        return WorkloadEvent(
            "range", center=center, e=RANGE_FRACTION * universe.width
        )
    if i % NEAREST_EVERY == NEAREST_EVERY - 1:
        return WorkloadEvent("nearest", center=center, k=2)
    source = min(entities, key=center.distance)
    return WorkloadEvent("distance", center=center, source=source)


def _uniform(rng, obstacles, entities, n_events, universe):
    """Centres uniform over free space: zero locality, exact keys win."""
    return [
        _query_event(i, _free_point(rng, obstacles, universe), entities, universe)
        for i in range(n_events)
    ]


def _zipf_hotspot(rng, obstacles, entities, n_events, universe):
    """Zipf-weighted hotspot anchors with wide jitter around each."""
    n_anchors = 6
    anchors = [_free_point(rng, obstacles, universe) for __ in range(n_anchors)]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(n_anchors)]
    jitter = HOTSPOT_JITTER_FRACTION * universe.width
    events = []
    for i in range(n_events):
        anchor = rng.choices(anchors, weights=weights)[0]
        center = _free_jitter(rng, anchor, jitter, obstacles, universe)
        events.append(_query_event(i, center, entities, universe))
    return events


def _commuter(rng, obstacles, entities, n_events, universe):
    """Interleaved moving clients advancing a small fixed step per tick."""
    n_clients = 6
    step = COMMUTER_STEP_FRACTION * universe.width
    steps_per_client = (n_events + n_clients - 1) // n_clients
    paths: list[list[Point]] = []
    while len(paths) < n_clients:
        anchor = _free_point(rng, obstacles, universe)
        for dx, dy in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
            path = [
                Point(anchor.x + t * step * dx, anchor.y + t * step * dy)
                for t in range(steps_per_client)
            ]
            if all(_is_free(p, obstacles) for p in path):
                paths.append(path)
                break
        # No free straight line from this anchor: draw another one.
    events = []
    for i in range(n_events):
        client = i % n_clients
        center = paths[client][i // n_clients]
        events.append(_query_event(i, center, entities, universe))
    return events


def _flash_crowd(rng, obstacles, entities, n_events, universe):
    """Uniform background collapsing onto one sudden crowd, then back."""
    lead = n_events // 10
    tail = n_events // 15
    anchor = _free_point(rng, obstacles, universe)
    jitter = CROWD_JITTER_FRACTION * universe.width
    events = []
    for i in range(n_events):
        if i < lead or i >= n_events - tail:
            center = _free_point(rng, obstacles, universe)
        else:
            center = _free_jitter(rng, anchor, jitter, obstacles, universe)
        events.append(_query_event(i, center, entities, universe))
    return events


def _churn_heavy(rng, obstacles, entities, n_events, universe):
    """Hotspot queries interleaved with obstacle insert/delete pairs."""
    n_anchors = 2
    anchors = [_free_point(rng, obstacles, universe) for __ in range(n_anchors)]
    jitter = CHURN_JITTER_FRACTION * universe.width
    side = 0.002 * universe.width
    clearance = 0.05 * universe.width

    def churn_rect() -> Rect:
        """A small free rectangle well away from the query anchors (so
        no jittered centre can ever fall inside it) containing no
        entity (an entity swallowed by an insert would be unreachable,
        turning later queries into full-universe proofs of ``inf``)."""
        while True:
            p = _free_point(rng, obstacles, universe)
            if any(p.distance(a) < clearance for a in anchors):
                continue
            rect = Rect(p.x, p.y, p.x + side, p.y + side)
            if rect.maxx > universe.maxx or rect.maxy > universe.maxy:
                continue
            if any(rect.intersects(obs.mbr) for obs in obstacles):
                continue
            if any(rect.contains_point(e) for e in entities):
                continue
            return rect

    events = []
    tag = 0
    pending: list[tuple[int, int]] = []  # (delete-at index, tag)
    for i in range(n_events):
        if pending and pending[0][0] == i:
            __, done_tag = pending.pop(0)
            events.append(WorkloadEvent("delete", tag=done_tag))
            continue
        if i % 8 == 4 and i + 4 < n_events:
            events.append(WorkloadEvent("insert", tag=tag, rect=churn_rect()))
            pending.append((i + 4, tag))
            tag += 1
            continue
        anchor = anchors[i % n_anchors]
        center = _free_jitter(rng, anchor, jitter, obstacles, universe)
        events.append(_query_event(i, center, entities, universe))
    # Anything still pending is deleted at the end: the scene finishes
    # where it started.
    for __, done_tag in pending:
        events.append(WorkloadEvent("delete", tag=done_tag))
    return events


#: Profile name -> (builder, default event count).
PROFILES = {
    "uniform": (_uniform, 160),
    "zipf-hotspot": (_zipf_hotspot, 200),
    "commuter": (_commuter, 480),
    "flash-crowd": (_flash_crowd, 240),
    "churn-heavy": (_churn_heavy, 200),
}


def profile_names() -> list[str]:
    """The available profile names, in definition order."""
    return list(PROFILES)


def generate_trace(
    profile: str,
    *,
    seed: int = 0,
    n_events: int | None = None,
    n_obstacles: int = DEFAULT_OBSTACLES,
    n_entities: int = DEFAULT_ENTITIES,
    set_name: str = "P1",
) -> Trace:
    """Generate a named profile as a replayable trace.

    Fully deterministic in its arguments: the same call produces a
    byte-identical trace file on any host (the CI determinism gate
    generates every profile twice and compares the encodings).
    """
    try:
        builder, default_events = PROFILES[profile]
    except KeyError:
        raise DatasetError(
            f"unknown workload profile {profile!r}: expected one of "
            f"{', '.join(PROFILES)}"
        ) from None
    if n_events is None:
        n_events = default_events
    if n_events < 1:
        raise DatasetError(f"need n_events >= 1, got {n_events}")
    scene_seed = seed ^ 0x5EED
    obstacles, entities = scene_for(n_obstacles, scene_seed, n_entities)
    rng = random.Random(seed)
    events = builder(rng, obstacles, entities, n_events, DEFAULT_UNIVERSE)
    return Trace(
        profile=profile,
        seed=seed,
        n_obstacles=n_obstacles,
        scene_seed=scene_seed,
        n_entities=n_entities,
        set_name=set_name,
        events=events,
    )
