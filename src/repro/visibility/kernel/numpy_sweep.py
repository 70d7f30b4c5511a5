"""The vectorized rotational sweep, many sources and many scenes per
call.

One call answers "which scene points are visible from each of these
sources" — each source against its *own* scene, as node ids and their
distances — with numpy array passes whose unit of work is the geometry
they are given, not the call (a sweep of a 56-node graph is ~80 numpy
calls on 56-element arrays, of a distance join's 13-node graphs on
13-element ones — interpreter and dispatch overhead, not arithmetic):

1. **one ``arctan2`` pass** computes the polar angle and squared
   distance of every (source, event) cell: the events (each scene's
   graph nodes, in id order) and edge rows of the pass's scenes are laid
   end to end, a source owns one cell per event of its scene, and each
   source's cells are ordered by the canonical sweep key
   (:func:`repro.visibility.ordering.order_events_array`) — a one-scene
   call is the one-run case of the same layout;
2. **angular culling** finds, per (source, edge of its scene), the
   contiguous run of the source's sorted events falling inside the
   edge's (padded) angular fan — only those (source, event, edge)
   triples can interact, so the classification work drops from
   ``O(n·m)`` per source to the number of actual ray/edge crossings
   (one ``searchsorted`` over all fans, each source's angles shifted
   into its own stretch of one shared axis, so no fan reaches another
   source's — hence another scene's — events);
3. **batched classification** evaluates the four orientation signs of
   each candidate triple with the same scale-invariant tolerance as
   :func:`repro.geometry.segment.ccw` (inflated 4x for conservatism)
   and buckets it as *blocked* (proper transversal crossing strictly
   inside both open segments — provably invisible), *clear* (strictly
   separated — provably non-blocking), or *ambiguous*;
4. only events with an ambiguous triple (grazes, collinear runs,
   boundary contacts) fall back to the exact predicate — the one
   :func:`repro.visibility.naive.is_visible` loops and the python
   sweep delegates its degenerate contacts to — evaluated over arrays
   for all of a pass's events at once, each against its own scene's
   obstacles
   (:func:`repro.visibility.kernel.exact.hidden_many`: an event is
   hidden iff any of its (segment, obstacle) pairs crosses; a handful
   of events is looped through the scalar method), so both backends
   return identical visible sets everywhere.

Events whose every candidate is clear still undergo the python
sweep's residual check: a segment leaving ``p`` straight through the
interior of an obstacle whose boundary contains ``p`` generates no
crossing candidates at all.

Every per-triple value is computed by the same elementwise float64
expression whatever the number of sources and scenes in the call, so
the visible sets and their order do not depend on how they are
grouped.  Sources are taken :data:`_PAIR_BUDGET` array cells at a
time: a distance join's twenty graphs are one pass, on small scenes
all of a graph's nodes are one pass, on large ones the passes shrink
to one source each and cost what separate sweeps cost.

Graph builds sweep nothing: :func:`kernel_visible_pairs` decides the
tangent node pairs of a connect (of all its graphs, laid out as the
sweep lays its scenes) with the exact predicate alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain
from typing import NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

from repro.geometry.constants import EPS
from repro.geometry.point import Point
from repro.index import mbrs
from repro.obs.trace import TRACER
from repro.visibility.kernel import exact
from repro.visibility.ordering import order_events_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model import Obstacle
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.graph import VisibilityGraph
    from repro.visibility.kernel.packed import PackedScene
    from repro.visibility.tangent import Pairs

TWO_PI = 2.0 * math.pi

#: Angular padding of each edge's candidate fan.  The ``ccw`` collinear
#: band is ``|sin| <= EPS`` (EPS = 1e-9 radians-equivalent); any contact
#: the tolerant predicates could see lies within that band of the exact
#: fan, so a pad three orders of magnitude wider is comfortably safe
#: while still admitting virtually no spurious candidates.
_FAN_PAD = 1e-6

#: Squared-tolerance inflation for the batched orientation signs: the
#: kernel's "strictly non-collinear" band is 4x wider than ``ccw``'s,
#: so every decision the tolerant python predicates could flip lands in
#: the ambiguous residue and is settled by the exact oracle instead.
_TOL_INFLATION = 16.0

#: (Source, event) and (source, edge) pairs swept per pass, whatever
#: the scenes they belong to.  Candidate triples per source grow with
#: both counts, so this bounds the pass's temporaries to what stays
#: cache-resident: measured, one pass per build is 3-4x faster than
#: one per source on 16-60-node scenes, while unbounded passes were
#: slower than separate sweeps from ~400 nodes up (1,000 vertices:
#: 5.5 s against 3.6 s) and raised the end-to-end cold workload's peak
#: RSS from 239 to 285 MB.
_PAIR_BUDGET = 8192

#: Candidate triples classified per array pass: their ~30 float64 rows
#: should stay cache-resident whatever the pass holds.  Measured
#: (street-grid scenes, 64 sources, one call): blocks of 8,192 take
#: 16 ms at 248 vertices and 91-104 ms at 1,000, blocks of 65,536 or no
#: blocking 23.5 and 170-185 ms — at 1,000 vertices more than a source
#: at a time (117-154 ms); a 56-vertex build is 2.6 ms either way.  It
#: also bounds the rows' memory to ~2 MB.
_PASS_PAIRS = 8192

#: (Pair, obstacle) cells one :func:`kernel_visible_pairs` call hands
#: the exact predicate: building a 1,000-vertex street-grid graph took
#: 3.0 s at 64 MB peak RSS, 3.2 s at 75 MB with four times this; a
#: paper-scale build (57 nodes, ~7,000 cells) is one call either way.
_PAIR_CELLS = 1 << 18

#: Shift between consecutive sources' stretches of the shared angle
#: axis: wider than a doubled turn plus the fan pads (4*pi + 3e-6), so
#: no fan of one source can reach another's events — whether the two
#: sweep the same scene or different ones.  The shift rounds angles by
#: ~1e-12 (a pass of a few hundred sources; 3e-11 for the most a pass
#: can hold) — five orders below ``_FAN_PAD``, so it can only add or
#: drop triples that classify as strictly clear.
_SOURCE_STRIDE = 16.0


class _Layout(NamedTuple):
    """The scenes of one pass laid end to end."""

    #: ``(2, n_events)``: the ``x`` and ``y`` of every scene's events —
    #: its graph's nodes, in id order — and the parallel ``Point`` list.
    xy: np.ndarray
    points: Sequence[Point]
    #: ``(2, n_edges)``: per boundary-edge row its endpoints ``a`` and
    #: ``b``, as event rows.
    ends: np.ndarray
    #: Per scene ``(events, edges, first event row, first edge row)``.
    runs: list[tuple[int, int, int, int]]


def _lay_out(packs: "Sequence[PackedScene]") -> _Layout:
    if len(packs) == 1:
        xy, points, ends = packs[0].sweep_arrays()
        return _Layout(xy, points, ends, [(xy.shape[1], ends.shape[1], 0, 0)])
    parts = [packed.sweep_arrays() for packed in packs]
    n = [xy.shape[1] for xy, __, __ in parts]
    m = [ends.shape[1] for __, __, ends in parts]
    runs = list(zip(n, m, accumulate(n, initial=0), accumulate(m, initial=0)))
    return _Layout(
        np.concatenate([xy for xy, __, __ in parts], axis=1),
        list(chain.from_iterable(points for __, points, __ in parts)),
        # An endpoint's node id, shifted by its scene's first event row,
        # is its event row in the pass.
        np.concatenate([ends for __, __, ends in parts], axis=1)
        + np.array([run[2] for run in runs]).repeat(m),
        runs,
    )


class _Spans(NamedTuple):
    """Where the sources of a pass keep their cells and fans: index
    arrays fixed by the pass's shape alone, read-only."""

    #: Per source: the events of its scene, its first cell — it owns
    #: ``n`` cells, one per event, cell ``c`` being event row ``c +
    #: lead`` —, the edges of its scene, and its stretch of the shared
    #: angle axis.
    n: np.ndarray
    first: np.ndarray
    lead: np.ndarray
    m: np.ndarray
    shift: np.ndarray
    #: Per (source, event) cell: its source and event row; its slot on
    #: the doubled angle axis (first copy; the second is ``cell_n``
    #: further), and its source's shift.
    cell_src: np.ndarray
    cell_ev: np.ndarray
    slot: np.ndarray
    cell_n: np.ndarray
    cell_shift: np.ndarray
    #: Per (source, edge) fan, laid end to end like the cells: its
    #: source, that source's ``lead``, and its edge row.
    fan_src: np.ndarray
    fan_lead: np.ndarray
    fan_edge: np.ndarray
    #: Runs of sources with equally many events each.
    blocks: tuple[int, ...]


def _spans(shape: "tuple[tuple[int, int, int], ...]") -> _Spans:
    """The spans of a pass over scenes of ``shape``: per scene, in
    order, ``(sources, events, edges)``."""
    held, n_k, m_k = zip(*shape)
    runs = (n_k, m_k, (0, *accumulate(n_k))[:-1], (0, *accumulate(m_k))[:-1])
    n, m, ev0, ed0 = np.array(runs).repeat(held, axis=1)
    n_src = n.shape[0]
    first = n.cumsum() - n
    lead = ev0 - first
    fan_first = m.cumsum() - m
    source = np.arange(n_src)
    shift = source * _SOURCE_STRIDE
    cell_src = source.repeat(n)
    cells = np.arange(cell_src.shape[0])
    fan_src = source.repeat(m)
    blocks: list[int] = []
    for k, rows in enumerate(held):
        if k and n_k[k] == n_k[k - 1]:
            blocks[-1] += rows
        else:
            blocks.append(rows)
    spans = _Spans(
        n, first, lead, m, shift,
        cell_src, cells + lead[cell_src], cells + first[cell_src], n[cell_src],
        shift[cell_src],
        fan_src, lead[fan_src],
        np.arange(fan_src.shape[0]) + (ed0 - fan_first)[fan_src],
        tuple(blocks),
    )
    for array in spans[:-1]:
        array.flags.writeable = False
    return spans


#: Passes of at most this many cells look their spans up by shape: a
#: warm stream sweeps one or two sources against a cached graph at a
#: time, thousands of times over a few dozen shapes, and the ~25 index
#: arrays are a tenth of such a pass.  (A large pass builds them in a
#: per mille of its time; its shape does not recur.)
_SPANS_MEMO_CELLS = 512
_memoized_spans = lru_cache(maxsize=32)(_spans)


def kernel_visible_from_scenes(
    scenes: "Sequence[tuple[Sequence[Point], VisibilityGraph]]",
    stats: "RuntimeStats | None" = None,
) -> list[list[tuple[list[int], list[float]]]]:
    """Per scene ``(sources, graph)``, per source, the ids of all the
    graph's nodes visible from it and their distances from it —
    vectorized sweep, as many scenes to a pass as :data:`_PAIR_BUDGET`
    holds."""
    out: list[list[tuple[list[int], list[float]]]] = [
        [([], []) for __ in srcs] for srcs, __ in scenes
    ]
    # Every source that sweeps, in call order: where its answer goes,
    # the source, its node id (-1 off the graph), its boundary
    # obstacles, its scene, the cells it takes.
    slots: list[tuple[list, int]] = []
    srcs: list[Point] = []
    own: list[int] = []
    boundaries: "list[Sequence[Obstacle]]" = []
    packs: "list[PackedScene]" = []
    cells: list[int] = []
    for (sources, graph), into in zip(scenes, out):
        packed = graph.packed_scene()
        n = graph.node_count
        if n == 0 or not sources:
            continue
        sweeping, on = _sweep_centers(sources, graph, packed)
        slots += [(into, i) for i in sweeping]
        srcs += [sources[i] for i in sweeping]
        own += [graph._ids.get(sources[i], -1) for i in sweeping]
        boundaries += on
        packs += [packed] * len(sweeping)
        cells += [n + packed.edge_count] * len(sweeping)
    lo = 0
    while lo < len(slots):
        hi = lo + 1
        room = _PAIR_BUDGET - cells[lo]
        while hi < len(slots) and cells[hi] <= room:
            room -= cells[hi]
            hi += 1
        seen = _sweep_scenes(
            srcs[lo:hi], own[lo:hi], boundaries[lo:hi], packs[lo:hi], stats
        )
        for (into, i), visible in zip(slots[lo:hi], seen):
            into[i] = visible
        lo = hi
    return out


def kernel_visible_pairs(
    scenes: "Sequence[tuple[Pairs, VisibilityGraph]]",
    stats: "RuntimeStats | None" = None,
    only: "Sequence[Obstacle]" = (),
) -> list[np.ndarray]:
    """Per scene ``(pairs, graph)``, whether ``u[k]`` and ``v[k]`` see
    each other past its obstacles (``only`` those, if given: obstacles
    of a one-graph call): the exact predicate
    (:func:`~repro.visibility.kernel.exact.hidden_many`, skipping the
    obstacles a pair is known to leave clear) over the pairs of every
    scene laid end to end, as many to a call as :data:`_PAIR_CELLS`
    (segment, obstacle) cells hold."""
    packs = [graph.packed_scene() for __, graph in scenes]
    lay = _lay_out(packs)
    sizes = [pairs.u.size for pairs, __ in scenes]
    a = np.concatenate([pairs.u + run[2] for (pairs, __), run in zip(scenes, lay.runs)])
    b = np.concatenate([pairs.v + run[2] for (pairs, __), run in zip(scenes, lay.runs)])
    clear = np.concatenate([pairs.clear for pairs, __ in scenes], axis=1)
    scene = np.arange(len(scenes)).repeat(sizes)
    ends = (lay.xy.T, lay.points)
    obstacles = np.array([packed.obstacle_count for packed in packs])
    hidden = np.zeros(a.size, dtype=bool)
    if only:
        obstacles[:] = len(only)
    for lo, hi in mbrs.blocks(obstacles[scene], _PAIR_CELLS):
        hidden[lo:hi] = exact.hidden_many(
            ends,
            a[lo:hi],
            ends,
            b[lo:hi],
            packs,
            scene[lo:hi],
            [only] * (hi - lo) if only else (),
            stats,
            None if only else clear[:, lo:hi],
        )
    return np.split(~hidden, np.cumsum(sizes)[:-1])


def _sweep_centers(
    sources: Sequence[Point], graph: "VisibilityGraph", packed: "PackedScene"
) -> "tuple[list[int], list[Sequence[Obstacle]]]":
    """Indices of the sources that sweep, and for each the obstacles
    whose boundary holds it.

    Same contract as the python sweep: a center strictly inside an
    obstacle sees nothing (every segment leaves through the interior),
    keeping all backends oracle-identical — a vertex of one obstacle
    too, when it lies inside an overlapping one.  ``contains`` runs
    only on the obstacles whose MBR holds the center.
    """
    boundaries = [graph.boundary_obstacles(p) for p in sources]
    sweeping = [
        i
        for i, p in enumerate(sources)
        if not any(obs.polygon.contains(p) for obs in packed.mbr_holders(p))
    ]
    if len(sweeping) < len(sources):
        boundaries = [boundaries[i] for i in sweeping]
    return sweeping, boundaries


def _sweep_scenes(
    srcs: list[Point],
    own: list[int],
    boundaries: "list[Sequence[Obstacle]]",
    scenes: "list[PackedScene]",
    stats: "RuntimeStats | None",
) -> list[tuple[list[int], list[float]]]:
    """One pass over ``srcs`` (none strictly inside an obstacle; node
    ids ``own``, -1 off the graph), each against its own scene
    ``scenes[s]``; a scene's sources are consecutive.  Per source, the
    node ids it sees, in sweep order, and their distances: the square
    roots of the pass's own squared distances, ``Point.distance`` to the
    bit."""
    if stats is not None:
        stats.sweep_passes += 1
    TRACER.count("sweep.pass")
    # The pass's scenes in order, how many sources each holds, and each
    # source's scene.
    packs: "list[PackedScene]" = []
    held: list[int] = []
    scene_of = []
    for packed in scenes:
        if not packs or packs[-1] is not packed:
            packs.append(packed)
            held.append(0)
        held[-1] += 1
        scene_of.append(len(packs) - 1)
    lay = _lay_out(packs)
    shape = tuple((rows, run[0], run[1]) for rows, run in zip(held, lay.runs))
    small = sum(rows * events for rows, events, __ in shape) <= _SPANS_MEMO_CELLS
    spans = (_memoized_spans if small else _spans)(shape)

    pxy = np.array([[p.x for p in srcs], [p.y for p in srcs]])
    dx, dy = d = lay.xy.take(spans.cell_ev, axis=1) - pxy.take(spans.cell_src, axis=1)
    d_sq = d * d
    dist_sq = d_sq[0] + d_sq[1]
    angles = np.arctan2(dy, dx)
    angles += TWO_PI * (angles < 0.0)

    # Each source's events in sweep order, in its own cells: position
    # first[s] + k is the k-th event around source s.  A source that is
    # itself an event (exact coordinate identity, like the python
    # sweep) keeps a slot for it — first, at angle 0 and distance 0 —
    # that is never reported, so every source owns exactly n[s] slots.
    order = order_events_array(angles, dist_sq, spans.first, spans.blocks)
    ev_ids = spans.cell_ev.take(order)
    visible = ((dx != 0.0) | (dy != 0.0)).take(order)
    # Each source's own event row when it is a node, else -1 (only an
    # obstacle vertex can be an edge's endpoint).
    vid = np.array(
        [-1 if v < 0 else v + lay.runs[k][2] for v, k in zip(own, scene_of)]
    )
    blocked, ambiguous = _classify_events(
        lay, spans, vid, pxy, angles, ev_ids, angles.take(order)
    )
    visible &= ~blocked
    ambiguous &= visible

    # Residual check, vectorized: a segment leaving p straight through
    # the interior of an obstacle whose boundary contains p generates
    # no crossing candidates at all.  For a survivor with *no*
    # ambiguous pair every non-incident edge is strictly separated
    # from the open segment p-w, so the segment meets each boundary
    # only at its endpoints: one midpoint containment test per
    # boundary obstacle decides `crosses_interior` exactly, except for
    # midpoints within a conservative band of the boundary (collinear
    # grazes along an edge through p), which keep the exact test —
    # against the source's boundary obstacles only.
    band = np.empty(0, dtype=np.int64)
    cell_src = spans.cell_src
    if any(boundaries):
        on_boundary = np.array([bool(b) for b in boundaries])[cell_src]
        plain = (visible & ~ambiguous & on_boundary).nonzero()[0]
        plain_src = cell_src[plain]
        mx, my = (lay.xy.take(ev_ids[plain], axis=1) + pxy.take(plain_src, axis=1)) * 0.5
        inside, borderline = _interior_departures(
            lay, packs, scene_of, boundaries, plain_src, mx, my
        )
        visible[plain[inside]] = False
        band = plain[borderline]
    # The exact predicate, one call for the whole pass: each band event
    # against its source's boundary obstacles, each ambiguous event
    # against its source's scene.  An event is hidden iff any of its
    # pairs crosses.
    residue = ambiguous.nonzero()[0]
    if band.size or residue.size:
        events = np.concatenate([band, residue])
        event_src = cell_src[events]
        hidden = exact.hidden_many(
            (pxy.T, srcs),
            event_src,
            (lay.xy.T, lay.points),
            ev_ids[events],
            packs,
            np.array(scene_of)[event_src],
            [boundaries[s] for s in cell_src[band].tolist()],
            stats,
        )
        visible[events[hidden]] = False

    # A visible cell's position in its source's run is the node id.
    cells = order[visible]
    nodes = (cells - spans.first[cell_src[visible]]).tolist()
    legs = np.sqrt(dist_sq[cells]).tolist()
    out = []
    stop = 0
    for count in np.add.reduceat(visible, spans.first, dtype=np.intp).tolist():
        start, stop = stop, stop + count
        out.append((nodes[start:stop], legs[start:stop]))
    return out


#: Half-width of the boundary band (relative, scaled by edge length)
#: inside which the vectorized midpoint containment defers to the
#: exact ``crosses_interior``.  Three orders of magnitude wider than
#: the tolerant scalar predicates' band (``EPS * (len + 1)``), so every
#: decision the python geometry could see differently is deferred.
_BOUNDARY_BAND = 1e-6


def _interior_departures(
    lay: _Layout,
    packs: "list[PackedScene]",
    scene_of: list[int],
    boundaries: "list[Sequence[Obstacle]]",
    src: np.ndarray,
    mx: np.ndarray,
    my: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-target flags ``(inside, borderline)`` for the residual check.

    Target ``j`` is the midpoint ``(mx[j], my[j])`` of a segment from
    source ``src[j]``; it is tested for strict containment in each
    obstacle of ``boundaries[src[j]]`` (packed in scene
    ``packs[scene_of[src[j]]]`` of ``lay``) with the same even-odd ray
    cast as :meth:`repro.geometry.polygon.Polygon._crossing_number_odd`,
    in one pass over all (target, obstacle edge) pairs.  The caller
    guarantees the open segment meets every obstacle boundary at most
    at its endpoints (all crossing candidates were strictly clear), so
    the midpoint verdict *is* ``crosses_interior`` — except when the
    midpoint falls within ``_BOUNDARY_BAND`` of a boundary edge, where
    ``borderline`` sends the decision back to the exact scalar test.
    """
    # Per source, the edge rows of its boundary obstacles end to end,
    # each tagged with its obstacle's position in the source's list.
    edges: list[int] = []
    groups: list[int] = []
    first = []
    for k, boundary in zip(scene_of, boundaries):
        first.append(len(edges))
        ed0 = lay.runs[k][3]
        for g, obs in enumerate(boundary):
            start, count = packs[k].obstacle_edge_range(obs.oid)
            edges += range(ed0 + start, ed0 + start + count)
            groups += [g] * count
    first.append(len(edges))
    first = np.array(first)
    n_groups = max(map(len, boundaries))

    n = src.shape[0]
    counts = (first[1:] - first[:-1])[src]
    slot = mbrs.ranges(first[src], counts)
    pair_target = np.arange(n).repeat(counts)
    pair_edge = np.array(edges)[slot]
    pair_group = pair_target * n_groups + np.array(groups)[slot]

    (ax, bx), (ay, by) = lay.xy.take(lay.ends.take(pair_edge, axis=1), axis=1)
    pmx = mx[pair_target]
    pmy = my[pair_target]
    ex = bx - ax
    ey = by - ay
    e_len_sq = ex * ex + ey * ey
    # Distance from each midpoint to each closed boundary edge
    # (clamped projection), against the per-edge band width.
    t = ((pmx - ax) * ex + (pmy - ay) * ey) / e_len_sq
    np.clip(t, 0.0, 1.0, out=t)
    dx = pmx - (ax + t * ex)
    dy = pmy - (ay + t * ey)
    band = _BOUNDARY_BAND * (np.sqrt(e_len_sq) + 1.0)
    near_pair = (dx * dx + dy * dy) <= band * band
    # Even-odd ray cast to +x, the scalar test's exact arithmetic:
    # half-open rule on the edge y-range, crossing strictly right.
    straddles = (ay > pmy) != (by > pmy)
    denom = np.where(straddles, by - ay, 1.0)
    x_cross = ax + (pmy - ay) * ex / denom
    cross_pair = straddles & (x_cross > pmx)

    shape = (n, n_groups)
    near = np.bincount(pair_group[near_pair], minlength=n * n_groups) > 0
    odd = np.bincount(pair_group[cross_pair], minlength=n * n_groups) & 1
    inside = (odd.astype(bool) & ~near).reshape(shape).any(axis=1)
    borderline = near.reshape(shape).any(axis=1)
    return inside, borderline & ~inside


def _classify_events(
    lay: _Layout,
    spans: _Spans,
    vid: np.ndarray,
    pxy: np.ndarray,
    angles: np.ndarray,
    ev_ids: np.ndarray,
    ev_ang: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sorted-event (blocked, ambiguous) flags from candidate pairs.

    ``angles`` holds every source's (source, event) cells in packed
    order, ``ev_ids``/``ev_ang`` the same cells in sweep order.
    """
    pair_src, pair_edge, pair_pos = _candidate_pairs(lay, spans, vid, angles, ev_ang)
    blocked = np.zeros(ev_ang.shape[0], dtype=bool)
    ambiguous = np.zeros(ev_ang.shape[0], dtype=bool)
    for lo in range(0, pair_pos.shape[0], _PASS_PAIRS):
        part = slice(lo, lo + _PASS_PAIRS)
        pos = pair_pos[part]
        blocked_pair, ambiguous_pair = _classify_pairs(
            *_pair_rows(lay, pxy, pair_src[part], pair_edge[part], ev_ids[pos])
        )
        blocked[pos[blocked_pair]] = True
        ambiguous[pos[ambiguous_pair]] = True
    return blocked, ambiguous


def _candidate_pairs(
    lay: _Layout,
    spans: _Spans,
    vid: np.ndarray,
    angles: np.ndarray,
    ev_ang: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (source, edge row, sorted-event position) triples that can
    interact: per (source, edge) fan, the source's events inside it."""
    n, first = spans.n, spans.first
    fan_src, fan_edge = spans.fan_src, spans.fan_edge
    ends = lay.ends.take(fan_edge, axis=1)

    # Edges incident to p never block (their contact is at p itself; the
    # caller's residual check covers interior departures) — excluded
    # exactly as the python sweep skips them.
    apart = ends != vid[fan_src]
    live = apart[0] & apart[1]

    # Angular fan of each edge as seen from p.  The fan of a segment not
    # containing p spans < pi; near-pi widths mean p is (nearly) on the
    # segment — those edges are degenerate and paired with every event.
    a_ang, b_ang = angles.take(ends - spans.fan_lead)
    delta = b_ang - a_ang
    delta += TWO_PI * (delta < 0.0)
    short = delta <= math.pi
    lo = np.where(short, a_ang, b_ang)
    width = np.where(short, delta, TWO_PI - delta)
    degenerate = live & (width >= math.pi - 2.0 * _FAN_PAD)
    fanned = (live & ~degenerate).nonzero()[0]

    # Candidate (event, edge) pairs: events whose sorted angle falls in
    # the padded fan.  Searching in a doubled angle domain turns every
    # (possibly wrapping) circular interval into one linear range;
    # source s's doubled angles are slots [2 * first[s], 2 * (first[s]
    # + n[s])) of one axis, shifted by s * _SOURCE_STRIDE.
    f_src = fan_src[fanned]
    lo_f = lo[fanned] - _FAN_PAD
    lo_f += TWO_PI * (lo_f < 0.0)
    hi_f = lo_f + width[fanned] + 2.0 * _FAN_PAD
    doubled = np.empty(2 * ev_ang.shape[0])
    doubled[spans.slot] = ev_ang + spans.cell_shift
    doubled[spans.slot + spans.cell_n] = (ev_ang + TWO_PI) + spans.cell_shift
    f_shift = spans.shift[f_src]
    starts = doubled.searchsorted(lo_f + f_shift, side="left")
    counts = doubled.searchsorted(hi_f + f_shift, side="right") - starts
    pair_src = f_src.repeat(counts)
    pair_edge = fan_edge[fanned].repeat(counts)
    pair_pos = mbrs.ranges(starts, counts)
    pair_pos -= 2 * first[pair_src]
    pair_pos %= n[pair_src]
    pair_pos += first[pair_src]

    d = degenerate.nonzero()[0]
    if d.size:
        d_src = fan_src[d]
        d_n = n[d_src]
        pair_src = np.concatenate([pair_src, d_src.repeat(d_n)])
        pair_edge = np.concatenate([pair_edge, fan_edge[d].repeat(d_n)])
        pair_pos = np.concatenate([pair_pos, mbrs.ranges(first[d_src], d_n)])
    return pair_src, pair_edge, pair_pos


def _pair_rows(
    lay: _Layout,
    pxy: np.ndarray,
    pair_src: np.ndarray,
    pair_edge: np.ndarray,
    e_id: np.ndarray,
) -> tuple:
    """:func:`_classify_pairs`' arguments for candidate pairs of source
    ``pair_src``, edge row ``pair_edge`` and event row ``e_id``."""
    ends = lay.ends.take(pair_edge, axis=1)
    (ax, bx), (ay, by) = lay.xy.take(ends, axis=1)
    w_is_a, w_is_b = ends == e_id
    px, py = pxy.take(pair_src, axis=1)
    wx, wy = lay.xy.take(e_id, axis=1)
    return px, py, wx, wy, ax, ay, w_is_a, bx, by, w_is_b


def _classify_pairs(
    px, py, wx, wy, ax, ay, w_is_a, bx, by, w_is_b
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``(blocked, ambiguous)`` flags: how segment ``p-w``
    relates to edge ``a-b`` (``w_is_a``/``w_is_b``: the event is that
    endpoint), for flat arrays of pairs.  Whatever is neither is
    clear."""
    tol = _TOL_INFLATION * (EPS * EPS)
    qax = ax - px
    qay = ay - py
    a2 = qax * qax + qay * qay
    # p and w against the edge's line (its operands die with the call:
    # a pass holds tens of thousands of pairs) ...
    strict12, apart12 = _across_edge(
        tol, qax, qay, a2, bx - ax, by - ay, wx - ax, wy - ay
    )
    # ... then a and b against the ray's.
    rx = wx - px
    ry = wy - py
    qbx = bx - px
    qby = by - py
    r2 = rx * rx + ry * ry
    b2 = qbx * qbx + qby * qby
    r_tol = tol * r2
    c3 = rx * qay - ry * qax  # ccw(p, w, a)
    c4 = rx * qby - ry * qbx  # ccw(p, w, b)
    z3 = c3 * c3 <= r_tol * a2
    z4 = c4 * c4 <= r_tol * b2
    strict34 = ~(z3 | z4)
    apart34 = (c3 > 0.0) != (c4 > 0.0)
    blocked_pair = strict12 & strict34 & apart12 & apart34
    clear_pair = (strict12 & ~apart12) | (strict34 & ~apart34)

    # Edges incident to the event vertex touch the ray exactly at w:
    # clear, unless the edge runs back along the ray toward p (collinear
    # other endpoint strictly closer) — then it overlaps the segment and
    # the exact oracle must decide.
    reach = r2 * (1.0 + EPS)
    overlap = (w_is_b & z3 & (a2 < reach)) | (w_is_a & z4 & (b2 < reach))
    w_incident = w_is_a | w_is_b
    clear_pair |= w_incident & ~overlap
    blocked_pair &= ~w_incident
    return blocked_pair, ~(blocked_pair | clear_pair)


def _across_edge(
    tol, qax, qay, a2, sx, sy, wa_x, wa_y
) -> tuple[np.ndarray, np.ndarray]:
    """Whether ``p`` and ``w`` are both strictly off the line of edge
    ``a-b`` (``s = b - a``, ``q = a - p``, ``wa = w - a``), and whether
    on opposite sides of it."""
    s_tol = tol * (sx * sx + sy * sy)
    c1 = sy * qax - sx * qay  # ccw(a, b, p)
    c2 = sx * wa_y - sy * wa_x  # ccw(a, b, w)
    strict = ~(
        (c1 * c1 <= s_tol * a2) | (c2 * c2 <= s_tol * (wa_x * wa_x + wa_y * wa_y))
    )
    return strict, (c1 > 0.0) != (c2 > 0.0)
