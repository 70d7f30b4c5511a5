"""The vectorized rotational sweep, many sources per call.

One call answers "which scene points are visible from each of these
sources" with numpy array passes whose leading dimension is the
source, instead of one python-dispatched pass per source (a sweep of
a 56-node graph is ~80 numpy calls on 56-element arrays — interpreter
and dispatch overhead, not arithmetic):

1. **one ``arctan2`` pass** computes the polar angle and squared
   distance of every event (obstacle vertices + free points) around
   every source, and each source's events are ordered by the canonical
   sweep key (:func:`repro.visibility.ordering.order_events_array`);
2. **angular culling** finds, per (source, boundary edge), the
   contiguous run of the source's sorted events falling inside the
   edge's (padded) angular fan — only those (source, event, edge)
   triples can interact, so the classification work drops from
   ``O(n·m)`` per source to the number of actual ray/edge crossings
   (one ``searchsorted`` over all fans, each source's angles shifted
   into its own stretch of one shared axis);
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
   for all of a pass's events at once
   (:func:`repro.visibility.kernel.exact.hidden_many`: an event is
   hidden iff any of its (segment, obstacle) pairs crosses; a handful
   of events is looped through the scalar method), so both backends
   return identical visible sets everywhere.

Events whose every candidate is clear still undergo the python
sweep's residual check: a segment leaving ``p`` straight through the
interior of an obstacle whose boundary contains ``p`` generates no
crossing candidates at all.

Every per-triple value is computed by the same elementwise float64
expression whatever the number of sources in the call, so the visible
sets and their order do not depend on how sources are grouped.
Sources are taken :data:`_PAIR_BUDGET` array cells at a time: on
small scenes a whole graph build is one pass, on large ones the
passes shrink to one source each and cost what separate sweeps cost.
"""

from __future__ import annotations

import math
from typing import Sequence, TYPE_CHECKING

import numpy as np

from repro.geometry.constants import EPS
from repro.geometry.point import Point
from repro.visibility.kernel import exact
from repro.visibility.kernel.exact import ranges
from repro.visibility.ordering import order_events_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model import Obstacle
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.graph import VisibilityGraph
    from repro.visibility.kernel.packed import PackedScene

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

#: (Source, event) and (source, edge) pairs swept per pass.  Candidate
#: triples per source grow with both counts, so this bounds the pass's
#: temporaries to what stays cache-resident: measured, one pass per
#: build is 3-4x faster than one per source on 16-60-node scenes,
#: while unbounded passes were slower than separate sweeps from ~400
#: nodes up (1,000 vertices: 5.5 s against 3.6 s) and raised the
#: end-to-end cold workload's peak RSS from 239 to 285 MB.
_PAIR_BUDGET = 8192

#: Shift between consecutive sources' stretches of the shared angle
#: axis: wider than a doubled turn plus the fan pads (4*pi + 3e-6), so
#: no fan of one source can reach another's events.  The shift rounds
#: angles by ~1e-12 at most — six orders below ``_FAN_PAD``, so it can
#: only add or drop triples that classify as strictly clear.
_SOURCE_STRIDE = 16.0


def kernel_visible_from_many(
    sources: Sequence[Point],
    graph: "VisibilityGraph",
    packed: "PackedScene",
    stats: "RuntimeStats | None" = None,
) -> list[list[Point]]:
    """Per source, all scene points visible from it — vectorized sweep."""
    out: list[list[Point]] = [[] for __ in sources]
    exy, points = packed.event_arrays()
    n = exy.shape[0]
    if n == 0 or not sources:
        return out
    centers, boundaries = _sweep_centers(sources, graph, packed)
    step = max(1, _PAIR_BUDGET // (n + packed.edge_count))
    for lo in range(0, len(centers), step):
        chunk = centers[lo : lo + step]
        seen = _sweep_chunk(
            [sources[i] for i in chunk],
            boundaries[lo : lo + step],
            packed,
            stats,
        )
        for i, visible in zip(chunk, seen):
            out[i] = visible
    return out


def _sweep_centers(
    sources: Sequence[Point], graph: "VisibilityGraph", packed: "PackedScene"
) -> "tuple[list[int], list[Sequence[Obstacle]]]":
    """Indices of the sources that sweep, and for each the obstacles
    whose boundary holds it.

    Same contract as the python sweep: a center strictly inside an
    obstacle sees nothing (every segment leaves through the interior),
    keeping all backends oracle-identical even for out-of-contract
    inputs.  Boundary points cannot be strictly interior (disjoint
    interiors), so vertex centers skip the scan; the others run
    ``contains`` only on the obstacles whose MBR holds them.
    """
    boundaries = [graph.boundary_obstacles(p) for p in sources]
    centers = [
        i
        for i, p in enumerate(sources)
        if boundaries[i]
        or not any(obs.polygon.contains(p) for obs in packed.mbr_holders(p))
    ]
    return centers, [boundaries[i] for i in centers]


def _sweep_chunk(
    srcs: list[Point],
    boundaries: "list[Sequence[Obstacle]]",
    packed: "PackedScene",
    stats: "RuntimeStats | None",
) -> list[list[Point]]:
    """One pass over ``srcs`` (none strictly inside an obstacle)."""
    exy, points = packed.event_arrays()
    n_src = len(srcs)
    n = exy.shape[0]
    pxy = np.array([(p.x, p.y) for p in srcs])
    dx = exy[:, 0] - pxy[:, :1]
    dy = exy[:, 1] - pxy[:, 1:]
    dist_sq = dx * dx + dy * dy
    angles = np.arctan2(dy, dx)
    np.add(angles, TWO_PI, out=angles, where=angles < 0.0)

    # Each source's events in sweep order, laid end to end: position
    # s * n + k is the k-th event around source s.  A source that is
    # itself an event (exact coordinate identity, like the python
    # sweep) keeps a slot for it — first, at angle 0 and distance 0 —
    # that is never reported, so every source owns exactly n slots.
    order = order_events_array(angles, dist_sq)
    ev_ids = order.ravel()
    grid = (order + np.arange(0, n_src * n, n)[:, None]).ravel()
    visible = ((dx != 0.0) | (dy != 0.0)).take(grid)
    blocked, ambiguous = _classify_events(
        srcs, packed, pxy, angles, ev_ids, angles.take(grid)
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
    if any(boundaries):
        on_boundary = np.array([bool(b) for b in boundaries]).repeat(n)
        plain = (visible & ~ambiguous & on_boundary).nonzero()[0]
        plain_ids = ev_ids[plain]
        plain_src = plain // n
        inside, borderline = _interior_departures(
            packed,
            boundaries,
            plain_src,
            (exy[plain_ids, 0] + pxy[plain_src, 0]) * 0.5,
            (exy[plain_ids, 1] + pxy[plain_src, 1]) * 0.5,
        )
        visible[plain[inside]] = False
        band = plain[borderline]
    # The exact predicate, one call for the whole pass: each band event
    # against its source's boundary obstacles, each ambiguous event
    # against the scene.  An event is hidden iff any of its pairs
    # crosses.
    residue = ambiguous.nonzero()[0]
    if band.size or residue.size:
        events = np.concatenate([band, residue])
        only = [boundaries[s] for s in (band // n).tolist()]
        hidden = exact.hidden_many(
            (pxy, srcs),
            events // n,
            (exy, points),
            ev_ids[events],
            packed,
            only,
            stats,
        )
        visible[events[hidden]] = False

    ids = ev_ids[visible].tolist()
    out = []
    stop = 0
    for count in visible.reshape(n_src, n).sum(axis=1).tolist():
        start, stop = stop, stop + count
        out.append([points[i] for i in ids[start:stop]])
    return out


#: Half-width of the boundary band (relative, scaled by edge length)
#: inside which the vectorized midpoint containment defers to the
#: exact ``crosses_interior``.  Three orders of magnitude wider than
#: the tolerant scalar predicates' band (``EPS * (len + 1)``), so every
#: decision the python geometry could see differently is deferred.
_BOUNDARY_BAND = 1e-6


def _interior_departures(
    packed: "PackedScene",
    boundaries: "list[Sequence[Obstacle]]",
    src: np.ndarray,
    mx: np.ndarray,
    my: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-target flags ``(inside, borderline)`` for the residual check.

    Target ``j`` is the midpoint ``(mx[j], my[j])`` of a segment from
    source ``src[j]``; it is tested for strict containment in each
    obstacle of ``boundaries[src[j]]`` with the same even-odd ray cast
    as :meth:`repro.geometry.polygon.Polygon._crossing_number_odd`, in
    one pass over all (target, obstacle edge) pairs.  The caller
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
    for boundary in boundaries:
        first.append(len(edges))
        for g, obs in enumerate(boundary):
            start, count = packed.obstacle_edge_range(obs.oid)
            edges += range(start, start + count)
            groups += [g] * count
    first.append(len(edges))
    first = np.array(first)
    n_groups = max(map(len, boundaries))

    n = src.shape[0]
    counts = (first[1:] - first[:-1])[src]
    slot = ranges(first[src], counts)
    pair_target = np.arange(n).repeat(counts)
    pair_edge = np.array(edges)[slot]
    pair_group = pair_target * n_groups + np.array(groups)[slot]

    vxy = packed.vertex_xy()
    ea, eb = packed.edge_endpoints()
    ia = ea[pair_edge]
    ib = eb[pair_edge]
    ax = vxy[ia, 0]
    ay = vxy[ia, 1]
    bx = vxy[ib, 0]
    by = vxy[ib, 1]
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
    srcs: list[Point],
    packed: "PackedScene",
    pxy: np.ndarray,
    angles: np.ndarray,
    ev_ids: np.ndarray,
    ev_ang: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sorted-event (blocked, ambiguous) flags from candidate pairs.

    ``angles`` is the (source, event) grid; ``ev_ids``/``ev_ang`` are
    every source's ``n`` sorted events laid end to end.
    """
    exy, __ = packed.event_arrays()
    ea, eb = packed.edge_endpoints()
    n_src, n = angles.shape

    # Edges incident to p never block (their contact is at p itself; the
    # caller's residual check covers interior departures) — excluded
    # exactly as the python sweep skips them.
    vids = [packed.vertex_id(p) for p in srcs]
    vid = np.array([-1 if v is None else v for v in vids])[:, None]
    live = (ea != vid) & (eb != vid)

    # Angular fan of each edge as seen from p.  The fan of a segment not
    # containing p spans < pi; near-pi widths mean p is (nearly) on the
    # segment — those edges are degenerate and paired with every event.
    a_ang = angles[:, ea]
    b_ang = angles[:, eb]
    delta = np.mod(b_ang - a_ang, TWO_PI)
    short = delta <= math.pi
    lo = np.where(short, a_ang, b_ang)
    width = np.where(short, delta, TWO_PI - delta)
    degenerate = live & (width >= math.pi - 2.0 * _FAN_PAD)
    fanned = live & ~degenerate

    # Candidate (event, edge) pairs: events whose sorted angle falls in
    # the padded fan.  Searching in a doubled angle domain turns every
    # (possibly wrapping) circular interval into one linear range;
    # source s's doubled angles are slots [2 * n * s, 2 * n * (s + 1))
    # of one axis, shifted by s * _SOURCE_STRIDE.
    f_src, f_edge = fanned.nonzero()
    lo_f = np.mod(lo[f_src, f_edge] - _FAN_PAD, TWO_PI)
    hi_f = lo_f + width[f_src, f_edge] + 2.0 * _FAN_PAD
    shift = np.arange(n_src) * _SOURCE_STRIDE
    doubled = np.empty((n_src, 2, n))
    doubled[:, 0] = ev_ang.reshape(n_src, n)
    doubled[:, 1] = doubled[:, 0] + TWO_PI
    doubled += shift[:, None, None]
    doubled = doubled.ravel()
    f_shift = shift[f_src]
    starts = doubled.searchsorted(lo_f + f_shift, side="left")
    counts = doubled.searchsorted(hi_f + f_shift, side="right") - starts
    pair_src = f_src.repeat(counts)
    pair_edge = f_edge.repeat(counts)
    pair_pos = pair_src * n + ranges(starts, counts) % n

    d_src, d_edge = degenerate.nonzero()
    if d_src.size:
        pair_src = np.concatenate([pair_src, d_src.repeat(n)])
        pair_edge = np.concatenate([pair_edge, d_edge.repeat(n)])
        pair_pos = np.concatenate(
            [pair_pos, (d_src[:, None] * n + np.arange(n)).ravel()]
        )

    e_id = ev_ids[pair_pos]
    ia = ea[pair_edge]
    ib = eb[pair_edge]
    blocked_pair, ambiguous_pair = _classify_pairs(
        pxy[pair_src, 0], pxy[pair_src, 1],
        exy[e_id, 0], exy[e_id, 1],
        exy[ia, 0], exy[ia, 1], ia == e_id,
        exy[ib, 0], exy[ib, 1], ib == e_id,
    )
    size = n_src * n
    blocked = np.bincount(pair_pos[blocked_pair], minlength=size) > 0
    ambiguous = np.bincount(pair_pos[ambiguous_pair], minlength=size) > 0
    return blocked, ambiguous


def _classify_pairs(
    px, py, wx, wy, ax, ay, w_is_a, bx, by, w_is_b
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``(blocked, ambiguous)`` flags: how segment ``p-w``
    relates to edge ``a-b`` (``w_is_a``/``w_is_b``: the event is that
    endpoint), for flat arrays of pairs.  Whatever is neither is
    clear."""
    rx = wx - px
    ry = wy - py
    sx = bx - ax
    sy = by - ay
    qax = ax - px
    qay = ay - py
    qbx = bx - px
    qby = by - py
    r2 = rx * rx + ry * ry
    a2 = qax * qax + qay * qay
    b2 = qbx * qbx + qby * qby
    s_len2 = sx * sx + sy * sy
    wa_x = wx - ax
    wa_y = wy - ay
    wa2 = wa_x * wa_x + wa_y * wa_y

    tol = _TOL_INFLATION * (EPS * EPS)
    c1 = sx * (py - ay) - sy * (px - ax)  # ccw(a, b, p)
    c2 = sx * wa_y - sy * wa_x  # ccw(a, b, w)
    c3 = rx * qay - ry * qax  # ccw(p, w, a)
    c4 = rx * qby - ry * qbx  # ccw(p, w, b)
    z1 = c1 * c1 <= tol * s_len2 * a2
    z2 = c2 * c2 <= tol * s_len2 * wa2
    z3 = c3 * c3 <= tol * r2 * a2
    z4 = c4 * c4 <= tol * r2 * b2

    pos1 = c1 > 0.0
    pos2 = c2 > 0.0
    pos3 = c3 > 0.0
    pos4 = c4 > 0.0
    strict12 = ~z1 & ~z2
    strict34 = ~z3 & ~z4
    blocked_pair = strict12 & strict34 & (pos1 != pos2) & (pos3 != pos4)
    clear_pair = (strict12 & (pos1 == pos2)) | (strict34 & (pos3 == pos4))

    # Edges incident to the event vertex touch the ray exactly at w:
    # clear, unless the edge runs back along the ray toward p (collinear
    # other endpoint strictly closer) — then it overlaps the segment and
    # the exact oracle must decide.
    overlap_a = w_is_b & z3 & (a2 < r2 * (1.0 + EPS))
    overlap_b = w_is_a & z4 & (b2 < r2 * (1.0 + EPS))
    w_incident = w_is_a | w_is_b
    clear_pair |= w_incident & ~(overlap_a | overlap_b)
    blocked_pair &= ~w_incident
    return blocked_pair, ~blocked_pair & ~clear_pair
