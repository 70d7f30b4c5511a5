"""The exact visibility predicate, evaluated over arrays.

:meth:`repro.geometry.polygon.Polygon.crosses_interior` decides one
(segment, obstacle) pair: reject on the MBR, gather every parameter
where the segment meets the boundary
(:func:`repro.geometry.segment.segment_intersection_params` per edge),
sort them, and test the midpoint of each sub-interval for strict
containment.  A ``numpy-kernel`` graph build decides every tangent
node pair with it, and the sweep hands it its tolerance-borderline
contacts: a python call per pair costs more than the whole array
pass.

:func:`crosses_interior_many` evaluates the *same* predicate for many
pairs at once, over flat arrays of (pair, edge) and (interval, edge)
rows.  Exactness is by construction, not by tolerance band:

* every comparison is the scalar code's own float64 expression in the
  same operation order (numpy's elementwise ``+ - * /`` are the IEEE
  operations python floats use; nothing is fused or reassociated);
* every length is :func:`math.hypot` itself — per obstacle edge when
  the geometry is packed, per segment and per parallel row here —
  because
  ``np.hypot`` differs from it in the last bit on 0.6 % of random
  inputs (``np.sqrt(x*x + y*y)`` on 16 %), and those lengths set the
  tolerances;
* the one branch arrays cannot take without dividing by zero — a
  segment no longer than ``EPS`` — sends its pairs to the scalar
  method;
* the one reject the scalar method lacks (:func:`_line_misses`) only
  drops pairs whose every midpoint lies outside the obstacle by far
  more than any tolerance.

The scalar method stays the reference: ``tests/visibility/
test_exact.py`` holds the two equal pair for pair, graphs on the
``naive`` and ``python-sweep`` backends never enter this module, and
batches too small to repay the array passes' fixed cost are looped
through it (:data:`_MIN_ARRAY_PAIRS`).
"""

from __future__ import annotations

from itertools import chain
from math import hypot
from typing import Iterable, Iterator, NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

from repro.geometry.constants import EPS
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model import Obstacle
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.kernel.packed import PackedScene


#: Pairs surviving the MBR reject below which a batch is looped through
#: ``Polygon.crosses_interior`` instead of evaluated over arrays.
#: Measured on the 2-core sandbox (pairs drawn from a 14-rectangle
#: street-grid scene, median of best-of-20 rounds): the array passes are
#: ~110 numpy calls, 135-145 us however few rows they carry, plus
#: 0.6-0.9 us per pair (16 pairs: 143 us, 128: 211, 2,048: 1,485); the
#: scalar method is ~10 us plus 8-9.5 us per pair (8 pairs: 74 us,
#: 16: 137, 24: 202).  The two meet at 16 pairs.
_MIN_ARRAY_PAIRS = 16

#: Pairs evaluated per array pass, and (segment, obstacle) cells whose
#: MBRs are compared per call (an insert's edges, a graph build's or a
#: delete repair's node pairs).  They bound the temporaries — ~40
#: float64 arrays of one row per (pair, edge), bool matrices of one
#: cell each — to a few MB whatever the batch: a build of a 1,000-node
#: graph tests ~10^5 pairs against hundreds of obstacles.  Measured on
#: 82,833 pairs of a 64-rectangle scene, passes of 1,024-4,096 pairs
#: run 0.80-0.95 us per pair against 1.22 in one pass (the temporaries
#: fall out of cache); unbounded passes also left ``churn-durable``'s
#: peak RSS 1.1 % higher.
_PASS_PAIRS = 2048
_PASS_CELLS = 1 << 20
#: MBR survivors a pass of :func:`_line_misses` takes (a dozen float64
#: rows each): its temporaries stay within a few MB too.
_PASS_ROWS = 1 << 15

#: Relative clearance past which a segment's line misses an obstacle's
#: MBR for sure (:func:`_line_misses`): ten times ``EPS``, the scalar
#: predicates' widest relative tolerance, and eight orders above
#: float64 rounding.
_LINE_MARGIN = 1e-8


class ObstacleArrays(NamedTuple):
    """Obstacle geometry as the arrays the predicate reads."""

    #: Per obstacle, its polygon (degenerate segments, small batches).
    polygons: Sequence[Polygon]
    #: ``(n_obstacles, 4)``: ``minx, miny, maxx, maxy``.
    mbr: np.ndarray
    #: Per obstacle, the first row and the length of its run of edges.
    first: np.ndarray
    count: np.ndarray
    #: ``(5, n_edges)``: ``ax, ay, bx, by`` of every boundary edge, runs
    #: in polygon order, and its ``math.hypot`` length.
    edges: np.ndarray


def pack_polygons(polygons: Iterable[Polygon]) -> ObstacleArrays:
    """``polygons`` as :class:`ObstacleArrays`, one obstacle each."""
    polygons = list(polygons)
    count = np.array([len(p.edges()) for p in polygons], dtype=np.int64)
    mbrs = [(p.mbr.minx, p.mbr.miny, p.mbr.maxx, p.mbr.maxy) for p in polygons]
    rows = [
        (a.x, a.y, b.x, b.y, hypot(b.x - a.x, b.y - a.y))
        for p in polygons
        for a, b in p.edges()
    ]
    return ObstacleArrays(
        polygons,
        np.array(mbrs, dtype=np.float64).reshape(-1, 4),
        count.cumsum() - count,
        count,
        np.ascontiguousarray(np.array(rows, dtype=np.float64).reshape(-1, 5).T),
    )


def _boxes_meet(mbr: np.ndarray, ax, ay, bx, by) -> np.ndarray:
    """``Rect.intersects`` of the MBRs ``mbr`` (rows ``minx, miny, maxx,
    maxy``) with the bounding boxes of the segments ``a-b``, broadcast:
    the first step of ``Polygon.crosses_interior`` and of
    ``is_visible``."""
    minx, miny, maxx, maxy = mbr.T
    return (
        (minx <= np.maximum(ax, bx))
        & (np.minimum(ax, bx) <= maxx)
        & (miny <= np.maximum(ay, by))
        & (np.minimum(ay, by) <= maxy)
    )


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs ``arange(start, start + count)``, concatenated."""
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + (starts - (ends - counts)).repeat(counts)


def blocks(cells: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive runs ``[lo, hi)`` of rows, each as long as its
    ``cells`` (per row, how many it costs) keep within ``budget`` — and
    at least one row long, whatever that row costs."""
    ends = cells.cumsum()
    lo = 0
    while lo < cells.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(base + budget, side="right")))
        yield lo, hi
        lo = hi


def crosses_interior_many(
    segs: np.ndarray,
    geom: ObstacleArrays,
    pair_seg: np.ndarray,
    pair_obs: np.ndarray,
    stats: "RuntimeStats | None" = None,
) -> np.ndarray:
    """Per pair ``k``, whether the open segment ``segs[pair_seg[k]]``
    (rows ``ax, ay, bx, by``) crosses the interior of obstacle
    ``pair_obs[k]`` of ``geom`` — what ``geom.polygons[pair_obs[k]]
    .crosses_interior(a, b)`` returns, for every pair, as a mask.

    Ticks ``exact_pairs`` / ``sweep.exact_pairs`` once, with the number
    of pairs that survived the MBR reject.
    """
    out = np.zeros(pair_seg.shape[0], dtype=bool)
    ends = segs[pair_seg]
    keep = _boxes_meet(geom.mbr[pair_obs], *ends.T).nonzero()[0]
    _tick(stats, keep.size)
    keep = np.concatenate(
        [keep[:0]]
        + [
            part[~_line_misses(ends[part], geom.mbr[pair_obs[part]])]
            for part in np.split(keep, range(_PASS_ROWS, keep.size, _PASS_ROWS))
        ]
    )
    if keep.size < _MIN_ARRAY_PAIRS:
        _loop_oracle(out, keep, ends[keep], geom.polygons, pair_obs[keep])
        return out
    for lo in range(0, keep.size, _PASS_PAIRS):
        part = keep[lo : lo + _PASS_PAIRS]
        out[part] = _evaluate(ends[part], geom, pair_obs[part])
    return out


def _line_misses(ends: np.ndarray, mbr: np.ndarray) -> np.ndarray:
    """Per row, whether the line through segment ``ends`` (``ax, ay,
    bx, by``) passes the box ``mbr`` (``minx, miny, maxx, maxy``) by a
    clear margin: every corner strictly on one side of it, farther than
    :data:`_LINE_MARGIN` of the coordinates' scale — far beyond any
    tolerance or rounding of the scalar method, whose every midpoint is
    then outside the obstacle, so ``crosses_interior`` is false.  A
    segment no longer than ``EPS`` (a point to the scalar method) never
    misses: products that underflow stay far below the margin."""
    ax, ay, bx, by = ends.T
    rx = bx - ax
    ry = by - ay
    r1 = np.abs(rx) + np.abs(ry)
    minx, miny, maxx, maxy = mbr.T
    dx0 = minx - ax
    dx1 = maxx - ax
    dy0 = miny - ay
    dy1 = maxy - ay
    # r x (corner - a) = rx * dy - ry * dx over the four corners: its
    # extremes are those of the two products, taken apart.
    with np.errstate(under="ignore"):
        ys = np.array([rx * dy0, rx * dy1])
        xs = np.array([ry * dx0, ry * dx1])
        margin = _LINE_MARGIN * r1 * (
            np.abs(ends).sum(axis=1)
            + np.maximum(np.abs(dx0), np.abs(dx1))
            + np.maximum(np.abs(dy0), np.abs(dy1))
        )
        return (r1 > 2.0 * EPS) & (
            (ys.min(axis=0) - xs.max(axis=0) > margin)
            | (ys.max(axis=0) - xs.min(axis=0) < -margin)
        )


def _tick(stats: "RuntimeStats | None", survived: int) -> None:
    if stats is not None:
        stats.exact_pairs += survived
    TRACER.count("sweep.exact_pairs", survived)


def _loop_oracle(
    out: np.ndarray,
    where: np.ndarray,
    ends: np.ndarray,
    polygons: Sequence[Polygon],
    obs: np.ndarray,
) -> None:
    """``out[where[j]]`` for segment ``ends[j]`` and obstacle
    ``obs[j]`` — the scalar method, one pair at a time."""
    for k, (ax, ay, bx, by), o in zip(where.tolist(), ends.tolist(), obs.tolist()):
        out[k] = polygons[o].crosses_interior(Point(ax, ay), Point(bx, by))


def _evaluate(ends: np.ndarray, geom: ObstacleArrays, obs: np.ndarray) -> np.ndarray:
    """Per pair ``j`` — segment ``ends[j]``, obstacle ``obs[j]``, past
    the MBR reject — the verdict: the scalar method's steps, each over
    the arrays of all pairs."""
    out = np.zeros(obs.size, dtype=bool)
    ax, ay, bx, by = ends.T
    rx = bx - ax
    ry = by - ay
    r_len = np.array(list(map(hypot, rx.tolist(), ry.tolist())))
    sound = r_len > EPS
    if not sound.all():
        # segment_intersection_params' ``r_len <= EPS`` branch: the
        # segment is a point to the predicate.  Not a case for arrays.
        point = (~sound).nonzero()[0]
        _loop_oracle(out, point, ends[point], geom.polygons, obs[point])
        sound = sound.nonzero()[0]
        out[sound] = _evaluate(ends[sound], geom, obs[sound])
        return out
    hit_pair, hit_t = _boundary_params(
        np.array([ax, ay, rx, ry, r_len, rx * rx + ry * ry]), geom, obs
    )

    # Pairs whose segment meets the boundary: parameters 0 and 1 plus
    # every hit, sorted within the pair; a gap wider than EPS yields the
    # midpoint ``a + tm * (b - a)``.  Pairs that never meet it are
    # decided by ``midpoint(a, b)`` alone.
    touched = np.zeros(obs.size, dtype=bool)
    touched[hit_pair] = True
    met = touched.nonzero()[0]
    free = (~touched).nonzero()[0]
    par_pair = np.concatenate([met, met, hit_pair])
    par_t = np.concatenate([np.zeros(met.size), np.ones(met.size), hit_t])
    order = np.lexsort((par_t, par_pair))
    par_pair = par_pair[order]
    par_t = par_t[order]
    gap = (
        (par_pair[1:] == par_pair[:-1]) & (par_t[1:] - par_t[:-1] > EPS)
    ).nonzero()[0]
    tm = (par_t[gap] + par_t[gap + 1]) / 2.0
    gap_pair = par_pair[gap]
    pt_pair = np.concatenate([free, gap_pair])
    inside = _strictly_inside(
        np.concatenate([(ax[free] + bx[free]) / 2.0, ax[gap_pair] + tm * rx[gap_pair]]),
        np.concatenate([(ay[free] + by[free]) / 2.0, ay[gap_pair] + tm * ry[gap_pair]]),
        geom,
        obs[pt_pair],
    )
    out[pt_pair[inside]] = True
    return out


def _boundary_params(
    seg_rows: np.ndarray, geom: ObstacleArrays, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``segment_intersection_params`` of every pair's segment
    (``seg_rows``: ``ax, ay, rx, ry, r_len, r_sq`` per pair) with every
    edge of its obstacle: the parameters found, as ``(pair, t)``."""
    counts = geom.count[obs]
    row_pair = np.arange(obs.size).repeat(counts)
    pax, pay, rx, ry, r_len, r_sq = seg_rows[:, row_pair]
    cx, cy, dx, dy, s_len = geom.edges[:, ranges(geom.first[obs], counts)]
    sx = dx - cx
    sy = dy - cy
    denom = rx * sy - ry * sx
    qpx = cx - pax
    qpy = cy - pay
    side = qpx * ry - qpy * rx
    crossing = np.abs(denom) > EPS * (r_len * s_len + 1.0)
    # Lines cross at a single point; it must lie on both segments.
    safe = np.where(crossing, denom, 1.0)
    t = (qpx * sy - qpy * sx) / safe
    u = side / safe
    t_tol = EPS * (1.0 + 1.0 / (r_len + EPS))
    u_tol = EPS * (1.0 + 1.0 / (s_len + EPS))
    point_hit = (
        crossing
        & (-t_tol <= t)
        & (t <= 1.0 + t_tol)
        & (-u_tol <= u)
        & (u <= 1.0 + u_tol)
    ).nonzero()[0]
    # Parallel rows: collinear unless the edge's start lies off the
    # segment's line.
    par = (~crossing).nonzero()[0]
    q_len = np.array(list(map(hypot, qpx[par].tolist(), qpy[par].tolist())))
    col = par[~(np.abs(side[par]) > EPS * (q_len * r_len[par] + 1.0))]
    # Collinear: project the edge's endpoints onto the segment.
    c_rx = rx[col]
    c_ry = ry[col]
    c_rsq = r_sq[col]
    t0 = (qpx[col] * c_rx + qpy[col] * c_ry) / c_rsq
    t1 = ((dx[col] - pax[col]) * c_rx + (dy[col] - pay[col]) * c_ry) / c_rsq
    lo = np.maximum(np.minimum(t0, t1), 0.0)
    hi = np.minimum(np.maximum(t0, t1), 1.0)
    overlap = ~(lo > hi + EPS)
    stretch = overlap & ~(hi - lo <= EPS)
    return (
        np.concatenate(
            [row_pair[point_hit], row_pair[col[overlap]], row_pair[col[stretch]]]
        ),
        np.concatenate(
            [
                np.minimum(1.0, np.maximum(0.0, t[point_hit])),
                lo[overlap],
                hi[stretch],
            ]
        ),
    )


def _strictly_inside(
    px: np.ndarray, py: np.ndarray, geom: ObstacleArrays, obs: np.ndarray
) -> np.ndarray:
    """``Polygon.contains`` of point ``(px[j], py[j])`` in obstacle
    ``obs[j]``, over (point, edge) rows."""
    minx, miny, maxx, maxy = geom.mbr[obs].T
    out = (minx <= px) & (px <= maxx) & (miny <= py) & (py <= maxy)
    held = out.nonzero()[0]
    counts = geom.count[obs[held]]
    row_pt = np.arange(held.size).repeat(counts)
    px, py = np.array([px, py])[:, held[row_pt]]
    ex, ey, fx, fy, e_len = geom.edges[:, ranges(geom.first[obs[held]], counts)]
    abx = fx - ex
    aby = fy - ey
    acx = px - ex
    acy = py - ey
    # on_segment: ccw's collinear band, then the edge's padded box.
    area2 = abx * acy - aby * acx
    tol_sq = (EPS * EPS) * (abx * abx + aby * aby) * (acx * acx + acy * acy)
    tol = EPS * (e_len + 1.0)
    on_edge = (
        (area2 * area2 <= tol_sq)
        & (np.minimum(ex, fx) - tol <= px)
        & (px <= np.maximum(ex, fx) + tol)
        & (np.minimum(ey, fy) - tol <= py)
        & (py <= np.maximum(ey, fy) + tol)
    )
    # _crossing_number_odd: half-open rule, crossing strictly right.
    straddles = (ey > py) != (fy > py)
    x_cross = ex + (py - ey) * abx / np.where(straddles, aby, 1.0)
    odd = np.bincount(row_pt[straddles & (x_cross > px)], minlength=held.size) & 1
    out[held] = odd.astype(bool)
    out[held[row_pt[on_edge]]] = False
    return out


def stack_arrays(
    parts: Sequence[ObstacleArrays],
) -> tuple[ObstacleArrays, np.ndarray, np.ndarray]:
    """``parts`` laid end to end as one :class:`ObstacleArrays`, and per
    part the row of its first obstacle there and how many it has."""
    sizes = np.array([part.count.shape[0] for part in parts])
    first = sizes.cumsum() - sizes
    if len(parts) == 1:
        return parts[0], first, sizes
    edges = np.array([part.edges.shape[1] for part in parts])
    stacked = ObstacleArrays(
        list(chain.from_iterable(part.polygons for part in parts)),
        np.concatenate([part.mbr for part in parts]),
        np.concatenate([part.first for part in parts])
        + (edges.cumsum() - edges).repeat(sizes),
        np.concatenate([part.count for part in parts]),
        np.concatenate([part.edges for part in parts], axis=1),
    )
    return stacked, first, sizes


def hidden_many(
    tails: "tuple[np.ndarray, Sequence[Point]]",
    a: np.ndarray,
    heads: "tuple[np.ndarray, Sequence[Point]]",
    b: np.ndarray,
    scenes: "Sequence[PackedScene]",
    scene: np.ndarray,
    only: "Sequence[Sequence[Obstacle]]" = (),
    stats: "RuntimeStats | None" = None,
    clear: "np.ndarray | None" = None,
) -> np.ndarray:
    """Per segment ``k`` — from point ``a[k]`` of ``tails`` to point
    ``b[k]`` of ``heads``, each a ``(coords (n, 2), points)`` pair like
    :meth:`PackedScene.event_arrays`' — whether it crosses the interior
    of some obstacle: of ``only[k]`` for the first ``len(only)``
    segments, of the whole packed scene ``scenes[scene[k]]`` (whose
    obstacles ``only[k]`` are) for the rest.  ``not is_visible(p, w,
    those obstacles)``, as a mask.  With no ``only``, ``clear``
    (``(2, n)``) names per segment up to two rows of its scene's
    :meth:`PackedScene.exact_arrays` (-1: none) it is known not to
    cross, which the array passes skip.

    Ticks ``exact_pairs`` / ``sweep.exact_pairs`` once, like
    :func:`crosses_interior_many`.
    """
    if a.size < _MIN_ARRAY_PAIRS:
        # So few segments that listing their pairs in python costs less
        # than setting the arrays up — and they may well not have
        # enough pairs for the arrays at all.
        segments = [
            (tails[1][s], heads[1][t]) for s, t in zip(a.tolist(), b.tolist())
        ]
        boxes = [
            Rect(min(p.x, w.x), min(p.y, w.y), max(p.x, w.x), max(p.y, w.y))
            for p, w in segments
        ]
        tested = [
            [obs for obs in some if obs.mbr.intersects(box)]
            for some, box in zip(only, boxes)
        ] + [
            scenes[k].mbr_meeting(box)
            for k, box in zip(scene[len(only) :].tolist(), boxes[len(only) :])
        ]
        survived = sum(map(len, tested))
        if survived < _MIN_ARRAY_PAIRS:
            _tick(stats, survived)
            return np.array(
                [
                    any(obs.polygon.crosses_interior(p, w) for obs in obstacles)
                    for obstacles, (p, w) in zip(tested, segments)
                ],
                dtype=bool,
            )
    ends = np.hstack([tails[0][a], heads[0][b]])
    packed = [one.exact_arrays() for one in scenes]
    geom, first, sizes = stack_arrays([arrays for arrays, __ in packed])
    # The (segment, obstacle) pairs is_visible goes on to test.  One
    # scene: those the MBR reject leaves, over the segments x obstacles
    # grid.  Many: every (segment, obstacle of its scene) pair — no grid
    # spans scenes, and the reject is crosses_interior_many's first step.
    rest = scene[len(only) :]
    if len(scenes) == 1:
        pair_seg, pair_obs = _boxes_meet(
            geom.mbr, *ends[len(only) :].T[:, :, None]
        ).nonzero()
    else:
        pair_seg = np.arange(rest.size).repeat(sizes[rest])
        pair_obs = ranges(first[rest], sizes[rest])
    if only:
        band_seg = np.arange(len(only)).repeat([len(some) for some in only])
        band_obs = [
            first[k] + packed[k][1][obs.oid]
            for k, some in zip(scene.tolist(), only)
            for obs in some
        ]
        pair_seg = np.concatenate([band_seg, pair_seg + len(only)])
        pair_obs = np.concatenate([np.array(band_obs, dtype=np.int64), pair_obs])
    if clear is not None:
        own = first[scene[pair_seg]]
        known = clear[:, pair_seg]
        test = ((known < 0) | (pair_obs != own + known)).all(axis=0).nonzero()[0]
        pair_seg = pair_seg[test]
        pair_obs = pair_obs[test]
    hidden = np.zeros(a.size, dtype=bool)
    hidden[pair_seg[crosses_interior_many(ends, geom, pair_seg, pair_obs, stats)]] = True
    return hidden

