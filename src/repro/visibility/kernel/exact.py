"""The exact visibility predicate, evaluated over arrays.

:meth:`repro.geometry.polygon.Polygon.crosses_interior` decides one
(segment, obstacle) pair: after the MBR reject, a convex obstacle by
orientation signs (:meth:`~repro.geometry.polygon.Polygon.sign_verdict`:
clear when both ends lie on the closed outer side of one edge line,
crossing when the chord's midpoint lies inside every edge line by
:data:`~repro.geometry.polygon.SIGN_MARGIN`), and only the pairs
between — the contact band — and non-convex obstacles by the tolerance
method (``Polygon._crosses_by_params``).  A ``numpy-kernel`` graph
build decides every tangent node pair with it, and the sweep hands it
its tolerance-borderline contacts: a python call per pair costs more
than the whole array pass.

:func:`crosses_interior_many` evaluates the *same* predicate for many
pairs at once: a line-miss reject the scalar method lacks
(:func:`_line_misses`, sound by margin), then the sign filter over flat
(pair, edge) rows — the scalar filter's float64 expressions in the same
operation order, no division by zero, no square root — and the band (5
of 126,372 pairs past the line-miss reject on ``paper-cold`` seed 3)
looped through the scalar method.  Each pair has exactly one decider:
``tests/visibility/test_exact.py`` holds both filters equal to the
tolerance method pair for pair, graphs on the ``naive`` and
``python-sweep`` backends never enter this module, and batches too
small to repay the array pass's fixed cost are looped through the
scalar method (:data:`_MIN_ARRAY_PAIRS`).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

from repro.geometry.constants import EPS
from repro.geometry.point import Point
from repro.geometry.polygon import SIGN_MARGIN, Polygon
from repro.geometry.rect import Rect
from repro.index.mbrs import ranges
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model import Obstacle
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.kernel.packed import PackedScene


#: Pairs surviving the rejects below which a batch is looped through
#: the scalar method instead of evaluated over arrays.  Measured on a
#: 2-core box (pairs past both rejects, drawn between the vertices of
#: a 14-rectangle street-grid scene; best of 20 rounds): the rejects
#: and the sign pass cost ~51 us however few rows they carry, plus
#: 0.2 us per pair (16 pairs: 55 us, 40: 60, 2,048: 660); the rejects
#: and the scalar loop ~24 us plus 1.2 us per pair (16 pairs: 43 us,
#: 24: 54, 28: 62, 40: 71).  The two meet between 24 and 28 pairs.
_MIN_ARRAY_PAIRS = 26

#: Pairs evaluated per array pass, and (segment, obstacle) cells whose
#: MBRs are compared per call (an insert's edges, a graph build's or a
#: delete repair's node pairs).  They bound the temporaries — ~25
#: float64 arrays of one row per (pair, edge), bool matrices of one
#: cell each — to a few MB whatever the batch: a build of a 1,000-node
#: graph tests ~10^5 pairs against hundreds of obstacles, and
#: unbounded passes fall out of cache.
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

    #: Per obstacle, its polygon (the band and small batches).
    polygons: Sequence[Polygon]
    #: ``(n_obstacles, 4)``: ``minx, miny, maxx, maxy``.
    mbr: np.ndarray
    #: Per obstacle, the first row and the length of its run of edges.
    first: np.ndarray
    count: np.ndarray
    #: Per obstacle, whether it turns right nowhere: the sign filter's
    #: domain, the scalar filter's own test.
    convex: np.ndarray
    #: ``(5, n_edges)``: ``fx, fy, ex, ey, |ex| + |ey|`` — start, vector
    #: and L1 length of every boundary edge, runs in polygon order.
    edges: np.ndarray


def pack_polygons(polygons: Iterable[Polygon]) -> ObstacleArrays:
    """``polygons`` as :class:`ObstacleArrays`, one obstacle each."""
    polygons = list(polygons)
    count = np.array([len(p.edges()) for p in polygons], dtype=np.int64)
    first = count.cumsum() - count
    mbrs = [(p.mbr.minx, p.mbr.miny, p.mbr.maxx, p.mbr.maxy) for p in polygons]
    rows = [(a.x, a.y, b.x - a.x, b.y - a.y) for p in polygons for a, b in p.edges()]
    fx, fy, ex, ey = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    # The turn into each edge from its predecessor in the run, as
    # _sign_rows takes it: left, or straight on.
    before = np.arange(-1, ex.size - 1)
    before[first] = first + count - 1
    turn = ex[before] * ey - ey[before] * ex
    on = ex[before] * ex + ey[before] * ey
    convex = (turn > 0.0) | ((turn == 0.0) & (on >= 0.0))
    return ObstacleArrays(
        polygons,
        np.array(mbrs, dtype=np.float64).reshape(-1, 4),
        first,
        count,
        np.logical_and.reduceat(convex, first) if ex.size else count > 0,
        np.array([fx, fy, ex, ey, np.abs(ex) + np.abs(ey)]),
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

    Ticks ``exact_pairs`` / ``sweep.exact_pairs`` once with the number
    of pairs that survived the MBR reject, and ``exact_band_pairs`` /
    ``sweep.exact_band`` once with the number the tolerance method
    decided.
    """
    out = np.zeros(pair_seg.shape[0], dtype=bool)
    ends = segs[pair_seg]
    keep = _boxes_meet(geom.mbr[pair_obs], *ends.T).nonzero()[0]
    survived = keep.size
    keep = np.concatenate(
        [keep[:0]]
        + [
            part[~_line_misses(ends[part], geom.mbr[pair_obs[part]])]
            for part in np.split(keep, range(_PASS_ROWS, keep.size, _PASS_ROWS))
        ]
    )
    if keep.size >= _MIN_ARRAY_PAIRS:
        undecided = [keep[:0]]
        for lo in range(0, keep.size, _PASS_PAIRS):
            part = keep[lo : lo + _PASS_PAIRS]
            crosses, decided = _signs(ends[part], geom, pair_obs[part])
            out[part] = crosses
            undecided.append(part[~decided])
        keep = np.concatenate(undecided)
    band_pairs = 0
    for k, (ax, ay, bx, by), o in zip(
        keep.tolist(), ends[keep].tolist(), pair_obs[keep].tolist()
    ):
        out[k], band = _scalar(geom.polygons[o], Point(ax, ay), Point(bx, by))
        band_pairs += band
    _tick(stats, survived, band_pairs)
    return out


def _signs(
    ends: np.ndarray, geom: ObstacleArrays, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair ``j`` — segment ``ends[j]``, obstacle ``obs[j]``, past
    the rejects — :meth:`Polygon.sign_verdict` over (pair, edge) rows,
    the same float64 expressions in the same order: whether the pair
    crosses, and whether the signs decided it at all."""
    counts = geom.count[obs]
    run = counts.cumsum() - counts
    row_pair = np.arange(obs.size).repeat(counts)
    fx, fy, ex, ey, e1 = geom.edges[:, ranges(geom.first[obs], counts)]
    ax, ay, bx, by = ends.T
    rax, ray, rbx, rby = ends[row_pair].T
    sa = ex * (ray - fy) - ey * (rax - fx)
    sb = ex * (rby - fy) - ey * (rbx - fx)
    clear = np.logical_or.reduceat((sa <= 0.0) & (sb <= 0.0), run)
    # Where ab crosses an edge line: the chord's entry (a outside) or
    # exit (b outside) parameter.  Opposite signs: sa - sb is not 0.
    enter = sa < 0.0
    leave = sb < 0.0
    cut = enter != leave
    t = sa / np.where(cut, sa - sb, 1.0)
    lo = np.maximum.reduceat(np.where(cut & enter, t, 0.0), run)
    hi = np.minimum.reduceat(np.where(cut & leave, t, 1.0), run)
    tm = (lo + hi) / 2.0
    rx = bx - ax
    ry = by - ay
    dx = (ax + tm * rx)[row_pair] - fx
    dy = (ay + tm * ry)[row_pair] - fy
    r1 = (np.abs(rx) + np.abs(ry))[row_pair]
    inside = ex * dy - ey * dx > SIGN_MARGIN * e1 * (
        np.abs(dx) + np.abs(dy) + r1 + e1 + 1.0
    )
    crosses = np.logical_and.reduceat(inside, run) & ~clear
    return crosses, geom.convex[obs] & (clear | crosses)


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


def _scalar(polygon: Polygon, a: Point, b: Point) -> tuple[bool, int]:
    """``polygon.crosses_interior(a, b)`` past the MBR reject, and 1 if
    the tolerance method decided it (a band pair), else 0."""
    verdict = polygon.sign_verdict(a, b)
    if verdict is None:
        return polygon._crosses_by_params(a, b), 1
    return verdict, 0


def _tick(stats: "RuntimeStats | None", survived: int, band: int) -> None:
    if stats is not None:
        stats.exact_pairs += survived
        stats.exact_band_pairs += band
    TRACER.count("sweep.exact_pairs", survived)
    TRACER.count("sweep.exact_band", band)


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
        np.concatenate([part.convex for part in parts]),
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

    Ticks ``exact_pairs`` and ``exact_band_pairs`` once each, like
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
            hidden = np.zeros(a.size, dtype=bool)
            band_pairs = 0
            for k, (obstacles, (p, w)) in enumerate(zip(tested, segments)):
                for obs in obstacles:
                    hidden[k], band = _scalar(obs.polygon, p, w)
                    band_pairs += band
                    if hidden[k]:
                        break
            _tick(stats, survived, band_pairs)
            return hidden
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

