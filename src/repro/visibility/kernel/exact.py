"""The exact visibility predicate, evaluated over arrays.

:meth:`repro.geometry.polygon.Polygon.crosses_interior` decides one
(segment, obstacle) pair: after the MBR reject,
:meth:`~repro.geometry.polygon.Polygon.sign_verdict` decides a convex
obstacle by the separation rule (clear when both ends lie on the closed
outer side of one edge line, or every vertex on one closed side of the
segment's line), each sign the float determinant's where Shewchuk's
bound certifies it and a fraction's otherwise, and a non-convex one by
the exact path (:meth:`~repro.geometry.polygon.Polygon.exact_verdict`).
The ``numpy-kernel`` backend decides every pair with it — a connect's
tangent node pairs (:func:`kernel_visible_pairs`), an insert's and a
delete's, and every pair ``(p, v)`` that anchors a point
(:func:`kernel_visible_ids`): a python call per pair costs more than
the whole array pass.

:func:`crosses_interior_many` evaluates the *same* predicate for many
pairs at once: a line-miss reject the scalar method lacks
(:func:`_line_misses`: every MBR corner on one side of the segment's
line, by certified signs), then the separation rule over flat (pair,
edge) rows with certified float signs only — the scalar method's
float64 expressions and certificates, no division, no square root —
and the pairs those signs leave undecided go to the scalar method.
``tests/visibility/test_exact.py`` holds the array pass and the whole
predicate equal to an all-fraction reference, graphs on the ``naive``
backend never enter this module, and batches too small to repay the
array pass's fixed cost are looped through the scalar method
(:data:`_MIN_ARRAY_PAIRS`).
"""

from __future__ import annotations

from itertools import accumulate, chain, pairwise
from typing import Iterable, NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.segment import ORIENT_ERR, UNDERFLOW, orient_xy
from repro.geometry.rect import Rect
from repro.index.mbrs import blocks, ranges
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model import Obstacle
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.graph import VisibilityGraph
    from repro.visibility.kernel.packed import PackedScene
    from repro.visibility.tangent import Pairs


#: Pairs surviving the rejects below which a batch is looped through
#: the scalar method instead of evaluated over arrays.  Measured on a
#: 2-core box (pairs past both rejects, drawn between the vertices of
#: a 14-rectangle street-grid scene; best of 20 rounds): the rejects
#: and the sign pass cost ~51 us however few rows they carry, plus
#: 0.2 us per pair (16 pairs: 55 us, 40: 60, 2,048: 660); the rejects
#: and the scalar loop ~24 us plus 1.2 us per pair (16 pairs: 43 us,
#: 24: 54, 28: 62, 40: 71).  The two meet between 24 and 28 pairs.
_MIN_ARRAY_PAIRS = 26

#: Pairs evaluated per array pass.  It bounds the temporaries — ~25
#: float64 arrays of one row per (pair, edge) — to a few MB whatever
#: the batch: a build of a 1,000-node graph tests ~10^5 pairs against
#: hundreds of obstacles, and unbounded passes fall out of cache.
_PASS_PAIRS = 2048
#: MBR survivors a pass of :func:`_line_misses` takes (a dozen float64
#: rows each): its temporaries stay within a few MB too.
_PASS_ROWS = 1 << 15


class ObstacleArrays(NamedTuple):
    """Obstacle geometry as the arrays the predicate reads."""

    #: Per obstacle, its polygon (the exact path and small batches).
    polygons: Sequence[Polygon]
    #: ``(n_obstacles, 4)``: ``minx, miny, maxx, maxy``.
    mbr: np.ndarray
    #: Per obstacle, the first row and the length of its run of edges.
    first: np.ndarray
    count: np.ndarray
    #: Per obstacle, whether it is convex: the sign filter's domain,
    #: :meth:`Polygon.is_convex`.
    convex: np.ndarray
    #: ``(4, n_edges)``: ``fx, fy, ex, ey`` — start and vector of every
    #: boundary edge, runs in polygon order.
    edges: np.ndarray


def pack_polygons(polygons: Iterable[Polygon]) -> ObstacleArrays:
    """``polygons`` as :class:`ObstacleArrays`, one obstacle each."""
    polygons = list(polygons)
    count = np.array([len(p.edges()) for p in polygons], dtype=np.int64)
    mbrs = [(p.mbr.minx, p.mbr.miny, p.mbr.maxx, p.mbr.maxy) for p in polygons]
    rows = [(a.x, a.y, b.x - a.x, b.y - a.y) for p in polygons for a, b in p.edges()]
    return ObstacleArrays(
        polygons,
        np.array(mbrs, dtype=np.float64).reshape(-1, 4),
        count.cumsum() - count,
        count,
        np.array([p.is_convex() for p in polygons], dtype=bool),
        np.array(rows, dtype=np.float64).reshape(-1, 4).T.copy(),
    )


def _boxes_meet(mbr: np.ndarray, ax, ay, bx, by) -> np.ndarray:
    """``Rect.intersects`` of the MBRs ``mbr`` (its four rows ``minx,
    miny, maxx, maxy``) with the bounding boxes of the segments ``a-b``,
    broadcast: the first step of ``Polygon.crosses_interior`` and of
    ``is_visible``."""
    minx, miny, maxx, maxy = mbr
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
    *,
    boxed: bool = False,
) -> np.ndarray:
    """Per pair ``k``, whether the open segment ``segs[pair_seg[k]]``
    (rows ``ax, ay, bx, by``) crosses the interior of obstacle
    ``pair_obs[k]`` of ``geom`` — what ``geom.polygons[pair_obs[k]]
    .crosses_interior(a, b)`` returns, for every pair, as a mask.
    ``boxed``: the caller passes only pairs whose boxes meet, and the
    MBR reject is skipped.

    Ticks ``exact_pairs`` / ``sweep.exact_pairs`` once with the number
    of pairs that survived the MBR reject, and ``exact_band_pairs`` /
    ``sweep.exact_band`` once with the number decided in exact
    arithmetic: the pairs the array pass's certified signs leave
    undecided, and every pair of a non-convex obstacle (a batch looped
    through the scalar method counts the latter only).
    """
    out = np.zeros(pair_seg.shape[0], dtype=bool)
    # Per pair its segment's and its obstacle's coordinates, one array
    # per coordinate: a pass reads each as a contiguous row, and no
    # temporary spans several rows (a few rows of a many-scene call
    # pass malloc's mmap threshold, and every call faulted them in).
    ends = [row.take(pair_seg) for row in segs.T]
    boxes = [row.take(pair_obs) for row in geom.mbr.T]
    if boxed and pair_seg.size <= _PASS_ROWS:
        # Every pair, in one pass: no positions to gather by.
        survived = pair_seg.size
        keep = (~_line_misses(ends, boxes)).nonzero()[0]
    else:
        keep = (
            np.arange(pair_seg.size)
            if boxed
            else _boxes_meet(boxes, *ends).nonzero()[0]
        )
        survived = keep.size
        keep = np.concatenate(
            [
                part[~_line_misses(_at(ends, part), _at(boxes, part))]
                for part in (
                    keep[lo : lo + _PASS_ROWS]
                    for lo in range(0, keep.size, _PASS_ROWS)
                )
            ]
            or [keep]
        )
    filtered = keep.size >= _MIN_ARRAY_PAIRS
    if filtered:
        undecided = [keep[:0]]
        for lo in range(0, keep.size, _PASS_PAIRS):
            part = keep[lo : lo + _PASS_PAIRS]
            crosses, decided = _signs(_at(ends, part), geom, pair_obs[part])
            out[part] = crosses
            undecided.append(part[~decided])
        keep = np.concatenate(undecided)
    band_pairs = keep.size if filtered else int((~geom.convex[pair_obs[keep]]).sum())
    if keep.size:
        coords = zip(*(row.tolist() for row in _at(ends, keep)))
        for k, (ax, ay, bx, by), o in zip(
            keep.tolist(), coords, pair_obs[keep].tolist()
        ):
            out[k] = geom.polygons[o].sign_verdict(Point(ax, ay), Point(bx, by))
    _tick(stats, survived, band_pairs)
    return out


def _at(rows: "Sequence[np.ndarray]", index: np.ndarray) -> list[np.ndarray]:
    """``index`` taken from each of ``rows``."""
    return [row.take(index) for row in rows]


def _certified(p, q, s, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.geometry.segment.certified_sign` over arrays: per
    row whether ``p * q - s * t`` is certainly positive, certainly
    negative, and whether its sign is certified at all.  A product may
    underflow: :data:`~repro.geometry.segment.UNDERFLOW` covers it."""
    with np.errstate(under="ignore"):
        left = p * q
        right = s * t
        det = left - right
        bound = ORIENT_ERR * (np.abs(left) + np.abs(right)) + UNDERFLOW
    pos = det > bound
    neg = det < -bound
    zero = ((p == 0.0) | (q == 0.0)) & ((s == 0.0) | (t == 0.0))
    return pos, neg, pos | neg | zero


def orient_many(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """:func:`~repro.geometry.segment.orient_xy` over arrays: per row
    the exact orientation (1, -1 or 0) of ``(a, b, c)`` — the float
    sign where :func:`_certified` certifies it, the scalar exact one
    for the rest."""
    pos, neg, sure = _certified(ax - cx, by - cy, ay - cy, bx - cx)
    sign = pos.astype(np.int8) - neg
    for k in (~sure).nonzero()[0].tolist():
        sign[k] = orient_xy(*(row[k].item() for row in (ax, ay, bx, by, cx, cy)))
    return sign


def _signs(
    ends: "Sequence[np.ndarray]", geom: ObstacleArrays, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair ``j`` — segment ``j`` of ``ends`` (rows ``ax, ay, bx,
    by``), obstacle ``obs[j]``, past the rejects —
    :meth:`Polygon.sign_verdict`'s separation rule over (pair, edge)
    rows, the same float64 expressions and certificates, with no
    fraction: whether the pair crosses, and whether the certified signs
    decided it at all (never for a non-convex obstacle)."""
    counts = geom.count[obs]
    run = counts.cumsum() - counts
    row_pair = np.arange(obs.size).repeat(counts)
    fx, fy, ex, ey = _at(geom.edges, ranges(geom.first[obs], counts))
    ax, ay, bx, by = ends
    rax, ray, rbx, rby = _at(ends, row_pair)
    # orient(edge start, edge end, a) and (..., b): positive inside.
    a_in, __, a_sure = _certified(ex, ray - fy, ey, rax - fx)
    b_in, __, b_sure = _certified(ex, rby - fy, ey, rbx - fx)
    clear = np.logical_or.reduceat(a_sure & b_sure & ~(a_in | b_in), run)
    blocked = np.logical_and.reduceat(a_in | b_in, run)
    # orient(a, b, vertex): every vertex starts one edge.
    rx = (bx - ax).take(row_pair)
    ry = (by - ay).take(row_pair)
    left, right, sure = _certified(rx, fy - ray, ry, fx - rax)
    apart = np.logical_and.reduceat(sure & ~left, run) | np.logical_and.reduceat(
        sure & ~right, run
    )
    crosses = (
        blocked
        & np.logical_or.reduceat(left, run)
        & np.logical_or.reduceat(right, run)
    )
    return crosses, geom.convex[obs] & (clear | apart | crosses)


def _line_misses(
    ends: "Sequence[np.ndarray]", mbr: "Sequence[np.ndarray]"
) -> np.ndarray:
    """Per column, whether every corner of the box ``mbr`` (rows ``minx,
    miny, maxx, maxy``) lies strictly on one side of the line through
    segment ``ends`` (rows ``ax, ay, bx, by``), by certified signs: the
    obstacle then lies on one closed side too, so ``crosses_interior``
    is false.  A zero-length segment never misses."""
    ax, ay, bx, by = ends
    rx = bx - ax
    ry = by - ay
    minx, miny, maxx, maxy = mbr
    # orient(a, b, corner) = rx * (cy - ay) - ry * (cx - ax) over the
    # four corners: its extremes are those of the two products, taken
    # apart, and one bound holds for all four.
    with np.errstate(under="ignore"):
        ys = np.array([rx * (miny - ay), rx * (maxy - ay)])
        xs = np.array([ry * (minx - ax), ry * (maxx - ax)])
        bound = (
            ORIENT_ERR * (np.abs(ys).max(axis=0) + np.abs(xs).max(axis=0))
            + UNDERFLOW
        )
        return (ys.min(axis=0) - xs.max(axis=0) > bound) | (
            ys.max(axis=0) - xs.min(axis=0) < -bound
        )


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
    packed = [one.exact_arrays() for one in scenes]
    geom, first, sizes = stack_arrays([arrays for arrays, __ in packed])
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
                    band_pairs += not obs.polygon.is_convex()
                    if obs.polygon.sign_verdict(p, w):
                        hidden[k] = True
                        break
            _tick(stats, survived, band_pairs)
            return hidden
    ends = np.hstack([tails[0][a], heads[0][b]])
    # The (segment, obstacle) pairs is_visible goes on to test.  A few
    # segments: those the python MBR reject above left.  One scene:
    # those the MBR reject leaves, over the segments x obstacles grid.
    # Many: every (segment, obstacle of its scene) pair — no grid spans
    # scenes, and the reject is crosses_interior_many's first step.
    rest = scene[len(only) :]
    boxed = not only
    if a.size < _MIN_ARRAY_PAIRS:
        pair_seg = np.arange(a.size).repeat(list(map(len, tested)))
        pair_obs = np.array(
            [
                first[k] + packed[k][1][obs.oid]
                for k, some in zip(scene.tolist(), tested)
                for obs in some
            ],
            dtype=np.int64,
        )
        boxed, only = True, ()
    elif len(scenes) == 1:
        pair_seg, pair_obs = _boxes_meet(
            geom.mbr.T, *ends[len(only) :].T[:, :, None]
        ).nonzero()
    else:
        pair_seg = np.arange(rest.size).repeat(sizes[rest])
        pair_obs = ranges(first[rest], sizes[rest])
        boxed = False
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
    crosses = crosses_interior_many(ends, geom, pair_seg, pair_obs, stats, boxed=boxed)
    hidden[pair_seg[crosses]] = True
    return hidden


#: (Segment, obstacle) cells one :func:`hidden_many` call is handed by
#: :func:`kernel_visible_pairs` and :func:`kernel_visible_ids`:
#: building a 1,000-vertex street-grid graph took 3.0 s at 64 MB peak
#: RSS, 3.2 s at 75 MB with four times this; a paper-scale build (57
#: nodes, ~7,000 cells) or anchor call (at most 201 nodes) is one call
#: either way.
_PAIR_CELLS = 1 << 18


def _lay_out(
    packs: "Sequence[PackedScene]",
) -> tuple[np.ndarray, Sequence[Point], list[int]]:
    """The node tables of ``packs`` laid end to end: every node's ``x,
    y`` as a ``(rows, 2)`` array and its point, and per scene its first
    row — a node's row is its id plus that."""
    if len(packs) == 1:
        xy, points = packs[0].node_arrays()
        return xy.T, points, [0]
    parts = [packed.node_arrays() for packed in packs]
    first = list(accumulate((xy.shape[1] for xy, __ in parts), initial=0))
    return (
        np.concatenate([xy for xy, __ in parts], axis=1).T,
        list(chain.from_iterable(points for __, points in parts)),
        first[:-1],
    )


def _hidden_in_blocks(
    tails: "tuple[np.ndarray, Sequence[Point]]",
    a: np.ndarray,
    heads: "tuple[np.ndarray, Sequence[Point]]",
    b: np.ndarray,
    packs: "Sequence[PackedScene]",
    scene: np.ndarray,
    only: "Sequence[Obstacle]",
    stats: "RuntimeStats | None",
    clear: "np.ndarray | None" = None,
) -> np.ndarray:
    """:func:`hidden_many` over segments ``a[k] -> b[k]`` of scene
    ``scene[k]`` (against ``only``, if given), as many to a call as
    :data:`_PAIR_CELLS` (segment, obstacle) cells hold."""
    obstacles = [len(only) or packed.obstacle_count for packed in packs]
    spans = (
        [(0, a.size)]
        if max(obstacles, default=0) * a.size <= _PAIR_CELLS
        else blocks(np.array(obstacles)[scene], _PAIR_CELLS)
    )
    hidden = np.zeros(a.size, dtype=bool)
    for lo, hi in spans:
        hidden[lo:hi] = hidden_many(
            tails,
            a[lo:hi],
            heads,
            b[lo:hi],
            packs,
            scene[lo:hi],
            [only] * (hi - lo) if only else (),
            stats,
            None if clear is None else clear[:, lo:hi],
        )
    return hidden


def kernel_visible_pairs(
    scenes: "Sequence[tuple[Pairs, VisibilityGraph]]",
    stats: "RuntimeStats | None" = None,
    only: "Sequence[Obstacle]" = (),
) -> list[np.ndarray]:
    """Per scene ``(pairs, graph)``, whether ``u[k]`` and ``v[k]`` see
    each other past its obstacles (``only`` those, if given: obstacles
    of a one-graph call): :func:`hidden_many`, skipping the obstacles a
    pair is known to leave clear, over the pairs of every scene laid
    end to end."""
    packs = [graph.packed_scene() for __, graph in scenes]
    xy, points, first = _lay_out(packs)
    sizes = [pairs.u.size for pairs, __ in scenes]
    a = np.concatenate([pairs.u + row for (pairs, __), row in zip(scenes, first)])
    b = np.concatenate([pairs.v + row for (pairs, __), row in zip(scenes, first)])
    ends = (xy, points)
    hidden = _hidden_in_blocks(
        ends,
        a,
        ends,
        b,
        packs,
        np.arange(len(scenes)).repeat(sizes),
        only,
        stats,
        None if only else np.concatenate([pairs.clear for pairs, __ in scenes], axis=1),
    )
    return np.split(~hidden, np.cumsum(sizes)[:-1])


def kernel_visible_ids(
    scenes: "Sequence[tuple[Sequence[Point], VisibilityGraph]]",
    stats: "RuntimeStats | None" = None,
) -> list[list[tuple[list[int], list[float]]]]:
    """Per scene ``(sources, graph)``, per source ``p``, the ids of the
    graph's nodes ``p`` sees, in id order, and their distances from it
    (``sqrt(dx*dx + dy*dy)``: ``Point.distance`` to the bit).

    Every pair ``(p, v)``, ``v`` a node other than ``p``, is decided by
    :func:`hidden_many` — the scenes laid end to end, no pair filtered
    by tangency (a path's first and last legs need not be tangent).  A
    source strictly inside an obstacle sees nothing: every segment from
    it crosses that interior.
    """
    if not any(sources for sources, __ in scenes):
        return [[] for __ in scenes]
    packs = [graph.packed_scene() for __, graph in scenes]
    xy, points, first = _lay_out(packs)
    srcs = [p for sources, __ in scenes for p in sources]
    held = [len(sources) for sources, __ in scenes]
    # Per source: its scene, that scene's first row and node count, and
    # its own row (-1 off the graph).
    scene_of, row0, n, own = np.array(
        [
            (k, row, graph.node_count, graph._ids.get(p, -1 - row) + row)
            for k, ((sources, graph), row) in enumerate(zip(scenes, first))
            for p in sources
        ],
        dtype=np.int64,
    ).T
    a = np.arange(len(srcs)).repeat(n)
    b = ranges(row0, n)
    keep = (b != own[a]).nonzero()[0]
    a = a[keep]
    b = b[keep]
    pxy = np.array([(p.x, p.y) for p in srcs], dtype=np.float64).reshape(-1, 2)
    visible = ~_hidden_in_blocks(
        (pxy, srcs), a, (xy, points), b, packs, scene_of[a], (), stats
    )
    a = a[visible]
    b = b[visible]
    d = xy[b] - pxy[a]
    d *= d
    legs = np.sqrt(d[:, 0] + d[:, 1]).tolist()
    ids = (b - row0[a]).tolist()
    ends = accumulate(np.bincount(a, minlength=len(srcs)).tolist(), initial=0)
    sights = [(ids[lo:hi], legs[lo:hi]) for lo, hi in pairwise(ends)]
    return [sights[lo:hi] for lo, hi in pairwise(accumulate(held, initial=0))]
