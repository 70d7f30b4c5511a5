"""Tangent visibility graphs [PV95]: the pairs a graph decides.

Only edges tangent to the obstacles at both ends can lie on a shortest
path (paper Sec. 2.3): a path bends around an obstacle vertex from its
tangent side only, and never at a reflex vertex, so this holds for
non-convex obstacles too.  A segment is tangent at a vertex when both
of the vertex's polygon neighbours lie on one closed side of its line
(:func:`repro.geometry.segment.orient`, exact, ``COLLINEAR`` counting
as either side: :func:`is_tangent_at`).  A graph keeps a pair iff it
is tangent at each end that is a vertex of exactly one obstacle.  Free points
impose nothing, and neither does a vertex several obstacles share:
touching obstacles leave a zero-width crack a path may run along,
turning into it there with a leg that cuts the other obstacle's line.
A path's first and last legs need not be tangent at all — an endpoint
on a vertex reaches every node it sees
(:meth:`repro.visibility.csr.CSRGraph.anchors_for`).

:class:`~repro.visibility.graph.VisibilityGraph` applies the rule over
arrays before any visibility test, whatever its backend:
:func:`pending_pairs` pairs a connect's pending nodes with every node,
:func:`region_pairs` lists the pairs a delete decides again (and
:func:`near_edges` the edges an insert may cut).
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import COLLINEAR, orient
from repro.index.mbrs import blocks, ranges
from repro.model import Obstacle
from repro.visibility.kernel.exact import orient_many

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.visibility.graph import VisibilityGraph

#: (node, node) cells paired per block.  Bounds the temporaries — a
#: dozen int64 and float64 arrays of one row per cell — to a few MB: a
#: paper-scale build (57-169 nodes) is one block, a 1,000-node one 16.
_PAIR_CELLS = 1 << 16


def is_tangent_at(vertex: Point, other: Point, obstacle: Obstacle) -> bool:
    """True when segment ``vertex -> other`` is tangent to ``obstacle``
    at ``vertex`` (both boundary neighbours on one side of the line)."""
    vertices = obstacle.polygon.vertices
    try:
        i = vertices.index(vertex)
    except ValueError:
        raise GeometryError(f"{vertex!r} is not a vertex of {obstacle!r}") from None
    n = len(vertices)
    prev_v = vertices[(i - 1) % n]
    next_v = vertices[(i + 1) % n]
    s_prev = orient(vertex, other, prev_v)
    s_next = orient(vertex, other, next_v)
    if s_prev == COLLINEAR or s_next == COLLINEAR:
        return True
    return s_prev == s_next


class Pairs(NamedTuple):
    """Node pairs of one graph for a backend to decide."""

    #: The pairs' ends, as node ids: ``(u[k], v[k])``.
    u: np.ndarray
    v: np.ndarray
    #: ``(2, k)``: per pair and end, the row (in the graph's
    #: :meth:`~repro.visibility.kernel.packed.PackedScene.exact_arrays`)
    #: of an obstacle the segment cannot cross — the strictly convex
    #: obstacle the end is a vertex of, when the segment's line supports
    #: it strictly there — or -1.  A backend may skip testing those.
    clear: np.ndarray


class _Layout(NamedTuple):
    """Graphs' nodes laid end to end: a node's *row* is its id plus its
    graph's first row."""

    #: ``(2, rows)``: every node's ``x`` and ``y``.
    xy: np.ndarray
    #: Per graph its first row, and one past the last graph's last.
    first: np.ndarray
    #: Per row that is a vertex of one obstacle, the rows of its polygon
    #: neighbours and the obstacle's convex row (:attr:`Pairs.clear`);
    #: -1 for the others.
    prev: np.ndarray
    succ: np.ndarray
    owner: np.ndarray


def _lay_out(graphs: "Sequence[VisibilityGraph]") -> _Layout:
    packs = [graph.packed_scene() for graph in graphs]
    xy = [pack.node_arrays()[0] for pack in packs]
    first = np.array(list(accumulate((part.shape[1] for part in xy), initial=0)))
    wedges = [pack.wedge_arrays() for pack in packs]
    shift = first[:-1].repeat([wedge[0].size for wedge in wedges])
    vertex, prev, succ = (
        np.concatenate([wedge[k] for wedge in wedges]) + shift for k in range(3)
    )
    around = np.full((3, int(first[-1])), -1)
    around[:, vertex] = prev, succ, np.concatenate([wedge[3] for wedge in wedges])
    return _Layout(np.concatenate(xy, axis=1), first, *around)


def _tangent_at(
    lay: _Layout, at: np.ndarray, other: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of rows, whether segment ``at -> other`` keeps the rule
    at ``at`` (each side is ``orient``'s exact sign), and the obstacle
    it leaves clear there (:attr:`Pairs.clear`)."""
    ok = np.ones(at.size, dtype=bool)
    clear = np.full(at.size, -1)
    held = (lay.prev.take(at) >= 0).nonzero()[0]
    v = at.take(held)
    x, y = lay.xy
    vx = x.take(v)
    vy = y.take(v)
    w = other.take(held)
    wx = x.take(w)
    wy = y.take(w)
    side_prev, side_next = (
        orient_many(vx, vy, wx, wy, x.take(c), y.take(c))
        for c in (lay.prev.take(v), lay.succ.take(v))
    )
    flat = (side_prev == 0) | (side_next == 0)
    same = side_prev == side_next
    ok[held] = flat | same
    clear[held] = np.where(same & ~flat, lay.owner.take(v), -1)
    return ok, clear


def _pairs(lay: _Layout, rows: np.ndarray, graph: np.ndarray, keep=None) -> Pairs:
    """Each of ``rows`` (in rank order; ``graph[k]``: the graph of
    ``rows[k]``) paired with every row of its graph ranked after it —
    a row not in ``rows`` ranks last — the ``(u, v)`` that ``keep``
    passes (if given) and the rule at both ends."""
    rank = np.full(int(lay.first[-1]), rows.size)
    rank[rows] = np.arange(rows.size)
    width = np.diff(lay.first)[graph]
    found = [Pairs(rows[:0], rows[:0], np.zeros((2, 0), dtype=np.int64))]
    for lo, hi in blocks(width, _PAIR_CELLS):
        u = rows[lo:hi].repeat(width[lo:hi])
        v = ranges(lay.first[graph[lo:hi]], width[lo:hi])
        later = rank[v] > rank[u]
        if keep is not None:
            later &= keep(u, v)
        u = u[later]
        v = v[later]
        ok, clear_u = _tangent_at(lay, u, v)
        u, v, clear_u = u[ok], v[ok], clear_u[ok]
        ok, clear_v = _tangent_at(lay, v, u)
        found.append(Pairs(u[ok], v[ok], np.array([clear_u[ok], clear_v[ok]])))
    return Pairs(*(np.concatenate(part, axis=-1) for part in zip(*found)))


def pending_pairs(
    graphs: "Sequence[VisibilityGraph]",
) -> list[tuple[Pairs, np.ndarray]]:
    """Per graph, its pending nodes each paired once with every node —
    ``(u, v)`` with ``u`` pending and ``v`` any other node not pending
    before it — and kept iff they keep the rule at both ends: by ``u``
    in pending order, then by ``v``; and the pending nodes' ids."""
    lay = _lay_out(graphs)
    pending = [
        np.fromiter(map(graph._ids.__getitem__, graph._pending), dtype=np.int64)
        + first
        for graph, first in zip(graphs, lay.first.tolist())
    ]
    owner = np.arange(len(graphs)).repeat([part.size for part in pending])
    u, v, clear = _pairs(lay, np.concatenate(pending), owner)
    # Graph by graph (the rows of one lie below the next's first row),
    # back to node ids.
    cuts = u.searchsorted(lay.first[1:-1])
    return [
        (Pairs(u - first, v - first, clear), rows - first)
        for u, v, clear, rows, first in zip(
            np.split(u, cuts),
            np.split(v, cuts),
            np.split(clear, cuts, axis=1),
            pending,
            lay.first.tolist(),
        )
    ]


def _edges(graph: "VisibilityGraph") -> tuple[np.ndarray, np.ndarray]:
    """Every directed edge of ``graph``, as ``(tail, head)`` id arrays."""
    rows = graph._rows
    degree = list(map(len, rows))
    tail = np.arange(len(rows)).repeat(degree)
    head = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=tail.size)
    return tail, head


def _near(
    xy: np.ndarray, u: np.ndarray, w: np.ndarray, regions: "Sequence[Rect]"
) -> np.ndarray:
    """Per pair, whether segment ``u -> w`` (node rows of ``xy``) has a
    bounding box meeting one of ``regions``: not both ends strictly
    beyond the same side of it."""
    x, y = xy
    return np.any(
        [
            ~(
                ((x[u] < r.minx) & (x[w] < r.minx))
                | ((x[u] > r.maxx) & (x[w] > r.maxx))
                | ((y[u] < r.miny) & (y[w] < r.miny))
                | ((y[u] > r.maxy) & (y[w] > r.maxy))
            )
            for r in regions
        ],
        axis=0,
    )


def near_edges(graph: "VisibilityGraph", regions: "Sequence[Rect]") -> Pairs:
    """The edges ``(u, w)`` of ``graph``, ids with ``u < w``, whose
    segment's bounding box meets one of ``regions``: those an insert of
    obstacles there may cut."""
    u, w = _edges(graph)
    keep = u < w
    u, w = u[keep], w[keep]
    keep = _near(graph.packed_scene().node_arrays()[0], u, w, regions)
    return Pairs(u[keep], w[keep], np.full((2, int(keep.sum())), -1))


def region_pairs(graph: "VisibilityGraph", region: Rect) -> Pairs:
    """The node pairs ``(u, w)`` of ``graph``, ids with ``u < w``,
    neither pending nor adjacent, whose segment's bounding box meets
    ``region`` and that keep the rule at both ends: what a delete
    repair decides again."""
    lay = _lay_out([graph])
    n = int(lay.first[-1])
    waiting = np.zeros(n, dtype=bool)
    waiting[list(map(graph._ids.__getitem__, graph._pending))] = True
    adjacent = np.zeros(n * n, dtype=bool)
    tail, head = _edges(graph)
    adjacent[tail * n + head] = True

    def keep(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        return (
            _near(lay.xy, u, w, [region])
            & ~adjacent[u * n + w]
            & ~(waiting[u] | waiting[w])
        )

    return _pairs(lay, np.arange(n), np.zeros(n, dtype=np.int64), keep)
