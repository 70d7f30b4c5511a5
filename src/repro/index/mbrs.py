"""Packed MBR arithmetic: one numpy pass over all entries of a node.

A node's entries are evaluated as an ``(n, 4)`` float64 array of
``[minx, miny, maxx, maxy]`` rows (:meth:`repro.index.node.Node.rects`)
instead of one :class:`~repro.geometry.rect.Rect` method call per
entry.  Every formula here is the scalar one of ``Rect`` term for term
— ``max(0, a - b, c - d)``, ``dx * dx + dy * dy``, ``sqrt`` in float64,
each correctly rounded — so distances and predicates are bit-identical
to the per-entry evaluation (``tests/euclidean/reference.py`` is the
scalar oracle).  :func:`ranges` and :func:`blocks` lay out and budget
the ragged row runs such passes evaluate.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.geometry.rect import Rect


def pack(rects: Iterable[Rect]) -> np.ndarray:
    """The ``(n, 4)`` array of ``rects`` (``(0, 4)`` when empty)."""
    flat = chain.from_iterable((r.minx, r.miny, r.maxx, r.maxy) for r in rects)
    return np.fromiter(flat, dtype=np.float64).reshape(-1, 4)


def mindist_sq(rects: np.ndarray, minx, miny, maxx, maxy) -> np.ndarray:
    """Squared MINDIST from each row of ``rects`` to the rectangle(s)
    ``[minx, maxx] x [miny, maxy]`` (a point when min == max).

    The four bounds broadcast against ``rects[..., k]``: scalars give
    one distance per row (``Rect.mindist_rect_sq`` /
    ``Rect.mindist_point_sq``), ``rects[:, None, :]`` against the
    columns of a second array gives the node x node matrix.
    """
    dx = np.maximum(0.0, np.maximum(rects[..., 0] - maxx, minx - rects[..., 2]))
    dy = np.maximum(0.0, np.maximum(rects[..., 1] - maxy, miny - rects[..., 3]))
    return dx * dx + dy * dy


def mindist(rects: np.ndarray, minx, miny, maxx, maxy) -> np.ndarray:
    """MINDIST, as :func:`mindist_sq` (``Rect.mindist_rect``)."""
    return np.sqrt(mindist_sq(rects, minx, miny, maxx, maxy))


def mindist_rect(rects: np.ndarray, other: Rect) -> np.ndarray:
    """MINDIST from each row of ``rects`` to ``other``."""
    return mindist(rects, other.minx, other.miny, other.maxx, other.maxy)


def intersects(rects: np.ndarray, query: Rect) -> np.ndarray:
    """Mask of rows sharing a point with ``query`` (``Rect.intersects``)."""
    return (
        (rects[:, 0] <= query.maxx)
        & (query.minx <= rects[:, 2])
        & (rects[:, 1] <= query.maxy)
        & (query.miny <= rects[:, 3])
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
