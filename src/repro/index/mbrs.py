"""Packed MBR arithmetic: one numpy pass over all entries of a node.

A node's entries are evaluated as an ``(n, 4)`` float64 array of
``[minx, miny, maxx, maxy]`` rows (:meth:`repro.index.node.Node.rects`)
instead of one :class:`~repro.geometry.rect.Rect` method call per
entry.  Every formula here is the scalar one of ``Rect`` term for term
— ``max(0, a - b, c - d)``, ``dx * dx + dy * dy``, ``sqrt`` in float64,
each correctly rounded — so distances and predicates are bit-identical
to the per-entry evaluation (``tests/euclidean/reference.py`` is the
scalar oracle).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.geometry.rect import Rect


def pack(rects: Iterable[Rect]) -> np.ndarray:
    """The ``(n, 4)`` array of ``rects`` (``(0, 4)`` when empty)."""
    flat = [c for r in rects for c in (r.minx, r.miny, r.maxx, r.maxy)]
    return np.array(flat, dtype=np.float64).reshape(-1, 4)


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
