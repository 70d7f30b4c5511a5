"""Hilbert space-filling-curve keys.

The ODJ algorithm (paper Sec. 5, Fig. 10) sorts the join "seeds" by
Hilbert order so that consecutive visibility-graph constructions touch
nearby obstacles, maximising buffer locality on the obstacle R-tree.
"""

from __future__ import annotations

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Default curve order: a 2^16 x 2^16 grid is far below float precision
#: for any realistic universe, so ties are negligible.
DEFAULT_ORDER = 16


def hilbert_index(x: int, y: int, order: int = DEFAULT_ORDER) -> int:
    """Map grid cell ``(x, y)`` to its distance along the Hilbert curve.

    ``x`` and ``y`` must lie in ``[0, 2**order)``.
    """
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise GeometryError(
            f"hilbert_index: ({x}, {y}) outside [0, {side}) grid"
        )
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the curve keeps its orientation.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def hilbert_key(point: Point, universe: Rect, order: int = DEFAULT_ORDER) -> int:
    """Hilbert key of a point, discretised on a grid over ``universe``.

    Points outside the universe are clamped to its boundary.
    """
    side = 1 << order
    width = universe.width or 1.0
    height = universe.height or 1.0
    gx = int((point.x - universe.minx) / width * (side - 1))
    gy = int((point.y - universe.miny) / height * (side - 1))
    gx = max(0, min(side - 1, gx))
    gy = max(0, min(side - 1, gy))
    return hilbert_index(gx, gy, order)
