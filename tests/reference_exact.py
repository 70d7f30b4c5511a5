"""The visibility predicate in exact arithmetic, with no float filter.

``crosses_interior(polygon, a, b)`` is the definition itself: the open
segment ``ab`` meets the open interior of a simple polygon iff some
open piece of it between two consecutive boundary contacts has its
midpoint strictly inside.  Every float is a dyadic rational, so the
coordinates of one call are scaled to integers over one power of two
and every step is integer (or :class:`fractions.Fraction`) arithmetic:
the answer is exact for any input — the oracle
``Polygon.crosses_interior``, ``Polygon.sign_verdict`` and the array
kernel are held to.  It shares no code with them: it cuts the segment
at its boundary contacts instead of separating convex sets, and casts
a ray to find a piece's side.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise

from repro.geometry import Point, Polygon


def crosses_interior(polygon: Polygon, a: Point, b: Point) -> bool:
    """Whether the open segment ``ab`` meets the interior of ``polygon``."""
    (ax, ay), (bx, by), *ring = _integers([a, b, *polygon.vertices])
    rx, ry = bx - ax, by - ay
    if not (rx or ry):
        return False
    edges = list(zip(ring, ring[1:] + ring[:1]))
    cuts = {Fraction(0), Fraction(1)}
    for (cx, cy), (dx, dy) in edges:
        sx, sy = dx - cx, dy - cy
        qx, qy = cx - ax, cy - ay
        denom = rx * sy - ry * sx
        if denom:
            t = qx * sy - qy * sx
            u = qx * ry - qy * rx
            if denom < 0:
                denom, t, u = -denom, -t, -u
            if 0 <= t <= denom and 0 <= u <= denom:
                cuts.add(Fraction(t, denom))
        elif qx * ry == qy * rx:
            # Collinear: the edge's ends, projected onto ab.
            r_sq = rx * rx + ry * ry
            for ex, ey in ((cx, cy), (dx, dy)):
                t = Fraction((ex - ax) * rx + (ey - ay) * ry, r_sq)
                if 0 <= t <= 1:
                    cuts.add(t)
    for lo, hi in pairwise(sorted(cuts)):
        t = (lo + hi) / 2
        # The midpoint, as integers over the common denominator q.
        p, q = t.numerator, t.denominator
        if _strictly_inside(edges, ax * q + p * rx, ay * q + p * ry, q):
            return True
    return False


def _integers(points: list[Point]) -> list[tuple[int, int]]:
    """``points``' coordinates times one power of two, as integers."""
    ratios = [v.as_integer_ratio() for p in points for v in (p.x, p.y)]
    scale = max(d for __, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    return list(zip(ints[::2], ints[1::2]))


def _strictly_inside(edges, x: int, y: int, q: int) -> bool:
    """Whether ``(x / q, y / q)`` (``q > 0``) is strictly inside: an
    even-odd ray cast to ``+x``; a point on an edge is not inside."""
    inside = False
    for (cx, cy), (dx, dy) in edges:
        cx, cy, dx, dy = cx * q, cy * q, dx * q, dy * q
        if (dx - cx) * (y - cy) == (dy - cy) * (x - cx) and (
            min(cx, dx) <= x <= max(cx, dx) and min(cy, dy) <= y <= max(cy, dy)
        ):
            return False
        if (cy > y) != (dy > y):
            # The edge meets the ray's line at cx + (y - cy) (dx - cx) /
            # (dy - cy); it crosses the ray iff that lies past x.
            reach = (cx - x) * (dy - cy) + (y - cy) * (dx - cx)
            if (reach > 0) == (dy > cy):
                inside = not inside
    return inside
