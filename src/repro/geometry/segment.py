"""Segment predicates: orientation, incidence and intersection.

These predicates are the robustness-critical kernel of the visibility
machinery, and every one is exact: it answers for the coordinates as
given, with no tolerance.  :func:`orient` is the one orientation test.
It evaluates the float determinant and trusts its sign past Shewchuk's
static error bound ("Adaptive Precision Floating-Point Arithmetic and
Fast Robust Geometric Predicates", 1997), and reads zero where both of
its terms have a zero factor; only the rest — none of the street
grid's axis-parallel contacts — is evaluated in
:class:`fractions.Fraction`, to which a float converts exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from repro.geometry.point import Point

#: Orientation constants returned by :func:`orient`.
CCW = 1
CW = -1
COLLINEAR = 0

#: Shewchuk's static bound on the error of the float determinant
#: ``l - r`` (``l``, ``r``: its two products, each of two coordinate
#: differences), relative to ``|l| + |r|``: ``(3 + 16 eps) eps``, ``eps =
#: 2**-53``.  A determinant farther from zero has the sign of the exact
#: one.
ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
#: Absolute slack added to that bound: a product that underflows is off
#: by up to ``2**-1075``, an error the relative bound does not cover.
UNDERFLOW = 2.0**-1022


def cross(o: Point, a: Point, b: Point) -> float:
    """Cross product of vectors ``o->a`` and ``o->b`` (signed area x2)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def orient(a: Point, b: Point, c: Point) -> int:
    """Orientation of the ordered triple ``(a, b, c)``, exactly.

    Returns :data:`CCW` for a left turn, :data:`CW` for a right turn and
    :data:`COLLINEAR` when the three points lie on one line.
    """
    return orient_xy(a.x, a.y, b.x, b.y, c.x, c.y)


def orient_xy(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> int:
    """:func:`orient` of the points ``(ax, ay)``, ``(bx, by)``, ``(cx,
    cy)``: the sign of Shewchuk's form ``(a - c) x (b - c)``."""
    sign = certified_sign(ax - cx, by - cy, ay - cy, bx - cx)
    return exact_sign(ax, ay, bx, by, cx, cy) if sign is None else sign


def certified_sign(p: float, q: float, s: float, t: float) -> int | None:
    """The sign of ``p * q - s * t`` (float differences of coordinates)
    where the float filter certifies it, else ``None``: a determinant
    past :data:`ORIENT_ERR`, or zero when both terms have a zero factor
    (a difference is zero only between equal coordinates)."""
    left = p * q
    right = s * t
    det = left - right
    bound = ORIENT_ERR * (abs(left) + abs(right)) + UNDERFLOW
    if det > bound:
        return CCW
    if det < -bound:
        return CW
    if (p == 0.0 or q == 0.0) and (s == 0.0 or t == 0.0):
        return COLLINEAR
    return None


def exact_sign(ax, ay, bx, by, cx, cy) -> int:
    """``(a - c) x (b - c)``'s sign, in rational arithmetic (floats and
    fractions alike)."""
    fcx, fcy = Fraction(cx), Fraction(cy)
    det = (Fraction(ax) - fcx) * (Fraction(by) - fcy) - (Fraction(ay) - fcy) * (
        Fraction(bx) - fcx
    )
    return sign_of(det)


def sign_of(v) -> int:
    """-1, 0 or 1: the sign of ``v``."""
    return (v > 0) - (v < 0)


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """True when ``p`` lies on the closed segment ``ab``."""
    return (
        orient(a, b, p) == COLLINEAR
        and min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def segments_properly_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """True when open segments ``p1p2`` and ``p3p4`` cross at a single
    interior point of both (no endpoint touching, no collinear overlap)."""
    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return d1 * d2 < 0 and d3 * d4 < 0


def segments_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """True when the closed segments share at least one point."""
    if segments_properly_intersect(p1, p2, p3, p4):
        return True
    return (
        on_segment(p3, p4, p1)
        or on_segment(p3, p4, p2)
        or on_segment(p1, p2, p3)
        or on_segment(p1, p2, p4)
    )


def segment_intersection_params(
    a: Point, b: Point, c: Point, d: Point
) -> list[Fraction]:
    """Parameters ``t`` in ``[0, 1]`` along ``ab`` where ``ab`` meets ``cd``,
    exactly.

    Returns an empty list when the segments are disjoint, a single
    parameter for a point intersection, and the two endpoints of the
    shared sub-segment (sorted) for a collinear overlap.  This is the
    kernel of the exact "does a segment cross a polygon interior" test
    of a non-convex :class:`repro.geometry.polygon.Polygon`.
    """
    ax, ay, bx, by, cx, cy, dx, dy = (
        Fraction(v) for p in (a, b, c, d) for v in (p.x, p.y)
    )
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    qx, qy = cx - ax, cy - ay
    denom = rx * sy - ry * sx
    if denom:
        # Lines cross at a single point; check it lies on both segments.
        t = (qx * sy - qy * sx) / denom
        u = (qx * ry - qy * rx) / denom
        return [t] if 0 <= t <= 1 and 0 <= u <= 1 else []
    # Parallel.  If not collinear, no intersection.
    if qx * ry - qy * rx:
        return []
    r_sq = rx * rx + ry * ry
    if not r_sq:
        # ``ab`` is a point; report t=0 if it lies on cd.
        return [Fraction(0)] if on_segment(c, d, a) else []
    # Collinear: project c and d onto ab's parameter space.
    t0 = (qx * rx + qy * ry) / r_sq
    t1 = ((dx - ax) * rx + (dy - ay) * ry) / r_sq
    lo, hi = max(min(t0, t1), 0), min(max(t0, t1), 1)
    if lo > hi:
        return []
    return [lo] if lo == hi else [lo, hi]


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Minimum distance from point ``p`` to the closed segment ``ab``."""
    abx, aby = b.x - a.x, b.y - a.y
    ab_sq = abx * abx + aby * aby
    if ab_sq == 0.0:
        return p.distance(a)
    t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / ab_sq
    t = max(0.0, min(1.0, t))
    cx, cy = a.x + t * abx, a.y + t * aby
    return math.hypot(p.x - cx, p.y - cy)
