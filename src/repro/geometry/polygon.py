"""Simple polygons — the obstacle representation.

The paper's experiments use street MBRs (rectangles) but the algorithms
support arbitrary simple polygons; so does this class.  The two
operations that matter for obstructed query processing are

* strict interior containment (boundary points do *not* count — the
  paper allows entities to lie on obstacle boundaries), and
* ``crosses_interior(a, b)``: does the open segment ``ab`` pass through
  the polygon's interior?  This defines mutual visibility.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geometry.constants import EPS
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import (
    certified_sign,
    exact_sign,
    orient,
    orient_xy,
    point_segment_distance,
    segment_intersection_params,
    segments_intersect,
    sign_of,
)


class Polygon:
    """A simple polygon with vertices stored in counter-clockwise order.

    The constructor rejects a polygon that is not simple with
    :class:`GeometryError` and normalises orientation to CCW.  A polygon
    that turns left (or runs straight on) at every vertex is simple iff
    its edge directions wind exactly once, which costs ``O(n)``; any
    other polygon goes through :meth:`validate_simple`.  The separation
    rule of :meth:`sign_verdict` calls the first kind convex, and a pentagram — all left turns,
    winding twice — would otherwise be mis-decided by it.
    """

    __slots__ = ("vertices", "mbr", "_edges", "_sign_rows")

    def __init__(self, vertices: Sequence[Point]) -> None:
        verts = [v if isinstance(v, Point) else Point(*v) for v in vertices]
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        # Drop a duplicated closing vertex, if provided.
        if verts[0] == verts[-1]:
            verts = verts[:-1]
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 distinct vertices")
        for i, v in enumerate(verts):
            if v == verts[(i + 1) % len(verts)]:
                raise GeometryError(f"repeated consecutive vertex {v!r}")
        area2 = _signed_area2(verts)
        if abs(area2) <= EPS:
            raise GeometryError("degenerate polygon (zero area)")
        if area2 < 0:
            verts.reverse()
        self.vertices: tuple[Point, ...] = tuple(verts)
        self.mbr: Rect = Rect.from_points(verts)
        self._edges: tuple[tuple[Point, Point], ...] = tuple(
            (self.vertices[i], self.vertices[(i + 1) % len(self.vertices)])
            for i in range(len(self.vertices))
        )
        winds = _left_turn_winding(self.vertices)
        if winds is None:
            # Not convex: the separation rule's rows are never built.
            self._sign_rows = None
            self.validate_simple()
        elif winds != 1:
            raise GeometryError(
                f"polygon is not simple: its boundary winds {winds} times"
            )

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_rect(cls, rect: Rect) -> "Polygon":
        """A rectangular obstacle from an MBR (the paper's street MBRs)."""
        if rect.width <= 0 or rect.height <= 0:
            raise GeometryError("rectangle obstacle must have positive extent")
        return cls(rect.corners())

    @classmethod
    def regular(cls, center: Point, radius: float, sides: int) -> "Polygon":
        """A regular ``sides``-gon — handy for tests and examples."""
        if sides < 3:
            raise GeometryError("regular polygon needs at least 3 sides")
        if radius <= 0:
            raise GeometryError("regular polygon needs positive radius")
        pts = [
            Point(
                center.x + radius * math.cos(2 * math.pi * i / sides),
                center.y + radius * math.sin(2 * math.pi * i / sides),
            )
            for i in range(sides)
        ]
        return cls(pts)

    # -- value semantics ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __getstate__(self) -> tuple[None, dict[str, object]]:
        # The sign rows are derived on first use; never ship them.
        state = {"vertices": self.vertices, "mbr": self.mbr, "_edges": self._edges}
        if not self.is_convex():
            state["_sign_rows"] = None
        return None, state

    def __repr__(self) -> str:
        return f"Polygon({len(self.vertices)} vertices, mbr={self.mbr!r})"

    # -- measures ----------------------------------------------------------
    def area(self) -> float:
        """Enclosed area."""
        return _signed_area2(self.vertices) / 2.0

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(a.distance(b) for a, b in self._edges)

    def centroid(self) -> Point:
        """Area centroid."""
        cx = cy = 0.0
        area2 = 0.0
        for a, b in self._edges:
            w = a.x * b.y - b.x * a.y
            area2 += w
            cx += (a.x + b.x) * w
            cy += (a.y + b.y) * w
        return Point(cx / (3.0 * area2), cy / (3.0 * area2))

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        """Boundary edges as ``(start, end)`` vertex pairs, CCW order."""
        return self._edges

    def is_convex(self) -> bool:
        """True when every vertex turns left or runs straight on (CCW
        polygon), exactly: the separation rule's precondition, decided where
        the polygon is built (the rows of a convex one, on first use)."""
        return getattr(self, "_sign_rows", True) is not None

    def validate_simple(self) -> None:
        """Raise :class:`GeometryError` if any two non-adjacent edges meet."""
        n = len(self._edges)
        for i in range(n):
            a1, a2 = self._edges[i]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if segments_intersect(a1, a2, *self._edges[j]):
                    raise GeometryError(
                        f"polygon is not simple: edges {i} and {j} intersect"
                    )

    # -- containment -----------------------------------------------------------
    def on_boundary(self, p: Point) -> bool:
        """True when ``p`` lies on the polygon boundary."""
        return self.mbr.contains_point(p) and self._locate(p.x, p.y) == 0

    def contains(self, p: Point) -> bool:
        """Strict interior test: boundary points return ``False``."""
        return self.mbr.contains_point(p) and self._locate(p.x, p.y) > 0

    def contains_or_boundary(self, p: Point) -> bool:
        """True when ``p`` is inside or on the boundary."""
        return self.mbr.contains_point(p) and self._locate(p.x, p.y) >= 0

    def _locate(self, x, y, orientation=orient_xy) -> int:
        """1 when ``(x, y)`` is strictly inside, 0 on the boundary, -1
        outside, exactly: an even-odd ray cast to ``+x`` whose crossings
        are orientation signs, with the half-open edge rule so a vertex
        on the ray is counted once.  Fractions take ``exact_sign`` (the
        float filter would round them)."""
        inside = False
        for a, b in self._edges:
            if (a.y > y) != (b.y > y):
                side = orientation(a.x, a.y, b.x, b.y, x, y)
                if side == 0:
                    return 0
                if (side > 0) == (b.y > a.y):
                    inside = not inside
            elif (
                min(a.x, b.x) <= x <= max(a.x, b.x)
                and min(a.y, b.y) <= y <= max(a.y, b.y)
                and orientation(a.x, a.y, b.x, b.y, x, y) == 0
            ):
                return 0
        return 1 if inside else -1

    # -- visibility kernel -------------------------------------------------------
    def crosses_interior(self, a: Point, b: Point) -> bool:
        """True when the open segment ``ab`` intersects the interior.

        Grazing contact — running along an edge, touching a vertex or a
        boundary point — does **not** count.  After the MBR reject,
        :meth:`sign_verdict` decides, exactly.
        """
        box = self.mbr
        if not (
            box.minx <= max(a.x, b.x)
            and min(a.x, b.x) <= box.maxx
            and box.miny <= max(a.y, b.y)
            and min(a.y, b.y) <= box.maxy
        ):
            return False
        return self.sign_verdict(a, b)

    def sign_verdict(self, a: Point, b: Point) -> bool:
        """:meth:`crosses_interior` past the MBR reject.  A convex
        polygon is decided by separation: the open segment ``ab`` misses
        the open interior iff some edge line has ``a`` and ``b`` on its
        closed outer side, or line ``ab`` has every vertex on one closed
        side (two convex sets are apart iff a line parallel to an edge
        of one parts them).  Each sign is the float determinant's where
        :func:`~repro.geometry.segment.certified_sign` certifies it, and
        :func:`~repro.geometry.segment.exact_sign`'s (fractions) where
        the certified ones leave the verdict open.  Any other polygon
        goes to :meth:`exact_verdict`.  The edge rows are built on first
        use and never pickled."""
        rows = self._rows()
        if rows is None:
            return self.exact_verdict(a, b)
        ax, ay, bx, by = a.x, a.y, b.x, b.y
        open_edges = []
        for row in rows:
            fx, fy, ex, ey, __, __ = row
            # orient(edge start, edge end, p): positive inside.
            sa = certified_sign(ex, ay - fy, ey, ax - fx)
            if sa == 1:
                continue
            sb = certified_sign(ex, by - fy, ey, bx - fx)
            if sb == 1:
                continue
            if sa is None or sb is None:
                open_edges.append(row)
                continue
            return False
        rx = bx - ax
        ry = by - ay
        left = right = False
        open_sides = []
        for fx, fy, __, __, __, __ in rows:
            # orient(a, b, vertex).
            side = certified_sign(rx, fy - ay, ry, fx - ax)
            if side is None:
                open_sides.append((fx, fy))
                continue
            left |= side > 0
            right |= side < 0
            if left and right:
                break
        else:
            for fx, fy in open_sides:
                side = exact_sign(bx, by, fx, fy, ax, ay)
                left |= side > 0
                right |= side < 0
            if not (left and right):
                return False
        for fx, fy, __, __, gx, gy in open_edges:
            if (
                exact_sign(gx, gy, ax, ay, fx, fy) <= 0
                and exact_sign(gx, gy, bx, by, fx, fy) <= 0
            ):
                return False
        return True

    def exact_verdict(self, a: Point, b: Point) -> bool:
        """:meth:`sign_verdict` for a polygon that is not convex, in
        exact arithmetic: the parameters where ``ab`` meets the boundary
        as fractions, and whether a sub-interval's midpoint lies
        strictly inside."""
        if a == b:
            return False
        params = {Fraction(0), Fraction(1)}
        for c, d in self._edges:
            # Fractions only for an edge the open segment may touch: an
            # edge line through one end alone meets ``ab`` there (t = 0
            # or 1, already cut).
            side_a, side_b = orient(c, d, a), orient(c, d, b)
            if side_a * side_b < 0 or side_a == side_b == 0:
                if orient(a, b, c) * orient(a, b, d) <= 0:
                    params.update(segment_intersection_params(a, b, c, d))
        if len(params) == 2:
            # The open segment meets no boundary point: one side holds
            # all of it, and an end off the boundary shows which.
            side = self._locate(a.x, a.y) or self._locate(b.x, b.y)
            if side:
                return side > 0
        ax, ay, bx, by = Fraction(a.x), Fraction(a.y), Fraction(b.x), Fraction(b.y)
        for lo, hi in pairwise(sorted(params)):
            t = (lo + hi) / 2
            if self._locate(ax + t * (bx - ax), ay + t * (by - ay), exact_sign) > 0:
                return True
        return False

    def _rows(self) -> tuple[tuple[float, ...], ...] | None:
        """Per edge ``fx, fy, ex, ey, gx, gy`` (start, vector, end), or
        ``None`` unless the polygon is convex; built on first use."""
        try:
            return self._sign_rows
        except AttributeError:
            rows = self._sign_rows = tuple(
                (a.x, a.y, b.x - a.x, b.y - a.y, b.x, b.y) for a, b in self._edges
            )
            return rows

    # -- metrics -----------------------------------------------------------------
    def distance_to_point(self, p: Point) -> float:
        """Distance from ``p`` to the polygon (0 when inside or on it)."""
        if self.contains_or_boundary(p):
            return 0.0
        return min(point_segment_distance(p, a, b) for a, b in self._edges)

    def boundary_point_at(self, s: float) -> Point:
        """The point at arc-length fraction ``s`` in ``[0, 1)`` along the
        boundary, measured CCW from the first vertex: rounded, so exactly
        on the boundary only on an axis-parallel edge."""
        if not 0.0 <= s < 1.0:
            s = s % 1.0
        target = s * self.perimeter()
        walked = 0.0
        for a, b in self._edges:
            step = a.distance(b)
            if walked + step >= target or (a, b) == self._edges[-1]:
                frac = 0.0 if step == 0.0 else (target - walked) / step
                frac = max(0.0, min(1.0, frac))
                return Point(a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))
            walked += step
        return self.vertices[0]


def _left_turn_winding(vertices: Sequence[Point]) -> int | None:
    """How many times the edge directions of a polygon that turns left
    or runs straight on at every vertex wind around, or ``None`` for
    any other polygon — the separation rule's convex test, exact: a turn is
    ``orient(previous, vertex, next)``, and running straight on needs
    both edges pointing one way (a reversal, a zero-width spike, is
    not).  Each step turns the direction forward by less than half a
    turn, so it wraps past angle 0 exactly when it moves from the lower
    half-plane of directions to the upper one: the winding number is
    that count (a difference's sign is exact)."""
    verts = list(vertices)
    wraps = 0
    for p, v, n in zip(verts[-1:] + verts[:-1], verts, verts[1:] + verts[:1]):
        ux, uy = v.x - p.x, v.y - p.y
        vx, vy = n.x - v.x, n.y - v.y
        turn = orient(p, v, n)
        if turn < 0 or (
            turn == 0 and (sign_of(ux) != sign_of(vx) or sign_of(uy) != sign_of(vy))
        ):
            return None
        if (uy < 0.0 or (uy == 0.0 and ux < 0.0)) and (
            vy > 0.0 or (vy == 0.0 and vx > 0.0)
        ):
            wraps += 1
    return wraps


def _signed_area2(vertices: Iterable[Point]) -> float:
    """Twice the signed area (positive for CCW order)."""
    verts = list(vertices)
    total = 0.0
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total
