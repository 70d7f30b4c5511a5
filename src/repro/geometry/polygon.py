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
from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geometry.constants import EPS
from repro.geometry.point import Point, midpoint
from repro.geometry.rect import Rect
from repro.geometry.segment import (
    on_segment,
    point_segment_distance,
    segment_intersection_params,
    segments_properly_intersect,
)


class Polygon:
    """A simple polygon with vertices stored in counter-clockwise order.

    The constructor validates simplicity cheaply (no repeated
    consecutive vertices, non-zero area) and normalises orientation to
    CCW.  Full self-intersection checking is available via
    :meth:`validate_simple` and used by the dataset loaders.
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
        return None, {"vertices": self.vertices, "mbr": self.mbr, "_edges": self._edges}

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
        polygon), by float signs: the sign filter's precondition."""
        return _sign_rows(self._edges) is not None

    def validate_simple(self) -> None:
        """Raise :class:`GeometryError` if any two non-adjacent edges meet."""
        n = len(self._edges)
        for i in range(n):
            a1, a2 = self._edges[i]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                b1, b2 = self._edges[j]
                if segments_properly_intersect(a1, a2, b1, b2) or (
                    on_segment(a1, a2, b1)
                    or on_segment(a1, a2, b2)
                    or on_segment(b1, b2, a1)
                    or on_segment(b1, b2, a2)
                ):
                    raise GeometryError(
                        f"polygon is not simple: edges {i} and {j} intersect"
                    )

    # -- containment -----------------------------------------------------------
    def on_boundary(self, p: Point) -> bool:
        """True when ``p`` lies on the polygon boundary (within tolerance)."""
        if not self.mbr.expanded(EPS).contains_point(p):
            return False
        return any(on_segment(a, b, p) for a, b in self._edges)

    def contains(self, p: Point) -> bool:
        """Strict interior test: boundary points return ``False``."""
        if not self.mbr.contains_point(p):
            return False
        if self.on_boundary(p):
            return False
        return self._crossing_number_odd(p)

    def contains_or_boundary(self, p: Point) -> bool:
        """True when ``p`` is inside or on the boundary."""
        if not self.mbr.contains_point(p):
            return False
        if self.on_boundary(p):
            return True
        return self._crossing_number_odd(p)

    def _crossing_number_odd(self, p: Point) -> bool:
        """Even-odd ray cast with a horizontal ray to ``+x``.

        Assumes ``p`` is not on the boundary; uses the half-open edge
        rule so vertices on the ray are counted exactly once.
        """
        inside = False
        for a, b in self._edges:
            if (a.y > p.y) != (b.y > p.y):
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if x_cross > p.x:
                    inside = not inside
        return inside

    # -- visibility kernel -------------------------------------------------------
    def crosses_interior(self, a: Point, b: Point) -> bool:
        """True when the open segment ``ab`` intersects the interior.

        Grazing contact — running along an edge, touching a vertex or a
        boundary point — does **not** count.  After the MBR reject, a
        convex polygon decides by orientation signs wherever the
        geometry is clear (:meth:`sign_verdict`); only the contact band
        and non-convex polygons go to the tolerance method
        (:meth:`_crosses_by_params`).  Every pair has exactly one
        decider, and the two agree wherever the signs decide.
        """
        box = self.mbr
        if not (
            box.minx <= max(a.x, b.x)
            and min(a.x, b.x) <= box.maxx
            and box.miny <= max(a.y, b.y)
            and min(a.y, b.y) <= box.maxy
        ):
            return False
        verdict = self.sign_verdict(a, b)
        if verdict is None:
            return self._crosses_by_params(a, b)
        return verdict

    def sign_verdict(self, a: Point, b: Point) -> bool | None:
        """The sign filter of :meth:`crosses_interior`: ``False`` when
        ``ab`` lies on the closed outer side of one edge line, ``True``
        when the midpoint of its chord lies inside every edge line by
        :data:`SIGN_MARGIN`, ``None`` otherwise and for a polygon that
        is not convex.  ``s = cross(edge, p - edge start)`` is positive
        inside (CCW order).  The clear rule needs no margin: all of
        ``ab`` is then on the closed outer side, where the tolerance
        method finds no strictly inside midpoint.  The edge rows are
        built on first use and never pickled."""
        try:
            rows = self._sign_rows
        except AttributeError:
            rows = self._sign_rows = _sign_rows(self._edges)
        if rows is None:
            return None
        ax, ay, bx, by = a.x, a.y, b.x, b.y
        lo = 0.0
        hi = 1.0
        for fx, fy, ex, ey, __ in rows:
            sa = ex * (ay - fy) - ey * (ax - fx)
            sb = ex * (by - fy) - ey * (bx - fx)
            if sa <= 0.0 and sb <= 0.0:
                return False
            # Where ``ab`` crosses the edge line: the chord's entry
            # (``a`` outside) or exit (``b`` outside) parameter.
            if sa < 0.0:
                lo = max(lo, sa / (sa - sb))
            elif sb < 0.0:
                hi = min(hi, sa / (sa - sb))
        tm = (lo + hi) / 2.0
        rx = bx - ax
        ry = by - ay
        mx = ax + tm * rx
        my = ay + tm * ry
        r1 = abs(rx) + abs(ry)
        for fx, fy, ex, ey, e1 in rows:
            dx = mx - fx
            dy = my - fy
            if not ex * dy - ey * dx > SIGN_MARGIN * e1 * (
                abs(dx) + abs(dy) + r1 + e1 + 1.0
            ):
                return None
        return True

    def _crosses_by_params(self, a: Point, b: Point) -> bool:
        """The tolerance method of :meth:`crosses_interior`, for any
        simple polygon: gather every parameter where ``ab`` meets the
        boundary, then check the midpoint of each resulting sub-interval
        for strict containment (a segment whose box misses the MBR
        finds no hit and an outside midpoint)."""
        params: list[float] = [0.0, 1.0]
        hit_boundary = False
        for e1, e2 in self._edges:
            ts = segment_intersection_params(a, b, e1, e2)
            if ts:
                hit_boundary = True
                params.extend(ts)
        if not hit_boundary:
            # Either fully outside or fully inside: decide by midpoint.
            return self.contains(midpoint(a, b))
        params.sort()
        prev = params[0]
        for t in params[1:]:
            if t - prev > EPS:
                tm = (prev + t) / 2.0
                m = Point(a.x + tm * (b.x - a.x), a.y + tm * (b.y - a.y))
                if self.contains(m):
                    return True
            prev = t
        return False

    # -- metrics -----------------------------------------------------------------
    def distance_to_point(self, p: Point) -> float:
        """Distance from ``p`` to the polygon (0 when inside or on it)."""
        if self.contains_or_boundary(p):
            return 0.0
        return min(point_segment_distance(p, a, b) for a, b in self._edges)

    def boundary_point_at(self, s: float) -> Point:
        """The point at arc-length fraction ``s`` in ``[0, 1)`` along the
        boundary, measured CCW from the first vertex."""
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


#: How far inside every edge line, relative to the scale of the pair, a
#: chord midpoint must lie for :meth:`Polygon.sign_verdict` to call the
#: pair crossing.  In distance units the tolerance method's bands around
#: an edge ``e`` (start ``f``), for a segment ``r = b - a`` and a point
#: ``m``, are each at most ``EPS`` times one term of ``|m - f| + |r| +
#: |e| + 1``: ``ccw``'s collinear band (``on_segment``, so ``contains``)
#: is ``EPS |m - f|``, ``on_segment``'s box pad ``EPS (|e| + 1)``;
#: ``t_tol`` moves a hit by ``EPS (1 + 1/|r|)`` of ``r``, at most ``EPS
#: (|r| + 1)``; ``u_tol`` by ``EPS (|e| + 1)`` along ``e``; the parameter
#: gap skips ``EPS |r|``.  The filter asks ``s > SIGN_MARGIN * |e|_1 *
#: (|m - f|_1 + |r|_1 + |e|_1 + 1)``: since ``s = |e| * dist(m, line)``
#: and an L1 norm is never below the Euclidean one, ``m`` then lies
#: farther from every edge line than 100 times each band.  So the
#: tolerance method finds no boundary hit strictly inside the chord, its
#: sub-interval around ``m`` is wider than ``EPS`` and its midpoint is
#: strictly contained: it answers ``True`` too.  Float rounding of ``s``
#: (relative ``2**-52``) is seven orders below the margin.
SIGN_MARGIN = 100.0 * EPS


def _sign_rows(
    edges: Sequence[tuple[Point, Point]],
) -> tuple[tuple[float, float, float, float, float], ...] | None:
    """Per edge ``fx, fy, ex, ey, |ex| + |ey|`` (start, vector, L1
    length), or ``None`` unless the polygon is convex — the sign
    filter's one precondition: at every vertex the edges turn left
    (``cross(edge, next edge) > 0``) or run straight on (a collinear
    run: zero cross product, positive dot product).  A right turn or a
    reversal (a zero-width spike) is not convex."""
    rows = tuple(
        (a.x, a.y, ex, ey, abs(ex) + abs(ey))
        for a, b in edges
        for ex, ey in ((b.x - a.x, b.y - a.y),)
    )
    for (__, __, ux, uy, __), (__, __, vx, vy, __) in zip(rows, rows[1:] + rows[:1]):
        turn = ux * vy - uy * vx
        if turn < 0.0 or (turn == 0.0 and ux * vx + uy * vy < 0.0):
            return None
    return rows


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
