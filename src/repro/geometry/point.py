"""Immutable 2-D points.

``Point`` doubles as the node type of visibility graphs, so it is
hashable and compares by exact coordinate equality (epsilon comparisons
would break hashing).  The geometric predicates, exact too, live in
:mod:`repro.geometry.segment`.
"""

from __future__ import annotations

import math
from typing import Iterator


class Point:
    """An immutable point in the plane.

    Points are ordered lexicographically (by ``(x, y)``), support
    arithmetic with other points (vector-style addition/subtraction and
    scalar multiplication) and are hashable, which lets them serve
    directly as graph nodes and dictionary keys.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Point is immutable")

    # -- value semantics ------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other: "Point") -> bool:
        return (self.x, self.y) < (other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __reduce__(self) -> tuple:
        # Default slot-based pickling would call ``__setattr__`` (which
        # raises for immutability); reconstruct through the constructor
        # instead so points can cross process boundaries (pool workers
        # ship query results back to the parent).
        return (Point, (self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({self.x:g}, {self.y:g})"

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # -- vector arithmetic ----------------------------------------------
    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    # -- metrics ---------------------------------------------------------
    def distance(self, other: "Point") -> float:
        """Euclidean distance to ``other``.

        Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``hypot``:
        both sqrt and the products/sum are IEEE correctly-rounded, so a
        vectorized evaluation (``numpy.sqrt(dx*dx + dy*dy)`` in the
        compiled distance-field engine) produces bit-identical values,
        whereas ``math.hypot`` and ``numpy.hypot`` disagree by an ulp
        on ~1e-5 of inputs.  The extra overflow guard hypot buys is
        irrelevant at coordinate scales (< 1e150).
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def distance_sq(self, other: "Point") -> float:
        """Squared Euclidean distance to ``other`` (no sqrt)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def norm(self) -> float:
        """Length of this point interpreted as a vector from the origin."""
        return math.sqrt(self.x * self.x + self.y * self.y)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points (see :meth:`Point.distance`
    for why this is ``sqrt(dx*dx + dy*dy)`` and not ``hypot``)."""
    dx = a.x - b.x
    dy = a.y - b.y
    return math.sqrt(dx * dx + dy * dy)


def distance_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance between two points."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def midpoint(a: Point, b: Point) -> Point:
    """The midpoint of segment ``ab``."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
