"""Exact, brute-force visibility — the reference oracle.

Two points are mutually visible iff the open segment between them does
not cross the interior of any obstacle.  This module decides that with
:meth:`repro.geometry.polygon.Polygon.crosses_interior` — certified
float orientation signs where they decide, exact arithmetic for the
rest — which is exact for the coordinates as given, collinear grazes,
boundary entities and shared grid lines included.  It is the
``naive`` backend's decider, one pair at a time; the ``numpy-kernel``
backend evaluates the same predicate over arrays
(:mod:`repro.visibility.kernel.exact`), and the property-based tests
hold the two equal on random scenes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.model import Obstacle


def is_visible(a: Point, b: Point, obstacles: Iterable[Obstacle]) -> bool:
    """True when the open segment ``ab`` avoids every obstacle interior."""
    seg_rect = Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
    for obs in obstacles:
        if not obs.mbr.intersects(seg_rect):
            continue
        if obs.polygon.crosses_interior(a, b):
            return False
    return True


def naive_visible_from(
    p: Point, targets: Sequence[Point], obstacles: Sequence[Obstacle]
) -> list[Point]:
    """All targets visible from ``p`` — O(|targets| * |obstacle edges|)."""
    return [w for w in targets if w != p and is_visible(p, w, obstacles)]
