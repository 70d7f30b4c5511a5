"""Euclidean range search: the candidate generator of OR and ODJ.

For point entities the R-tree filter is exact (a zero-extent MBR
intersects the disk iff the point is within range).  For polygonal
obstacles the filter step returns MBR hits which are refined against
the actual polygon (paper Sec. 2.1's filter/refinement discussion).
"""

from __future__ import annotations

from math import inf
from typing import Any, Iterable

from repro.errors import QueryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rstar import RStarTree
from repro.model import Obstacle


def range_query(tree: RStarTree, region: Rect | Circle) -> list[Any]:
    """Data payloads whose MBR intersects ``region`` (filter step only)."""
    if isinstance(region, Rect):
        return [e.data for e in tree.iter_rect(region)]
    if isinstance(region, Circle):
        return [e.data for e in tree.search_circle(region)]
    raise QueryError(f"unsupported region type: {type(region).__name__}")


def entities_in_range(tree: RStarTree, q: Point, e: float) -> list[Point]:
    """Entities within Euclidean distance ``e`` of ``q`` (exact).

    This is the set ``P'`` of paper Fig. 5 — a superset of the
    obstructed range result by the Euclidean lower-bound property.
    """
    if e < 0:
        raise QueryError(f"negative range: {e}")
    return [entry.data for entry in tree.search_circle(Circle(q, e))]


class Retrieval(list):
    """The obstacles of one disk retrieval and its *clear radius*:
    ``clear_sq``, the least squared MINDIST among the R-tree entries the
    filter pruned, and ``clear_d``, the least polygon distance among the
    MBR hits the refinement rejected.  A disk around the same centre
    with ``r * r < clear_sq and r < clear_d`` holds exactly these."""

    __slots__ = ("clear_sq", "clear_d")

    def __init__(self, items: Iterable[Obstacle], clear_sq: float, clear_d: float) -> None:
        super().__init__(items)
        self.clear_sq = clear_sq
        self.clear_d = clear_d


def clear_of(found: list[Obstacle]) -> tuple[float, float]:
    """``(clear_sq, clear_d)`` of a retrieval; none for a plain list."""
    return getattr(found, "clear_sq", 0.0), getattr(found, "clear_d", 0.0)


def obstacles_in_range(tree: RStarTree, q: Point, e: float) -> Retrieval:
    """Obstacles intersecting the disk ``(q, e)`` (filtered and refined).

    This is the set ``O'`` of relevant obstacles: by the Euclidean
    lower-bound argument of paper Sec. 3, obstacles outside the disk
    cannot affect any path of length <= ``e`` from ``q``.  The same
    pass measures the retrieval's clear radius (:class:`Retrieval`).
    """
    if e < 0:
        raise QueryError(f"negative range: {e}")
    circle = Circle(q, e)
    hits, clear_sq = tree.search_circle_clear(circle)
    result = Retrieval((), clear_sq, inf)
    for entry in hits:
        obstacle: Obstacle = entry.data
        if circle.intersects_polygon(obstacle.polygon):
            result.append(obstacle)
        else:
            result.clear_d = min(result.clear_d, obstacle.polygon.distance_to_point(q))
    return result
