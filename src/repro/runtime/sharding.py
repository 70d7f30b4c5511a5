"""Spatial sharding: the grid partition behind sharded obstacle storage.

The monolithic obstacle R-tree gives every cached visibility graph one
global version number — an obstacle inserted at the far end of the
universe invalidates a cached graph that could never have seen it.
Sharding splits the obstacle set over a uniform grid whose cells carry
Hilbert-ordered shard ids (:mod:`repro.index.hilbert`), so that

* a range retrieval fans out only to the shards whose cells intersect
  the query disk, and
* the version a cached graph is stamped with lists only the shards of
  the cells its coverage disk meets
  (:meth:`~repro.core.source.ShardedObstacleIndex.version_for`) —
  mutations in other shards leave the graph valid.

This module owns the geometry (:class:`ShardGrid`); the storage itself
(:class:`~repro.core.source.ShardedObstacleIndex`) lives with the other
obstacle sources in :mod:`repro.core.source`.
"""

from __future__ import annotations

from math import inf
from typing import Iterator

from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.hilbert import hilbert_index, order_for_cells

#: Default shard-grid resolution: a 4x4 grid (16 shards).
DEFAULT_SHARD_ORDER = 2


class ShardGrid:
    """A uniform grid over a fixed universe, cells keyed in Hilbert order.

    The grid is *geometry only*: it maps points, rectangles and disks
    to cell coordinates and cells to shard keys.  Data outside the
    universe is clamped to the boundary cells, so the grid never
    rejects an insert — outliers simply pile up in the rim shards.
    """

    __slots__ = ("universe", "order", "side", "_cell_w", "_cell_h")

    def __init__(self, universe: Rect, order: int = DEFAULT_SHARD_ORDER) -> None:
        if order < 0:
            raise DatasetError(f"shard grid order must be >= 0, got {order}")
        self.universe = universe
        self.order = order
        self.side = 1 << order
        # Degenerate universes (single point / segment) get unit cells:
        # everything lands in the rim cells via clamping, which is fine.
        self._cell_w = (universe.width or 1.0) / self.side
        self._cell_h = (universe.height or 1.0) / self.side

    @classmethod
    def for_shards(cls, universe: Rect, n_shards: int) -> "ShardGrid":
        """The tightest grid with at least ``n_shards`` cells."""
        return cls(universe, order_for_cells(n_shards))

    @property
    def cell_count(self) -> int:
        """Total number of grid cells (``side ** 2``)."""
        return self.side * self.side

    # ------------------------------------------------------------ coordinates
    def _clamp(self, c: int) -> int:
        return 0 if c < 0 else (self.side - 1 if c >= self.side else c)

    def cell_of(self, p: Point) -> tuple[int, int]:
        """Grid cell containing ``p`` (clamped to the universe)."""
        cx = int((p.x - self.universe.minx) / self._cell_w)
        cy = int((p.y - self.universe.miny) / self._cell_h)
        return self._clamp(cx), self._clamp(cy)

    def cells_for_rect(self, rect: Rect) -> Iterator[tuple[int, int]]:
        """All cells the (clamped) rectangle overlaps."""
        cx0, cy0 = self.cell_of(Point(rect.minx, rect.miny))
        cx1, cy1 = self.cell_of(Point(rect.maxx, rect.maxy))
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                yield cx, cy

    def cells_for_disk(
        self, center: Point, radius: float
    ) -> Iterator[tuple[int, int]]:
        """All cells intersecting the closed disk ``(center, radius)``.

        The candidate set is the disk's bounding-box cell range, refined
        by the exact cell-rectangle-to-center distance (corner cells of
        the range may fall outside the disk).
        """
        if radius == inf:
            for cx in range(self.side):
                for cy in range(self.side):
                    yield cx, cy
            return
        bbox = Rect(
            center.x - radius, center.y - radius,
            center.x + radius, center.y + radius,
        )
        r_sq = radius * radius
        for cx, cy in self.cells_for_rect(bbox):
            if self.cell_rect(cx, cy).mindist_point_sq(center) <= r_sq:
                yield cx, cy

    def cell_rect(self, cx: int, cy: int) -> Rect:
        """The rectangle covered by cell ``(cx, cy)``.

        Rim cells extend to infinity conceptually (out-of-universe data
        is clamped into them); for intersection tests the finite cell
        suffices for interior cells, so rim cells are widened to cover
        the clamped half-planes.
        """
        minx = self.universe.minx + cx * self._cell_w
        miny = self.universe.miny + cy * self._cell_h
        maxx = minx + self._cell_w
        maxy = miny + self._cell_h
        if cx == 0:
            minx = -inf
        if cy == 0:
            miny = -inf
        if cx == self.side - 1:
            maxx = inf
        if cy == self.side - 1:
            maxy = inf
        return Rect(minx, miny, maxx, maxy)

    def key(self, cx: int, cy: int) -> int:
        """Hilbert shard key of cell ``(cx, cy)``."""
        return hilbert_index(cx, cy, self.order)

    def __repr__(self) -> str:
        return (
            f"ShardGrid(order={self.order}, side={self.side}, "
            f"universe={self.universe!r})"
        )
