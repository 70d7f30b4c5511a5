"""`PackedScene` — a graph's obstacles flattened into numpy arrays.

The vectorized sweep kernel needs the scene as contiguous arrays, not
as python ``Point``/``BoundaryEdge`` objects.  A ``PackedScene`` keeps
two synchronized groups of buffers:

* **boundary edges** — endpoint *node ids* plus the owning obstacle
  id, append-only;
* **obstacles** — per packed obstacle its MBR row and the contiguous
  run of edge rows it owns (the strict-interior prefilter and the
  interior-departure pass of the sweep kernel read these; the exact
  predicate of :mod:`~repro.visibility.kernel.exact` reads them as
  :meth:`PackedScene.exact_arrays`).

A sweep's events are the graph's nodes — obstacle vertices and free
points — and their rows are the node ids: the scene keeps no points of
its own, it lays out the graph's node table (:meth:`PackedScene.
sweep_arrays`), so a visible event's row *is* the id a sweep reports.
The scene is built once per :class:`~repro.visibility.graph.
VisibilityGraph` (lazily, at the first vectorized sweep) and then kept
in step by the graph: its obstacles are packed and unpacked with the
graph's, and a node leaving the table renumbers the edge endpoints
(:meth:`PackedScene.renumber`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.model import Obstacle
from repro.visibility.kernel.exact import ObstacleArrays, pack_polygons

#: Initial capacity of every growable buffer.
_INITIAL_CAPACITY = 16

_X = attrgetter("x")
_Y = attrgetter("y")


def _grown(arr: np.ndarray, need: int) -> np.ndarray:
    """``arr`` with capacity at least ``need`` (amortized doubling)."""
    capacity = arr.shape[0]
    if need <= capacity:
        return arr
    while capacity < need:
        capacity *= 2
    out = np.empty((capacity,) + arr.shape[1:], dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class PackedScene:
    """Contiguous array mirror of one visibility graph's scene, over
    ``nodes``: the graph's node table (the point of each id), read in
    place."""

    __slots__ = (
        "_nodes",
        "_eab",
        "_eoid",
        "_n_edges",
        "_obs_rows",
        "_obs_edges",
        "_sweep_cache",
        "_exact_cache",
    )

    def __init__(self, nodes: Sequence[Point]) -> None:
        self._nodes = nodes
        self._eab = np.empty((_INITIAL_CAPACITY, 2), dtype=np.int64)
        self._eoid = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._n_edges = 0
        #: ``(obstacle, minx, miny, maxx, maxy)`` per packed obstacle.
        self._obs_rows: list[tuple[Obstacle, float, float, float, float]] = []
        # oid -> (first edge row, edge count).  An obstacle's edges are
        # appended together and compaction keeps their order, so the
        # run stays contiguous and in polygon order.
        self._obs_edges: dict[int, tuple[int, int]] = {}
        self._sweep_cache: tuple | None = None
        self._exact_cache: tuple[ObstacleArrays, dict[int, int]] | None = None

    # ------------------------------------------------------------- mutation
    def add_obstacle(self, obs: Obstacle, ids: Mapping[Point, int]) -> None:
        """Pack one obstacle's boundary edges, their endpoints by node id
        (``ids``: the graph's ``Point -> id`` dict, which holds them)."""
        edges = obs.polygon.edges()
        mbr = obs.mbr
        self._obs_rows.append((obs, mbr.minx, mbr.miny, mbr.maxx, mbr.maxy))
        first = self._n_edges
        self._obs_edges[obs.oid] = (first, len(edges))
        self._n_edges = first + len(edges)
        self._eab = _grown(self._eab, self._n_edges)
        self._eoid = _grown(self._eoid, self._n_edges)
        self._eab[first : self._n_edges] = [(ids[a], ids[b]) for a, b in edges]
        self._eoid[first : self._n_edges] = obs.oid
        self._sweep_cache = self._exact_cache = None

    def remove_obstacle(self, oid: int) -> None:
        """Unpack one obstacle: its MBR row goes, and its boundary edges
        with one vectorized boolean-mask pass that keeps the others'
        order (the graph drops the vertices no obstacle holds)."""
        m = self._n_edges
        keep = self._eoid[:m] != oid
        n_keep = int(keep.sum())
        if n_keep == m:
            return
        self._eab[:n_keep] = self._eab[:m][keep]
        self._eoid[:n_keep] = self._eoid[:m][keep]
        self._n_edges = n_keep
        self._obs_rows = [row for row in self._obs_rows if row[0].oid != oid]
        self._obs_edges = {}
        start = 0
        for obs, *__ in self._obs_rows:
            count = len(obs.polygon.edges())
            self._obs_edges[obs.oid] = (start, count)
            start += count
        self._sweep_cache = self._exact_cache = None

    def renumber(self, new_ids: Sequence[int]) -> None:
        """Nodes left the graph: every edge endpoint ``i`` becomes
        ``new_ids[i]``."""
        m = self._n_edges
        self._eab[:m] = np.asarray(new_ids, dtype=np.int64)[self._eab[:m]]
        self._sweep_cache = None

    # -------------------------------------------------------------- queries
    @property
    def edge_count(self) -> int:
        """Number of packed boundary edges."""
        return self._n_edges

    @property
    def obstacle_count(self) -> int:
        """Number of packed obstacles."""
        return len(self._obs_rows)

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge endpoint node ids (a, b)."""
        return self._eab[: self._n_edges, 0], self._eab[: self._n_edges, 1]

    def edge_oids(self) -> np.ndarray:
        """Per-edge owning obstacle id."""
        return self._eoid[: self._n_edges]

    def obstacle_mbrs(self) -> list[tuple[float, float, float, float]]:
        """Per packed obstacle, its bounding box ``(minx, miny, maxx,
        maxy)``."""
        return [row[1:] for row in self._obs_rows]

    def mbr_holders(self, p: Point, slack: float = 0.0) -> list[Obstacle]:
        """The packed obstacles whose closed MBR, grown by ``slack``,
        holds ``p`` — the comparison :meth:`Polygon.contains` (and,
        with ``slack=EPS``, :meth:`Polygon.on_boundary`) itself makes
        first, so running it only on these cannot change a verdict."""
        x, y = p.x, p.y
        return [
            obs
            for obs, minx, miny, maxx, maxy in self._obs_rows
            if minx - slack <= x <= maxx + slack
            and miny - slack <= y <= maxy + slack
        ]

    def mbr_meeting(self, box: Rect) -> list[Obstacle]:
        """The packed obstacles whose MBR meets ``box`` — the
        ``Rect.intersects`` that :meth:`Polygon.crosses_interior` makes
        first on a segment's bounding box, so running it only on these
        cannot change a verdict."""
        bminx, bminy, bmaxx, bmaxy = box.minx, box.miny, box.maxx, box.maxy
        return [
            obs
            for obs, minx, miny, maxx, maxy in self._obs_rows
            if minx <= bmaxx and bminx <= maxx and miny <= bmaxy and bminy <= maxy
        ]

    def obstacle_edge_range(self, oid: int) -> tuple[int, int]:
        """``(first edge row, edge count)`` of obstacle ``oid``: its
        boundary edges are that contiguous run, in polygon order."""
        return self._obs_edges[oid]

    def sweep_arrays(self) -> tuple[np.ndarray, Sequence[Point], np.ndarray]:
        """What a sweep pass lays out, read-only to callers: the nodes'
        coordinates as two contiguous rows ``x, y`` (column = node id),
        the node table itself, and :meth:`edge_endpoints` as two rows
        ``a, b``.  Cached until an obstacle or a node comes or goes (the
        table only grows between :meth:`renumber` calls)."""
        nodes = self._nodes
        n = len(nodes)
        if self._sweep_cache is None or self._sweep_cache[0].shape[1] != n:
            self._sweep_cache = (
                np.array(
                    [
                        np.fromiter(map(_X, nodes), dtype=np.float64, count=n),
                        np.fromiter(map(_Y, nodes), dtype=np.float64, count=n),
                    ]
                ).reshape(2, n),
                nodes,
                np.ascontiguousarray(self._eab[: self._n_edges].T),
            )
        return self._sweep_cache

    def exact_arrays(self) -> tuple[ObstacleArrays, dict[int, int]]:
        """The obstacles as the exact predicate reads them, in packed
        order, and each obstacle id's row there.  Cached between
        obstacle mutations; read-only to callers."""
        if self._exact_cache is None:
            self._exact_cache = (
                pack_polygons(row[0].polygon for row in self._obs_rows),
                {row[0].oid: i for i, row in enumerate(self._obs_rows)},
            )
        return self._exact_cache
