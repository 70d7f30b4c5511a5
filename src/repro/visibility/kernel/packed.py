"""`PackedScene` — a graph's obstacles flattened into numpy arrays.

The exact predicate (:mod:`~repro.visibility.kernel.exact`) and the
tangent rule (:mod:`~repro.visibility.tangent`) read a graph's scene as
contiguous arrays, not as python ``Point`` objects.  A ``PackedScene``
keeps two synchronized groups of buffers:

* **boundary edges** — endpoint *node ids*, each obstacle's edges one
  contiguous run in polygon order;
* **obstacles** — per packed obstacle its MBR row (the scalar path's
  MBR reject, :meth:`PackedScene.mbr_meeting`), and the obstacles as
  the exact predicate reads them (:meth:`PackedScene.exact_arrays`).

The scene keeps no points of its own: it lays out the graph's node
table (:meth:`PackedScene.node_arrays`), so a row of that layout *is*
a node id.  The scene is built once per :class:`~repro.visibility.graph.
VisibilityGraph` (lazily, at the first array pass) and then kept in
step by the graph: its obstacles are packed and unpacked with the
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
from repro.visibility.kernel.exact import ObstacleArrays, orient_many, pack_polygons

#: Initial capacity of the growable edge buffer.
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
        "_n_edges",
        "_obs_rows",
        "_obs_edges",
        "_node_cache",
        "_exact_cache",
        "_wedge_cache",
    )

    def __init__(self, nodes: Sequence[Point]) -> None:
        self._nodes = nodes
        self._eab = np.empty((_INITIAL_CAPACITY, 2), dtype=np.int64)
        self._n_edges = 0
        #: ``(obstacle, minx, miny, maxx, maxy)`` per packed obstacle.
        self._obs_rows: list[tuple[Obstacle, float, float, float, float]] = []
        # oid -> (first edge row, edge count).  An obstacle's edges are
        # appended together and compaction keeps their order, so the
        # run stays contiguous and in polygon order.
        self._obs_edges: dict[int, tuple[int, int]] = {}
        self._node_cache: tuple[np.ndarray, Sequence[Point]] | None = None
        self._exact_cache: tuple[ObstacleArrays, dict[int, int]] | None = None
        self._wedge_cache: tuple[np.ndarray, ...] | None = None

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
        self._eab[first : self._n_edges] = [(ids[a], ids[b]) for a, b in edges]
        self._exact_cache = self._wedge_cache = None

    def remove_obstacle(self, oid: int) -> None:
        """Unpack one obstacle: its MBR row goes, and its run of boundary
        edges, the later runs moving up in order (the graph drops the
        vertices no obstacle holds)."""
        run = self._obs_edges.pop(oid, None)
        if run is None:
            return
        first, count = run
        m = self._n_edges
        self._eab[first : m - count] = self._eab[first + count : m]
        self._n_edges = m - count
        self._obs_rows = [row for row in self._obs_rows if row[0].oid != oid]
        self._obs_edges = {
            other: (start - count if start > first else start, length)
            for other, (start, length) in self._obs_edges.items()
        }
        self._exact_cache = self._wedge_cache = None

    def renumber(self, new_ids: Sequence[int]) -> None:
        """Nodes left the graph: every edge endpoint ``i`` becomes
        ``new_ids[i]``."""
        m = self._n_edges
        self._eab[:m] = np.asarray(new_ids, dtype=np.int64)[self._eab[:m]]
        self._node_cache = self._wedge_cache = None

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

    def node_arrays(self) -> tuple[np.ndarray, Sequence[Point]]:
        """The nodes' coordinates as two contiguous rows ``x, y``
        (column = node id) and the node table itself, read-only to
        callers.  Cached until a node comes or goes (the table only
        grows between :meth:`renumber` calls)."""
        nodes = self._nodes
        n = len(nodes)
        if self._node_cache is None or self._node_cache[0].shape[1] != n:
            self._node_cache = (
                np.array(
                    [
                        np.fromiter(map(_X, nodes), dtype=np.float64, count=n),
                        np.fromiter(map(_Y, nodes), dtype=np.float64, count=n),
                    ]
                ).reshape(2, n),
                nodes,
            )
        return self._node_cache

    def wedge_arrays(self) -> tuple[np.ndarray, ...]:
        """Per vertex of exactly one packed obstacle, the node ids of the
        vertex and of its two polygon neighbours, and the obstacle's row
        in :meth:`exact_arrays` when it turns strictly left at every
        vertex (strictly convex), else -1: ``(vertex, previous, next,
        convex row)`` — what the tangent rule reads.  Cached like
        :meth:`node_arrays`; read-only to callers."""
        if self._wedge_cache is None:
            a, b = self.edge_endpoints()
            x, y = self.node_arrays()[0]
            # Edge row e runs from a vertex to its successor; the edge
            # before it in its obstacle's run (cyclically) comes in from
            # the vertex's predecessor.  Each obstacle a vertex belongs
            # to starts one edge there.
            before = np.arange(-1, a.size - 1)
            runs = np.array([*self._obs_edges.values()], dtype=np.int64).reshape(-1, 2)
            before[runs[:, 0]] = runs[:, 0] + runs[:, 1] - 1
            prev = a[before]
            # The turn at every vertex, exactly.
            left = orient_many(x[prev], y[prev], x[a], y[a], x[b], y[b]) > 0
            row = np.arange(runs.shape[0])
            convex = np.logical_and.reduceat(left, runs[:, 0]) if a.size else row
            owner = np.where(convex, row, -1).repeat(runs[:, 1])
            alone = (np.bincount(a) == 1)[a]
            self._wedge_cache = (a[alone], prev[alone], b[alone], owner[alone])
        return self._wedge_cache

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
