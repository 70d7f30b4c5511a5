"""`PackedScene` — obstacle geometry flattened into numpy arrays.

The vectorized sweep kernel needs the scene as contiguous arrays, not
as python ``Point``/``BoundaryEdge`` objects.  A ``PackedScene`` keeps
three synchronized groups of buffers:

* **obstacle vertices** — coordinates in capacity-doubled float64
  arrays, deduplicated by exact coordinate (two obstacles sharing a
  vertex share one packed slot, mirroring the graph's node identity);
* **boundary edges** — endpoint *indices* into the vertex arrays plus
  the owning obstacle id, append-only;
* **obstacles** — per packed obstacle its MBR row and the contiguous
  run of edge rows it owns (the strict-interior prefilter and the
  interior-departure pass of the sweep kernel read these; the exact
  predicate of :mod:`~repro.visibility.kernel.exact` reads them as
  :meth:`PackedScene.exact_arrays`);
* **free points** — entities and query points, in their own arrays
  with O(1) swap-remove deletion (a graph's entities come and go with
  ``add_entity`` / ``delete_entity``; queries only read).

The scene is built once per :class:`~repro.visibility.graph.
VisibilityGraph` (lazily, at the first vectorized sweep) and then
extended incrementally by the graph's ``add_obstacle`` /
``add_entity`` / ``delete_entity`` hooks.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.model import Obstacle
from repro.visibility.kernel.exact import ObstacleArrays, pack_polygons

#: Initial capacity of every growable buffer.
_INITIAL_CAPACITY = 16


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
    """Contiguous array mirror of one visibility graph's scene."""

    __slots__ = (
        "_vxy",
        "_n_verts",
        "_vert_points",
        "_vert_index",
        "_eab",
        "_eoid",
        "_n_edges",
        "_obs_rows",
        "_obs_edges",
        "_fxy",
        "_n_free",
        "_free_points",
        "_free_index",
        "_event_cache",
        "_sweep_cache",
        "_exact_cache",
    )

    def __init__(self) -> None:
        self._vxy = np.empty((_INITIAL_CAPACITY, 2), dtype=np.float64)
        self._n_verts = 0
        self._vert_points: list[Point] = []
        self._vert_index: dict[Point, int] = {}
        self._eab = np.empty((_INITIAL_CAPACITY, 2), dtype=np.int64)
        self._eoid = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._n_edges = 0
        #: ``(obstacle, minx, miny, maxx, maxy)`` per packed obstacle.
        self._obs_rows: list[tuple[Obstacle, float, float, float, float]] = []
        # oid -> (first edge row, edge count).  An obstacle's edges are
        # appended together and compaction keeps their order, so the
        # run stays contiguous and in polygon order.
        self._obs_edges: dict[int, tuple[int, int]] = {}
        self._fxy = np.empty((_INITIAL_CAPACITY, 2), dtype=np.float64)
        self._n_free = 0
        self._free_points: list[Point] = []
        self._free_index: dict[Point, int] = {}
        self._event_cache: tuple[np.ndarray, list[Point]] | None = None
        self._sweep_cache: tuple | None = None
        self._exact_cache: tuple[ObstacleArrays, dict[int, int]] | None = None

    # ------------------------------------------------------------- mutation
    def add_obstacle(self, obs: Obstacle) -> None:
        """Pack one obstacle's vertices and boundary edges."""
        for v in obs.polygon.vertices:
            self._intern_vertex(v)
        edges = obs.polygon.edges()
        mbr = obs.mbr
        self._obs_rows.append((obs, mbr.minx, mbr.miny, mbr.maxx, mbr.maxy))
        self._obs_edges[obs.oid] = (self._n_edges, len(edges))
        need = self._n_edges + len(edges)
        self._eab = _grown(self._eab, need)
        self._eoid = _grown(self._eoid, need)
        for a, b in edges:
            i = self._n_edges
            self._eab[i, 0] = self._vert_index[a]
            self._eab[i, 1] = self._vert_index[b]
            self._eoid[i] = obs.oid
            self._n_edges = i + 1
        self._sweep_cache = None
        self._exact_cache = None

    def remove_obstacle(self, oid: int) -> None:
        """Unpack one obstacle: drop its boundary edges and every vertex
        no remaining edge references.

        Edge rows are compacted with one vectorized boolean-mask pass;
        surviving vertices are renumbered densely and the edge endpoint
        indices remapped, so the arrays stay contiguous.
        """
        m = self._n_edges
        keep = self._eoid[:m] != oid
        n_keep = int(keep.sum())
        if n_keep == m:
            return
        kept_ab = self._eab[:m][keep]
        kept_oid = self._eoid[:m][keep]
        self._obs_rows = [row for row in self._obs_rows if row[0].oid != oid]
        self._obs_edges = {}
        start = 0
        for obs, *__ in self._obs_rows:
            count = len(obs.polygon.edges())
            self._obs_edges[obs.oid] = (start, count)
            start += count
        n = self._n_verts
        used = np.zeros(n, dtype=bool)
        if n_keep:
            used[kept_ab.reshape(-1)] = True
        if not used.all():
            remap = np.cumsum(used, dtype=np.int64) - 1
            new_points = [
                p for p, u in zip(self._vert_points, used.tolist()) if u
            ]
            self._vxy[: len(new_points)] = self._vxy[:n][used]
            self._vert_points = new_points
            self._vert_index = {p: i for i, p in enumerate(new_points)}
            self._n_verts = len(new_points)
            if n_keep:
                kept_ab = remap[kept_ab]
        self._eab[:n_keep] = kept_ab
        self._eoid[:n_keep] = kept_oid
        self._n_edges = n_keep
        self._event_cache = self._sweep_cache = None
        self._exact_cache = None

    def add_free_point(self, p: Point) -> None:
        """Pack one free point (entity or query point).

        A point coinciding with a packed obstacle vertex is already an
        event and is not packed twice (mirroring the graph's node
        identity: one ``Point`` value, one node).
        """
        if p in self._free_index or p in self._vert_index:
            return
        self._fxy = _grown(self._fxy, self._n_free + 1)
        slot = self._n_free
        self._fxy[slot, 0] = p.x
        self._fxy[slot, 1] = p.y
        self._free_points.append(p)
        self._free_index[p] = slot
        self._n_free = slot + 1
        self._event_cache = self._sweep_cache = None

    def remove_free_point(self, p: Point) -> None:
        """Unpack one free point (O(1) swap with the last slot)."""
        slot = self._free_index.pop(p, None)
        if slot is None:
            return
        last = self._n_free - 1
        if slot != last:
            self._fxy[slot] = self._fxy[last]
            moved = self._free_points[last]
            self._free_points[slot] = moved
            self._free_index[moved] = slot
        self._free_points.pop()
        self._n_free = last
        self._event_cache = self._sweep_cache = None

    def _intern_vertex(self, v: Point) -> int:
        idx = self._vert_index.get(v)
        if idx is not None:
            return idx
        # Mirror the graph's node promotion: a free point at the new
        # vertex's coordinates becomes the vertex (one event, not two).
        self.remove_free_point(v)
        self._vxy = _grown(self._vxy, self._n_verts + 1)
        idx = self._n_verts
        self._vxy[idx, 0] = v.x
        self._vxy[idx, 1] = v.y
        self._vert_points.append(v)
        self._vert_index[v] = idx
        self._n_verts = idx + 1
        self._event_cache = self._sweep_cache = None
        return idx

    # -------------------------------------------------------------- queries
    @property
    def vertex_count(self) -> int:
        """Number of packed obstacle vertices."""
        return self._n_verts

    @property
    def edge_count(self) -> int:
        """Number of packed boundary edges."""
        return self._n_edges

    @property
    def obstacle_count(self) -> int:
        """Number of packed obstacles."""
        return len(self._obs_rows)

    @property
    def free_count(self) -> int:
        """Number of packed free points."""
        return self._n_free

    def vertex_xy(self) -> np.ndarray:
        """``(n_vertices, 2)`` float64 view of obstacle vertex coords."""
        return self._vxy[: self._n_verts]

    def free_xy(self) -> np.ndarray:
        """``(n_free, 2)`` float64 view of free-point coords."""
        return self._fxy[: self._n_free]

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge endpoint indices into :meth:`vertex_xy` (a, b)."""
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

    def vertex_id(self, p: Point) -> int | None:
        """Packed index of obstacle vertex ``p`` (``None`` if not one)."""
        return self._vert_index.get(p)

    def event_arrays(self) -> tuple[np.ndarray, list[Point]]:
        """Every event, in packed order (vertices then free points), as
        ``(coords, points)``: an ``(n, 2)`` float64 array and the
        parallel ``Point`` list.  Cached between mutations — one sweep
        per graph node means this is requested O(n) times per build —
        and must be treated as read-only by callers.
        """
        if self._event_cache is None:
            xy = (
                np.vstack([self.vertex_xy(), self.free_xy()])
                if self._n_free
                else self.vertex_xy()
            )
            self._event_cache = (xy, self._vert_points + self._free_points)
        return self._event_cache

    def sweep_arrays(self) -> tuple[np.ndarray, list[Point], np.ndarray]:
        """What a sweep pass lays out, cached between mutations and
        read-only to callers: the events of :meth:`event_arrays` as two
        contiguous rows ``x, y`` with the parallel ``Point`` list, and
        :meth:`edge_endpoints` as two rows ``a, b`` (vertices are the
        first events, so an endpoint's index is its event row)."""
        if self._sweep_cache is None:
            xy, points = self.event_arrays()
            self._sweep_cache = (
                np.ascontiguousarray(xy.T),
                points,
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

    def event_points(self) -> list[Point]:
        """Every event point, in packed order: vertices then free points.

        Index ``i`` corresponds to row ``i`` of
        ``event_arrays()[0]``.
        """
        return self.event_arrays()[1]
