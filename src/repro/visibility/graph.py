"""The dynamic local visibility graph (paper Sec. 4).

Nodes are obstacle vertices plus *free points* (query points and
entities); an edge connects two mutually visible nodes, weighted by
Euclidean distance.  The paper's three maintenance operations are
implemented exactly as described:

* ``add_obstacle`` — used by the iterative obstructed-distance
  computation (Fig. 8) to grow the graph: removes existing edges that
  cross the new polygon's interior, then connects each new vertex
  (``add_obstacles`` does it for a whole retrieved set at once: one
  edge removal against all the new polygons, one decision over all the
  new vertices' pairs against the final scene);
* ``add_entity`` — connects the new point;
* ``delete_entity`` — removes the point and its incident edges.

The graph is the *tangent* visibility graph [PV95] (paper Sec. 2.3,
:mod:`repro.visibility.tangent`): an edge joins two mutually visible
nodes whose segment is tangent at both ends, the only edges a shortest
path can use.  Every operation that adds nodes is "register, then
connect": nodes enter the graph *pending* and
:meth:`VisibilityGraph.connect` pairs the pending nodes of any number
of graphs once with every node, keeps the tangent pairs, and has the
backend decide which of them see each other in one call.  ``build``,
``rebuild``, ``add_obstacles`` and ``add_entity`` are its one-graph
uses; a caller with many graphs to build (a distance join's seeds)
registers them all (``registered``, ``register_obstacles``) and
connects once.  A node whose owning obstacles change (an insert or a
delete of one that shares it) is connected again.

``remove_obstacle`` extends the paper's set with the inverse of
``add_obstacle``: the obstacle's vertices and boundary edges are torn
out and the visibility lost to the obstacle is rediscovered by a
*local repair* — only node pairs whose connecting segment meets the
removed polygon's bounding box can have been blocked by it (or, at one
of its vertices, cut by the tangent rule), so only those tangent pairs
are re-decided.  This turns an obstacle delete from a full rebuild
into an in-place repair proportional to the obstacle's visibility
shadow.

Nodes are dense ``int`` ids, ``0 .. n-1`` in insertion order.  The
graph owns one node table — the ``Point`` of each id and one ``Point
-> id`` dict — and keeps its adjacency as one ``{id: weight}`` row per
node.  A ``Point`` is hashed where it enters (registration,
``restore``, the lookup of an off-graph point) and not after: anchors
are node ids and their distances, pairs are decided as id arrays, and
edges are installed, cut and frozen by id.  A node that leaves
closes its gap in order, so the ids are always the frozen ids of
:mod:`repro.visibility.csr`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.model import Obstacle
from repro.visibility.kernel.backend import Backend, resolve_backend
from repro.visibility.tangent import near_edges, pending_pairs, region_pairs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.visibility.kernel.packed import PackedScene


class VisibilityGraph:
    """A local visibility graph with dynamic maintenance operations.

    ``method`` names the visibility backend (see
    :mod:`repro.visibility.kernel.backend`): ``"numpy-kernel"`` (the
    default, ``None``) decides pairs with the exact predicate over
    arrays, ``"naive"`` one pair at a time — the test oracle.  A
    :class:`~repro.runtime.context.QueryContext` hands its graphs its
    own resolved backend instead, so they tick its stats.
    """

    __slots__ = (
        "_points",
        "_ids",
        "_rows",
        "_obstacles",
        "_vertices",
        "_free",
        "_promoted",
        "_obstacle_revision",
        "_structure_revision",
        "_csr",
        "_backend",
        "_pending",
        "_packed",
        "method",
    )

    def __init__(self, method: "str | Backend | None" = None) -> None:
        backend = method if isinstance(method, Backend) else resolve_backend(method)
        self.method = backend.name
        self._backend = backend
        #: Nodes registered but not connected yet (:meth:`connect`).
        self._pending: list[Point] = []
        self._obstacle_revision = 0
        self._structure_revision = 0
        #: Frozen CSR view of the adjacency (``(structure_revision,
        #: CSRGraph)`` or ``None``), maintained by
        #: :mod:`repro.visibility.csr`.
        self._csr: "tuple[int, object] | None" = None
        #: The node table — per id its point (updated in place only: the
        #: packed scene lays it out) and the one ``Point -> id`` dict —
        #: and per id its adjacency row.
        self._points: list[Point] = []
        self._ids: dict[Point, int] = {}
        self._rows: list[dict[int, float]] = []
        self._obstacles: dict[int, Obstacle] = {}
        #: Per obstacle vertex, how many of the graph's obstacles have it.
        self._vertices: dict[Point, int] = {}
        self._free: set[Point] = set()
        # Free points promoted to obstacle vertices (coinciding
        # coordinates): remembered so removing the owning obstacle
        # demotes them back to free points instead of deleting them.
        self._promoted: set[Point] = set()
        self._packed: "PackedScene | None" = None

    # -------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        points: Iterable[Point],
        obstacles: Iterable[Obstacle],
        *,
        method: "str | Backend | None" = None,
    ) -> "VisibilityGraph":
        """Construct the tangent visibility graph over ``points`` and
        ``obstacles`` in one pass: every node pair tangent at both ends
        (:mod:`repro.visibility.tangent`) is decided once, by the
        backend."""
        graph = cls.registered(points, obstacles, method=method)
        cls.connect([graph])
        return graph

    @classmethod
    def registered(
        cls,
        points: Iterable[Point],
        obstacles: Iterable[Obstacle],
        *,
        method: "str | Backend | None" = None,
    ) -> "VisibilityGraph":
        """The first half of :meth:`build`: a graph holding ``points``
        and ``obstacles`` with every node pending — no edge yet, until
        :meth:`connect`."""
        graph = cls(method=method)
        for obs in obstacles:
            graph._register_obstacle(obs)
        for p in points:
            graph._register_free_point(p)
        graph._pending = list(graph._points)
        return graph

    @staticmethod
    def connect(graphs: "Iterable[VisibilityGraph]") -> None:
        """Pair every pending node of ``graphs`` (distinct, sharing one
        backend) once with every node, keep the pairs tangent at both
        ends, and install those the backend finds visible — one
        backend call for all the graphs.  A backend failure leaves the
        nodes pending."""
        waiting = [graph for graph in graphs if graph._pending]
        if not waiting:
            return
        pairs = pending_pairs(waiting)
        seen = waiting[0]._backend.connect_pairs(
            [(found, graph) for (found, __), graph in zip(pairs, waiting)]
        )
        for graph, ((u, v, __), pending), visible in zip(waiting, pairs, seen):
            graph._settle(pending, u[visible], v[visible])

    @property
    def pending(self) -> Sequence[Point]:
        """The nodes registered but not connected yet."""
        return self._pending

    def visible_from_many(self, sources: Sequence[Point]) -> list[list[Point]]:
        """Per source, the nodes it sees — one call into the graph's
        backend for all of them.  Sources need not be nodes."""
        return self._backend.visible_from_many(sources, self)

    def visible_ids(
        self, sources: Sequence[Point]
    ) -> list[tuple[list[int], list[float]]]:
        """:meth:`visible_from_many` before the nodes become points: per
        source, the ids of the nodes it sees, in id order, and their
        distances."""
        return self._backend.visible_ids([(sources, self)])[0]

    # --------------------------------------------------------- serialization
    def snapshot_parts(
        self,
    ) -> tuple[list[Obstacle], list[Point], list[tuple[Point, Point]]]:
        """The graph flattened for serialization.

        Returns ``(obstacles, free_points, edges)`` such that
        :meth:`restore` reproduces this graph exactly without deciding a
        single pair.  Promoted free points (entities
        coinciding with obstacle vertices) are folded into the free
        list — re-registering them against the restored obstacles
        re-promotes them.
        """
        free = list(self._free) + sorted(self._promoted)
        points = self._points
        edges = [(points[u], points[v]) for u, v in self.edge_ids()]
        return list(self._obstacles.values()), free, edges

    @classmethod
    def restore(
        cls,
        obstacles: Iterable[Obstacle],
        free_points: Iterable[Point],
        edges: Iterable[tuple[Point, Point]],
        *,
        method: "str | Backend | None" = None,
    ) -> "VisibilityGraph":
        """Reassemble a graph from :meth:`snapshot_parts` output.

        Obstacles and free points go through the normal registration
        path (so vertex and promotion bookkeeping are rebuilt as at live
        construction), but the visibility edges are installed verbatim
        instead of decided again — restoring a cached graph costs array
        writes, not visibility tests.  Edge
        endpoints must be nodes (obstacle vertices or free points);
        unknown endpoints raise :class:`~repro.errors.QueryError`.
        """
        graph = cls(method=method)
        for obs in obstacles:
            graph._register_obstacle(obs)
        for p in free_points:
            graph._register_free_point(p)
        ids = graph._ids
        ends = []
        for u, v in edges:
            if u not in ids or v not in ids:
                raise QueryError(
                    f"restored edge ({u!r}, {v!r}) references a point "
                    f"that is not a node"
                )
            ends.append((ids[u], ids[v]))
        graph._install_pairs(*np.array(ends, dtype=np.int64).reshape(-1, 2).T)
        return graph

    def packed_scene(self) -> "PackedScene":
        """The scene flattened into numpy arrays over the node table
        (built lazily, then kept in sync by the dynamic-update hooks)."""
        if self._packed is None:
            from repro.visibility.kernel.packed import PackedScene

            self._packed = PackedScene(self._points)
            for obs in self._obstacles.values():
                self._packed.add_obstacle(obs, self._ids)
        return self._packed

    def scene_obstacles(self) -> Sequence[Obstacle]:
        """All obstacles currently in the graph."""
        return list(self._obstacles.values())

    # ------------------------------------------------------------ inspection
    @property
    def node_count(self) -> int:
        """Number of graph nodes."""
        return len(self._points)

    @property
    def edge_count(self) -> int:
        """Number of undirected visibility edges."""
        return sum(map(len, self._rows)) // 2

    def nodes(self) -> Iterator[Point]:
        """Iterate over all nodes, in id order."""
        return iter(self._points)

    def has_node(self, p: Point) -> bool:
        """True when ``p`` is a node."""
        return p in self._ids

    def node_id(self, p: Point) -> int:
        """The id of node ``p``: its position in :meth:`nodes`."""
        try:
            return self._ids[p]
        except KeyError:
            raise QueryError(f"{p!r} is not a node of this visibility graph") from None

    def neighbors(self, p: Point) -> Mapping[Point, float]:
        """Adjacent nodes with edge weights (Euclidean lengths), in
        insertion order — a fresh mapping of ``p``'s row."""
        points = self._points
        return {points[v]: w for v, w in self._rows[self.node_id(p)].items()}

    def edge_ids(self) -> list[tuple[int, int]]:
        """Every edge once, as node ids ``(u, v)`` with ``u``'s point the
        smaller: by node, then in row order."""
        points = self._points
        return [
            (u, v)
            for u, row in enumerate(self._rows)
            for v in row
            if points[u] < points[v]
        ]

    @property
    def obstacle_revision(self) -> int:
        """Monotone counter bumped whenever an obstacle is incorporated.

        Free-point additions/removals do not bump it: shortest paths
        turn only at obstacle vertices, so distances between existing
        nodes can change only when the obstacle set does.  Structures
        derived from the graph (e.g. a cached Dijkstra field) compare
        revisions instead of being invalidated by hand.
        """
        return self._obstacle_revision

    @property
    def structure_revision(self) -> int:
        """Monotone counter bumped on *any* topology change.

        Unlike :attr:`obstacle_revision` this also moves on free-point
        additions/removals: node-indexed structures (the frozen CSR
        arrays of :mod:`repro.visibility.csr`) are invalidated by any
        change to the node or edge set, not just by obstacle
        incorporation.
        """
        return self._structure_revision

    def has_obstacle(self, oid: int) -> bool:
        """True when the obstacle with id ``oid`` is in the graph."""
        return oid in self._obstacles

    def obstacle_ids(self) -> set[int]:
        """Ids of all obstacles in the graph."""
        return set(self._obstacles)

    def free_points(self) -> set[Point]:
        """The current free points (entities / query points)."""
        return set(self._free)

    # ------------------------------------------------------- dynamic updates
    def rebuild(self, obstacles: Iterable[Obstacle]) -> None:
        """Replace the obstacle set in place, keeping all free points.

        Deletions cannot be applied incrementally (edges the obstacle
        blocked would have to be rediscovered), so the graph is rebuilt
        from scratch — but *in place*, preserving object identity:
        holders of this graph (cached entries, distance fields) see the
        new obstacle set through the ``obstacle_revision`` bump instead
        of dangling on a stale copy.
        """
        free = list(self._free) + sorted(self._promoted)
        self._points.clear()
        self._ids.clear()
        self._rows.clear()
        self._obstacles.clear()
        self._vertices.clear()
        self._free.clear()
        self._promoted.clear()
        self._packed = None
        self._obstacle_revision += 1
        self._structure_revision += 1
        self._csr = None
        for obs in obstacles:
            self._register_obstacle(obs)
        for p in free:
            self._register_free_point(p)
        self._pending = list(self._points)
        self.connect([self])

    def add_obstacle(self, obs: Obstacle) -> bool:
        """Incorporate a new obstacle (paper's ``add_obstacle``).

        Removes existing edges crossing the polygon's interior, then
        connects each new vertex.  Returns ``False`` when the obstacle
        was already present.
        """
        return self.add_obstacles((obs,)) == 1

    def add_obstacles(self, obstacles: Iterable[Obstacle]) -> int:
        """Incorporate a retrieved set of obstacles in one growth step
        (Fig. 8's enlargement); returns how many were new.

        Equal to :meth:`add_obstacle` folded over the set in any order
        — an edge survives iff it crosses no polygon's interior, the
        pairs of a new or shared vertex are decided in the final scene
        — at the cost of one edge removal and one connect, and with one
        re-freeze for the CSR view's holders instead of one per
        obstacle.
        """
        added = self.register_obstacles(obstacles)
        self.connect([self])
        return added

    def register_obstacles(self, obstacles: Iterable[Obstacle]) -> int:
        """The first half of :meth:`add_obstacles`: the existing edges
        crossing a new polygon's interior go, the new obstacles enter
        the scene, and their new vertices — and the existing nodes they
        share, whose pairs the tangent rule re-decides — wait, pending,
        for :meth:`connect`.  Returns how many obstacles were new."""
        fresh = {
            obs.oid: obs for obs in obstacles if obs.oid not in self._obstacles
        }
        if not fresh:
            return 0
        for obs in fresh.values():
            shared = [v for v in obs.polygon.vertices if v in self._ids]
            self._pending += self._register_obstacle(obs)
            self._pending += [p for p in shared if p not in self._pending]
        near = near_edges(self, [obs.mbr for obs in fresh.values()])
        cut = ~self._backend.visible_pairs([(near, self)], only=[*fresh.values()])[0]
        self._remove_edges(zip(near.u[cut].tolist(), near.v[cut].tolist()))
        return len(fresh)

    def remove_obstacle(self, oid: int) -> bool:
        """Remove one obstacle and repair the graph in place.

        The inverse of :meth:`add_obstacle`: the obstacle's boundary
        edges leave the scene, its vertices leave the node set (unless
        another obstacle shares them), and every tangent node pair the
        obstacle could have been keeping apart is re-decided — a pair
        can gain visibility only if its segment crossed the removed
        interior, and tangency only at one of the obstacle's vertices,
        so the repair is confined to segments meeting the obstacle's
        MBR.  Returns ``False`` when the obstacle is not in the graph.
        """
        obs = self._obstacles.pop(oid, None)
        if obs is None:
            return False
        self._obstacle_revision += 1
        self._structure_revision += 1
        poly = obs.polygon
        revived: list[Point] = []
        shared: list[Point] = []
        gone: list[int] = []
        for v in poly.vertices:
            held = self._vertices.pop(v) - 1
            if held:
                self._vertices[v] = held
                shared.append(v)
                continue
            if v in self._promoted:
                # The vertex doubled as an entity before (or after) the
                # obstacle arrived: demote it back to a free point —
                # its node and edges stay (a cached query centre must
                # survive the delete of an obstacle cornered on it).
                self._promoted.discard(v)
                self._free.add(v)
                revived.append(v)
            elif v in self._ids:
                # Owned by no remaining obstacle: leaves the node set.
                gone.append(self._ids[v])
        self._drop_nodes(gone)
        if self._packed is not None:
            self._packed.remove_obstacle(oid)
        self._drop_stale_pending()
        # The vertices it shared are decided again by connect; the other
        # pairs near it that keep the tangent rule are re-tested with
        # the exact oracle, so the repair equals a from-scratch rebuild.
        self._pending += [p for p in shared + revived if p not in self._pending]
        pairs = region_pairs(self, poly.mbr)
        visible = self._backend.visible_pairs([(pairs, self)])[0]
        self._install_pairs(pairs.u[visible], pairs.v[visible])
        self.connect([self])
        return True

    def add_entity(self, p: Point) -> bool:
        """Add a free point and connect it to every node it sees (at an
        obstacle vertex, one whose side of the segment is tangent).

        Returns ``False`` when ``p`` already is a node (e.g. the query
        point, a duplicate entity, or an obstacle vertex).
        """
        if p in self._ids:
            return False
        self._register_free_point(p)
        self._pending.append(p)
        self.connect([self])
        return True

    def delete_entity(self, p: Point) -> bool:
        """Remove a free point and its incident edges.

        Obstacle vertices cannot be deleted; returns ``False`` for them
        and for unknown points.
        """
        if p not in self._free:
            return False
        self._structure_revision += 1
        self._drop_nodes([self._ids[p]])
        self._free.discard(p)
        self._drop_stale_pending()
        return True

    # ------------------------------------------------------------- internals
    def _register_obstacle(self, obs: Obstacle) -> list[Point]:
        self._obstacles[obs.oid] = obs
        self._obstacle_revision += 1
        self._structure_revision += 1
        new_vertices: list[Point] = []
        for v in obs.polygon.vertices:
            self._vertices[v] = self._vertices.get(v, 0) + 1
            if v not in self._ids:
                self._add_node(v)
                new_vertices.append(v)
            # A free point coinciding with the new vertex is promoted to
            # an obstacle vertex: it keeps its node (and edges) but can
            # no longer be removed by delete_entity, which would tear an
            # obstacle corner out of the graph.  remove_obstacle demotes
            # it back when the last owning obstacle goes.
            if v in self._free:
                self._free.discard(v)
                self._promoted.add(v)
        if self._packed is not None:
            self._packed.add_obstacle(obs, self._ids)
        return new_vertices

    def _register_free_point(self, p: Point) -> None:
        if p in self._vertices:
            # p coincides with an obstacle vertex: already a node, and
            # it must not enter _free — delete_entity would tear the
            # obstacle corner out of the graph (the reverse order,
            # obstacle arriving second, is handled by the promotion in
            # _register_obstacle).  Remember it so remove_obstacle can
            # demote it back to a free point.
            self._promoted.add(p)
            return
        self._structure_revision += 1
        if p not in self._ids:
            self._add_node(p)
        self._free.add(p)

    def _add_node(self, p: Point) -> None:
        self._ids[p] = len(self._points)
        self._points.append(p)
        self._rows.append({})

    def _drop_nodes(self, gone: Sequence[int]) -> None:
        """Remove the nodes ``gone`` and their edges; the others keep
        their order and close the gaps, so ids stay ``0 .. n-1``."""
        if not gone:
            return
        gone = set(gone)
        keep = [i for i in range(len(self._points)) if i not in gone]
        renumber = dict(zip(keep, range(len(keep))))
        rows = self._rows
        self._rows = [
            {renumber[v]: w for v, w in rows[i].items() if v in renumber}
            for i in keep
        ]
        if self._packed is not None:
            self._packed.renumber([renumber.get(i, -1) for i in range(len(rows))])
        self._points[:] = [self._points[i] for i in keep]
        self._ids.clear()
        self._ids.update(zip(self._points, range(len(keep))))

    def _settle(self, pending: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
        """A connect's outcome: the ``pending`` nodes' pairs ``(u[k],
        v[k])`` found visible become edges, and a pending node that had
        edges already (one whose owning obstacles, and the tangent rule
        at it with them, changed) loses the others — the edges it keeps
        keep their places in the rows."""
        rows = self._rows
        held = [i for i in pending.tolist() if rows[i]]
        self._pending = []
        if held:
            near = np.isin(u, held) | np.isin(v, held)
            kept = set(zip(u[near].tolist(), v[near].tolist()))
            self._remove_edges(
                dict.fromkeys(
                    (min(i, j), max(i, j))
                    for i in held
                    for j in rows[i]
                    if (i, j) not in kept and (j, i) not in kept
                )
            )
        self._install_pairs(u, v)

    def _drop_stale_pending(self) -> None:
        """A node that left the graph no longer waits for a connect."""
        if self._pending:
            self._pending = [p for p in self._pending if p in self._ids]

    def _install_pairs(self, u: np.ndarray, v: np.ndarray) -> None:
        """Connect node ``u[k]`` to node ``v[k]`` for every ``k``, in
        that order, at their distance — ``Point.distance`` to the bit,
        over arrays.  The structure revision moves once."""
        x, y = self.packed_scene().node_arrays()[0]
        dx = x[u] - x[v]
        dy = y[u] - y[v]
        rows = self._rows
        for i, j, weight in zip(
            u.tolist(), v.tolist(), np.sqrt(dx * dx + dy * dy).tolist()
        ):
            rows[i][j] = weight
            rows[j][i] = weight
        self._structure_revision += 1

    def _remove_edges(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Cut the edges ``(u, v)`` (node ids)."""
        self._structure_revision += 1
        rows = self._rows
        for u, v in pairs:
            del rows[u][v]
            del rows[v][u]
