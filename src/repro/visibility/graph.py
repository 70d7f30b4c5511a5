"""The dynamic local visibility graph (paper Sec. 4).

Nodes are obstacle vertices plus *free points* (query points and
entities); an edge connects two mutually visible nodes, weighted by
Euclidean distance.  The paper's three maintenance operations are
implemented exactly as described:

* ``add_obstacle`` — used by the iterative obstructed-distance
  computation (Fig. 8) to grow the graph: removes existing edges that
  cross the new polygon's interior, then sweeps each new vertex
  (``add_obstacles`` does it for a whole retrieved set at once: one
  edge removal against all the new polygons, one sweep of all the new
  vertices against the final scene);
* ``add_entity`` — one rotational sweep for the new point;
* ``delete_entity`` — removes the point and its incident edges.

Every operation that sweeps is "register, then connect": nodes enter
the graph *pending* and :meth:`VisibilityGraph.connect` sweeps the
pending nodes of any number of graphs in one backend call.  ``build``,
``rebuild``, ``add_obstacles`` and ``add_entity`` are its one-graph
uses; a caller with many graphs to build (a distance join's seeds)
registers them all (``registered``, ``register_obstacles``) and
connects once.

``remove_obstacle`` extends the paper's set with the inverse of
``add_obstacle``: the obstacle's vertices and boundary edges are torn
out and the visibility lost to the obstacle is rediscovered by a
*local re-sweep* — only node pairs whose connecting segment meets the
removed polygon's bounding box can have been blocked by it, so only
those pairs are re-examined (against the exact oracle both sweep
backends reduce to).  This turns an obstacle delete from a full
rebuild into an in-place repair proportional to the obstacle's
visibility shadow.

Nodes are dense ``int`` ids, ``0 .. n-1`` in insertion order.  The
graph owns one node table — the ``Point`` of each id and one ``Point
-> id`` dict — and keeps its adjacency as one ``{id: weight}`` row per
node.  A ``Point`` is hashed where it enters (registration,
``restore``, the lookup of an off-graph point) and not after: sweeps
report node ids and their distances, and edges are installed, cut and
frozen by id.  A node that leaves closes its gap in order, so the ids
are always the frozen ids of :mod:`repro.visibility.csr`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, TYPE_CHECKING

from repro.errors import QueryError
from repro.geometry.constants import EPS
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.model import Obstacle
from repro.visibility.edges import BoundaryEdge
from repro.visibility.kernel.backend import (
    VisibilityBackend,
    _StatsAdapter,
    _TimedBackend,
    resolve_backend,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.visibility.kernel.packed import PackedScene


class VisibilityGraph:
    """A local visibility graph with dynamic maintenance operations.

    ``method`` selects the visibility backend by name or instance (see
    :mod:`repro.visibility.kernel.backend`): ``"python-sweep"`` is the
    paper's rotational plane sweep [SS84], ``"numpy-kernel"`` the
    vectorized equivalent; both assume obstacle boundaries do not
    cross each other (disjoint interiors — the paper's standing
    assumption).  ``"naive"`` is the exact pairwise
    oracle, slower but valid even for overlapping obstacles.  ``None``
    is the numpy kernel.
    """

    __slots__ = (
        "_points",
        "_ids",
        "_rows",
        "_obstacles",
        "_incident",
        "_free",
        "_promoted",
        "_boundary",
        "_edges",
        "_obstacle_revision",
        "_structure_revision",
        "_csr",
        "_backend",
        "_pending",
        "_packed",
        "method",
    )

    def __init__(self, method: "str | VisibilityBackend | None" = None) -> None:
        backend = resolve_backend(method)
        self.method = backend.name
        # A caller-owned backend that only sweeps gets what every named
        # one inherits: the scalar loops behind add_obstacles and
        # remove_obstacle, the looping scenes entry behind connect.
        self._backend = (
            backend
            if isinstance(backend, _TimedBackend)
            else _StatsAdapter(backend, None)
        )
        #: Nodes registered but not swept yet (:meth:`connect`).
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
        self._incident: dict[Point, list[BoundaryEdge]] = {}
        self._free: set[Point] = set()
        # Free points promoted to obstacle vertices (coinciding
        # coordinates): remembered so removing the owning obstacle
        # demotes them back to free points instead of deleting them.
        self._promoted: set[Point] = set()
        self._boundary: dict[Point, tuple[Obstacle, ...]] = {}
        self._edges: list[BoundaryEdge] = []
        self._packed: "PackedScene | None" = None

    # -------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        points: Iterable[Point],
        obstacles: Iterable[Obstacle],
        *,
        method: "str | VisibilityBackend | None" = None,
    ) -> "VisibilityGraph":
        """Construct a graph over ``points`` and ``obstacles`` in one pass.

        With a sweep backend this is the paper's
        ``build_visibility_graph`` ([SS84], one rotational sweep per
        node, no tangent simplification).
        """
        graph = cls.registered(points, obstacles, method=method)
        cls.connect([graph])
        return graph

    @classmethod
    def registered(
        cls,
        points: Iterable[Point],
        obstacles: Iterable[Obstacle],
        *,
        method: "str | VisibilityBackend | None" = None,
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
        """Sweep every pending node of ``graphs`` (distinct, sharing one
        backend) in one backend call and install each one's visible
        set.  A backend failure leaves the nodes pending."""
        waiting = [graph for graph in graphs if graph._pending]
        if not waiting:
            return
        seen = waiting[0]._backend.visible_ids(
            [(graph._pending, graph) for graph in waiting]
        )
        for graph, visible in zip(waiting, seen):
            pending, graph._pending = graph._pending, []
            for node, (nodes, legs) in zip(pending, visible):
                graph._install_visible(graph._ids[node], nodes, legs)

    @property
    def pending(self) -> Sequence[Point]:
        """The nodes registered but not swept yet."""
        return self._pending

    def visible_from_many(self, sources: Sequence[Point]) -> list[list[Point]]:
        """Per source, the nodes it sees — one call into the graph's
        backend for all of them.  Sources need not be nodes."""
        return self._backend.visible_from_many(sources, self)

    def visible_ids(
        self, sources: Sequence[Point]
    ) -> list[tuple[list[int], list[float]]]:
        """:meth:`visible_from_many` before the nodes become points: per
        source, the ids of the nodes it sees and their distances."""
        return self._backend.visible_ids([(sources, self)])[0]

    # --------------------------------------------------------- serialization
    def snapshot_parts(
        self,
    ) -> tuple[list[Obstacle], list[Point], list[tuple[Point, Point]]]:
        """The graph flattened for serialization.

        Returns ``(obstacles, free_points, edges)`` such that
        :meth:`restore` reproduces this graph exactly without running a
        single visibility sweep.  Promoted free points (entities
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
        method: "str | VisibilityBackend | None" = None,
    ) -> "VisibilityGraph":
        """Reassemble a graph from :meth:`snapshot_parts` output.

        Obstacles and free points go through the normal registration
        path (so incident-edge, boundary-membership and promotion
        bookkeeping are rebuilt as at live construction), but the
        visibility edges are installed verbatim instead of re-swept —
        restoring a cached graph costs array writes, not sweeps.  Edge
        endpoints must be nodes (obstacle vertices or free points);
        unknown endpoints raise :class:`~repro.errors.QueryError`.
        """
        graph = cls(method=method)
        for obs in obstacles:
            graph._register_obstacle(obs)
        for p in free_points:
            graph._register_free_point(p)
        ids = graph._ids
        for u, v in edges:
            if u not in ids or v not in ids:
                raise QueryError(
                    f"restored edge ({u!r}, {v!r}) references a point "
                    f"that is not a node"
                )
            graph._set_edge(ids[u], ids[v])
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

    # ------------------------------------------------------- SweepScene API
    def sweep_points(self) -> Iterator[Point]:
        """Every node (obstacle vertices and free points)."""
        return iter(self._points)

    def incident_edges(self, v: Point) -> Sequence[BoundaryEdge]:
        """Boundary edges having ``v`` as an endpoint."""
        return self._incident.get(v, ())

    def boundary_edges(self) -> Iterable[BoundaryEdge]:
        """All obstacle boundary edges."""
        return self._edges

    def boundary_obstacles(self, p: Point) -> Sequence[Obstacle]:
        """Obstacles whose boundary contains ``p``.

        Known nodes answer from the registration-time cache; unknown
        probe points (e.g. ONN candidates evaluated against a shared
        distance field without being added to the graph) are checked on
        the fly, so the sweep's interior-departure test stays correct
        for entities lying exactly on obstacle boundaries.
        """
        cached = self._boundary.get(p)
        if cached is not None:
            return cached
        if p in self._ids:
            return ()
        # on_boundary's own first check (the MBR grown by EPS), made on
        # the packed MBR rows: no Rect is grown per obstacle per probe.
        return tuple(
            obs
            for obs in self.packed_scene().mbr_holders(p, EPS)
            if obs.polygon.on_boundary(p)
        )

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
        self._incident.clear()
        self._free.clear()
        self._promoted.clear()
        self._boundary.clear()
        self._edges.clear()
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
        runs one rotational sweep per new vertex.  Returns ``False``
        when the obstacle was already present.
        """
        return self.add_obstacles((obs,)) == 1

    def add_obstacles(self, obstacles: Iterable[Obstacle]) -> int:
        """Incorporate a retrieved set of obstacles in one growth step
        (Fig. 8's enlargement); returns how many were new.

        Equal to :meth:`add_obstacle` folded over the set in any order
        — an edge survives iff it crosses no polygon's interior, a new
        vertex sees what it sees in the final scene — at the cost of
        one edge removal and one sweep call, and with one re-freeze
        for the CSR view's holders instead of one per obstacle.
        """
        added = self.register_obstacles(obstacles)
        self.connect([self])
        return added

    def register_obstacles(self, obstacles: Iterable[Obstacle]) -> int:
        """The first half of :meth:`add_obstacles`: the existing edges
        crossing a new polygon's interior go, the new obstacles enter
        the scene and their new vertices wait, pending, for
        :meth:`connect`.  Returns how many obstacles were new."""
        fresh = {
            obs.oid: obs for obs in obstacles if obs.oid not in self._obstacles
        }
        if not fresh:
            return 0
        self._remove_edges(
            self._backend.edges_crossing(
                self, [obs.polygon for obs in fresh.values()]
            )
        )
        for obs in fresh.values():
            self._pending += self._register_obstacle(obs)
            # Entities lying on the new polygon's boundary gain a
            # membership — one that doubles as another obstacle's
            # vertex too, whichever of the two obstacles came first.
            for p in (*self._free, *self._promoted):
                held = self._boundary.get(p, ())
                if obs not in held and obs.polygon.on_boundary(p):
                    self._boundary[p] = held + (obs,)
        return len(fresh)

    def remove_obstacle(self, oid: int) -> bool:
        """Remove one obstacle and repair the graph in place.

        The inverse of :meth:`add_obstacle`: the obstacle's boundary
        edges leave the scene, its vertices leave the node set (unless
        another obstacle shares them), and every node pair the obstacle
        could have been blocking is re-examined — a pair can gain
        visibility only if its segment crossed the removed interior, so
        the re-sweep is confined to segments meeting the obstacle's
        MBR.  Returns ``False`` when the obstacle is not in the graph.
        """
        obs = self._obstacles.pop(oid, None)
        if obs is None:
            return False
        self._obstacle_revision += 1
        self._structure_revision += 1
        poly = obs.polygon
        self._edges = [e for e in self._edges if e.oid != oid]
        revived: list[Point] = []
        gone: list[int] = []
        for v in set(poly.vertices):
            incident = [e for e in self._incident.get(v, ()) if e.oid != oid]
            if incident:
                self._incident[v] = incident
                continue
            self._incident.pop(v, None)
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
        for p, membership in list(self._boundary.items()):
            if obs in membership:
                rest = tuple(o for o in membership if o is not obs)
                if rest:
                    self._boundary[p] = rest
                else:
                    del self._boundary[p]
        if self._packed is not None:
            self._packed.remove_obstacle(oid)
        for v in revived:
            membership = tuple(
                o for o in self._obstacles.values() if o.polygon.on_boundary(v)
            )
            if membership:
                self._boundary[v] = membership
        self._drop_stale_pending()
        self._resweep_region(poly.mbr)
        return True

    def _resweep_region(self, region: Rect) -> None:
        """Rediscover visibility edges inside ``region``.

        Every currently non-adjacent node pair whose segment's bounding
        box meets ``region`` is re-tested with the exact visibility
        oracle (the reference both sweep backends are parity-locked
        to), so a repaired graph is identical to a from-scratch
        rebuild.
        """
        for u, w in self._backend.unblocked_pairs(self, region):
            self._set_edge(u, w)

    def add_entity(self, p: Point) -> bool:
        """Add a free point and connect it to all visible nodes.

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
        self._boundary.pop(p, None)
        self._drop_stale_pending()
        return True

    # ------------------------------------------------------------- internals
    def _register_obstacle(self, obs: Obstacle) -> list[Point]:
        self._obstacles[obs.oid] = obs
        self._obstacle_revision += 1
        self._structure_revision += 1
        new_vertices: list[Point] = []
        for a, b in obs.polygon.edges():
            edge = BoundaryEdge(a, b, obs.oid)
            self._edges.append(edge)
            for v in (a, b):
                self._incident.setdefault(v, []).append(edge)
        for v in obs.polygon.vertices:
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
            self._boundary[v] = self._boundary.get(v, ()) + (obs,)
        if self._packed is not None:
            self._packed.add_obstacle(obs, self._ids)
        return new_vertices

    def _register_free_point(self, p: Point) -> None:
        if p in self._incident:
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
        membership = tuple(
            obs
            for obs in self._obstacles.values()
            if obs.polygon.on_boundary(p)
        )
        if membership:
            self._boundary[p] = membership

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

    def _drop_stale_pending(self) -> None:
        """A node that left the graph no longer waits for a sweep."""
        if self._pending:
            self._pending = [p for p in self._pending if p in self._ids]

    def _set_edge(self, u: int, v: int) -> None:
        if u == v:
            return
        w = self._points[u].distance(self._points[v])
        self._structure_revision += 1
        self._rows[u][v] = w
        self._rows[v][u] = w

    def _install_visible(
        self, u: int, seen: Iterable[int], legs: Iterable[float]
    ) -> None:
        """Connect node ``u`` to every node of ``seen``, in that order,
        at the parallel ``legs`` (their distances from ``u``).

        A node already adjacent to ``u`` got there through its own
        visible set: same weight (a distance is symmetric to the bit)
        and both directions present, so it is skipped — the rows, their
        insertion order and the CSR arrays frozen from them equal what
        setting each directed pair would leave.  The structure revision
        moves once.
        """
        rows = self._rows
        row = rows[u]
        for v, weight in zip(seen, legs):
            if v in row or v == u:
                continue
            row[v] = weight
            rows[v][u] = weight
        self._structure_revision += 1

    def _remove_edges(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Cut the edges ``(u, v)`` (node ids)."""
        self._structure_revision += 1
        rows = self._rows
        for u, v in pairs:
            del rows[u][v]
            del rows[v][u]
