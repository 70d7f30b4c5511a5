"""Frozen CSR views of visibility graphs + int-indexed Dijkstra.

The per-node ``{id: weight}`` rows of :class:`~repro.visibility.graph.
VisibilityGraph` suit the paper's dynamic maintenance operations; the
query-side steady state wants flat rows.  :class:`CSRGraph` freezes
one *structure revision* of a graph — ``indptr``/``indices``/
``weights`` compressed sparse rows plus per-node coordinates, read
straight off the rows: the graph's node ids are the frozen ids, and
its ``Point -> id`` dict is copied, not rebuilt — so shortest paths
run over ``int`` node ids (one ``heapq`` loop over the rows as python
lists, :meth:`CSRGraph.dijkstra`, rooted at a node or at an off-graph
point's visible anchors) for pairs that do not see each other —
straight legs come first.  The last-leg minimisation
``min_v d[v] + |p - v|`` of
:class:`~repro.core.distance.SourceDistanceField` — the engine of every
query, a point-to-point distance included — goes memo, probe, anchors
(:meth:`CSRGraph.last_leg`): a node or a point whose anchors are
memoized reads them in one numpy expression; any other point is
probed — nodes in ascending order of ``d[v] + |p - v|``, each tested
with the exact oracle until one is visible or the lower bound passes
the caller's bound — and anchored alone (every pair ``(p, v)``
decided) only when the probe gives up.  A route is read back off a
memoized field (:meth:`CSRGraph.route`), so :meth:`CSRGraph.dijkstra`,
the full search behind :meth:`CSRGraph.field`, is the one
shortest-path search there is.

A :class:`CSRGraph` describes exactly one structure revision: callers
take it from :func:`frozen` each time the live graph may have moved,
so every node its graph's backend reports has a frozen id.

Parity contract: edge weights are copied verbatim from the live
adjacency and relaxations use the same float64 ``d + w`` arithmetic,
so settled distances are bit-identical to a plain binary-heap Dijkstra
over the ``Point``-keyed adjacency that relaxes out of no free point
but its root — the test suite's independent oracle,
``tests/reference_field.py::reference_dijkstra``.  The heap order may
differ on ties, but the settled *values* are the same minimum over the
same relaxation set.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, islice
from math import inf
from operator import attrgetter
from typing import Iterable, Sequence, TYPE_CHECKING

import numpy as np

from repro.geometry.point import Point
from repro.obs.trace import TRACER
from repro.visibility.naive import is_visible

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.graph import VisibilityGraph

_X = attrgetter("x")
_Y = attrgetter("y")

#: Maximum points one frozen graph memoizes last-leg geometry for, and
#: maximum roots it memoizes a distance field for.  Queries only read a
#: cached graph, so it keeps its freeze — and with it both memos — for
#: as long as its entry stays cached; every distance source and every
#: ONN / OR centre not yet seen on the freeze adds its anchors and one
#: field (about 1 KB each at the paper's graph sizes), and a probe that
#: gives up adds its point.  The oldest are evicted beyond this: repeat
#: candidates, sources and centres of a hot cell stay memoized, a
#: jittering stream cannot grow a cached graph's footprint without limit.
ANCHOR_MEMO_LIMIT = 512

#: Hidden nodes :meth:`CSRGraph.last_leg` tests with the exact oracle
#: before it anchors its point instead.  On ``paper-cold`` (seed 3, 220
#: ops) 2,170 probes made 2.50 oracle tests each and 49 gave up; on
#: ``hotspot-warm`` (3,500 fresh goals from 21 repeated sources) the
#: probe made 1.37 oracle tests per goal and never reached 8.
LAST_LEG_PROBES = 8


class CSRGraph:
    """One visibility graph frozen into flat arrays.

    ``points`` fixes the node order (``index`` maps back); ``xs``/``ys``
    are the node coordinates; ``indptr``/``indices``/``weights`` are
    the CSR adjacency with weights copied verbatim from the live graph
    — kept as python lists, what :meth:`dijkstra` iterates, and made
    numpy arrays only when asked for (a route).  ``free``
    holds the ids of the graph's free points (entities off every
    obstacle vertex), which a search never passes through.
    ``fields`` memoizes one full-Dijkstra distance array per root
    (:meth:`field`) — the warm-stream payoff: repeated queries at a
    centre skip the Dijkstra entirely — and ``anchors`` the last-leg
    geometry of off-graph points (:meth:`anchors_for`).
    """

    __slots__ = (
        "points",
        "index",
        "free",
        "xs",
        "ys",
        "fields",
        "anchors",
        "_rows",
        "_arrays",
    )

    def __init__(
        self,
        points: list[Point],
        index: dict[Point, int],
        rows: "tuple[list[int], list[int], list[float]]",
        free: "frozenset[int]",
    ) -> None:
        self.points = points
        self.index = index
        self.free = free
        n = len(points)
        self.xs = np.fromiter(map(_X, points), dtype=np.float64, count=n)
        self.ys = np.fromiter(map(_Y, points), dtype=np.float64, count=n)
        self.fields: dict[Point, "np.ndarray"] = {}
        self.anchors: dict[Point, tuple] = {}
        self._rows = rows
        self._arrays: "list[np.ndarray | None]" = [None, None, None]

    @classmethod
    def freeze(cls, graph: "VisibilityGraph") -> "CSRGraph":
        """Flatten ``graph``'s current adjacency: its node ids are the
        frozen ids, its rows (in insertion order, of the adjacency's own
        int and float objects) the CSR rows."""
        rows = graph._rows
        ids = graph._ids
        return cls(
            list(graph._points),
            ids.copy(),  # a dict copy keeps the stored hashes
            (
                list(accumulate(map(len, rows), initial=0)),
                list(chain.from_iterable(rows)),
                list(chain.from_iterable(map(dict.values, rows))),
            ),
            frozenset(map(ids.__getitem__, graph._free)),
        )

    indptr = property(lambda self: self._array(0, np.int64), doc="Row starts.")
    indices = property(lambda self: self._array(1, np.int32), doc="Neighbours.")
    weights = property(lambda self: self._array(2, np.float64), doc="Edge lengths.")

    def _array(self, k: int, dtype: type) -> "np.ndarray":
        array = self._arrays[k]
        if array is None:
            array = self._arrays[k] = np.array(self._rows[k], dtype=dtype)
        return array

    @property
    def node_count(self) -> int:
        """Number of frozen nodes."""
        return len(self.points)

    @property
    def edge_count(self) -> int:
        """Number of undirected frozen edges."""
        return len(self._rows[1]) // 2

    def dijkstra(
        self, source: "int | Sequence[tuple[int, float]]"
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Distances from ``source`` to every node: ``(dist, settled)``
        arrays.

        ``source`` is a node id, or ``(node id, start distance)`` seeds
        — the search from an off-graph point that reaches each seed by
        a straight leg of that length (a virtual source wired to the
        seeds).

        Settled values are bit-identical to the dict-adjacency oracle
        ``tests/reference_field.py::reference_dijkstra``.  ``dist``
        holds ``inf`` for unreachable nodes; ``settled`` marks the
        others.

        A free node other than a root (the node ``source``, or a seed
        at start ``0.0``) settles but is never relaxed out of: a
        shortest path turns only at obstacle vertices, and a float sum
        through a free point may undercut the straight leg past it by
        an ulp, which would break ``d(q, p) == |qp|`` for a ``p`` that
        ``q`` sees.
        """
        n = len(self.points)
        indptr, indices, weights = self._rows
        best = [inf] * n
        done = [False] * n
        if isinstance(source, int):
            best[source] = 0.0
            heap = [(0.0, source)]
            roots = {source}
        else:
            for node, start in source:
                if start < best[node]:
                    best[node] = start
            heap = [(best[node], node) for node, __ in source]
            heapify(heap)
            roots = {node for node, start in source if start == 0.0}
        stop = self.free - roots if roots else self.free
        while heap:
            d, node = heappop(heap)
            if done[node] or d > best[node]:
                continue
            done[node] = True
            if node in stop:
                continue
            lo = indptr[node]
            hi = indptr[node + 1]
            for nbr, w in zip(indices[lo:hi], weights[lo:hi]):
                nd = d + w
                if nd < best[nbr]:
                    best[nbr] = nd
                    heappush(heap, (nd, nbr))
        return np.array(best), np.array(done, dtype=bool)

    def anchors_for(
        self, p: Point, graph: "VisibilityGraph"
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """The last-leg geometry from point ``p``:
        ``(anchor ids, euclidean legs)``.

        A free node is its own anchor at leg 0.  For an off-graph
        ``p`` this memoizes the nodes ``graph``'s visibility backend
        finds ``p`` sees — every pair ``(p, v)`` decided, none dropped
        by tangency — with their frozen ids and ``|p - v|`` legs, for
        the life of this freeze: on warm streams (repeat candidates,
        stable topology) a point is anchored once, not once per query.
        A node on an obstacle vertex is anchored and memoized the same
        way, and is its own anchor at leg 0 besides: the graph holds
        only its tangent edges, and a path's first and last legs need
        not be tangent.  On a miss the memo's oldest entries beyond
        :data:`ANCHOR_MEMO_LIMIT` are dropped, never ``p``.
        """
        if p in graph._free:
            return np.array([self.index[p]]), np.zeros(1)
        cached = self.anchors.get(p)
        if cached is None:
            self.memoize_anchors([p], graph.visible_ids([p]))
            cached = self.anchors[p]
        return cached

    def unanchored(
        self, points: Iterable[Point], graph: "VisibilityGraph"
    ) -> list[Point]:
        """The distinct points of ``points`` — off the graph, or on an
        obstacle vertex of ``graph`` — whose last-leg geometry is not
        memoized: what the backend has yet to anchor."""
        return list(
            dict.fromkeys(
                c for c in points if c not in self.anchors and c not in graph._free
            )
        )

    def memoize_anchors(
        self,
        points: Sequence[Point],
        seen: "Sequence[tuple[list[int], list[float]]]",
    ) -> None:
        """Memoize the last-leg geometry of ``points`` from what each
        sees (``seen``, parallel: the backend's node ids and distances; a
        node comes first, at leg 0), then drop the memo's oldest entries
        beyond :data:`ANCHOR_MEMO_LIMIT` — never one of ``points``."""
        for c, (ids, legs) in zip(points, seen):
            anchors = np.array(ids, dtype=np.int64)
            legs = np.array(legs, dtype=np.float64)
            own = self.index.get(c)
            if own is not None:
                anchors = np.concatenate([[own], anchors])
                legs = np.concatenate([[0.0], legs])
            self.anchors[c] = anchors, legs
        excess = len(self.anchors) - ANCHOR_MEMO_LIMIT
        if excess > 0:
            keep = set(points)
            oldest = (c for c in self.anchors if c not in keep)
            for c in list(islice(oldest, excess)):
                del self.anchors[c]

    def field(self, q: Point, graph: "VisibilityGraph") -> "np.ndarray":
        """The memoized full distance field rooted at ``q``.

        ``q`` need not be a node: a shortest path turns only at
        obstacle vertices, so it leaves ``q`` straight toward a node
        ``q`` sees, and the search is seeded with ``q``'s anchors at
        their legs (a frozen node: itself at 0) — the float64 sums
        Dijkstra forms with ``q`` inserted.  Oldest roots beyond
        :data:`ANCHOR_MEMO_LIMIT` are dropped; a holder of the array
        keeps its own reference.
        """
        cached = self.fields.get(q)
        if cached is None:
            ids, legs = self.anchors_for(q, graph)
            cached, __ = self.dijkstra(list(zip(ids.tolist(), legs.tolist())))
            self.fields[q] = cached
            if len(self.fields) > ANCHOR_MEMO_LIMIT:
                del self.fields[next(iter(self.fields))]
        return cached

    def last_leg(
        self,
        dist: "np.ndarray",
        p: Point,
        graph: "VisibilityGraph",
        *,
        bound: float = inf,
        stats: "RuntimeStats | None" = None,
        hidden: "Point | None" = None,
    ) -> float:
        """What a search ``dist`` gives point ``p`` through the graph:
        ``min_v dist[v] + |v - p|`` over the nodes ``p`` sees (``inf``
        when it sees none) — memo, then probe, then anchors.

        Straight legs come first: the probe skips the node ``hidden``
        (the root the caller found ``p`` does not see).

        A node, or a point whose anchors are memoized, reads its anchors
        (:meth:`anchors_for`) in one numpy expression.  Any other ``p``
        is probed: every node's ``dist[v] + |v - p|`` is a lower bound
        on the answer, and the nodes are tested in ascending order of it
        with the exact oracle every backend is parity-locked to — the
        first one ``p`` sees gives the answer (a shortest path leaves
        ``p`` straight toward a node it sees), an infinite lower bound
        gives ``inf``, and one above ``bound`` is returned untested, a
        value the caller discards.  After :data:`LAST_LEG_PROBES` hidden
        nodes ``p`` alone is anchored and memoized.  Probes and give-ups
        are booked on ``stats`` (``last_leg_probes`` /
        ``last_leg_fallbacks``)."""
        if p not in self.anchors and p not in self.index:
            if stats is not None:
                stats.last_leg_probes += 1
            TRACER.count("context.last_leg_probe")
            dx = self.xs - p.x
            dy = self.ys - p.y
            total = dist + np.sqrt(dx * dx + dy * dy)
            if hidden in self.index:
                total[self.index[hidden]] = inf
            order = np.argsort(total)[:LAST_LEG_PROBES].tolist()
            obstacles = graph.scene_obstacles()
            for i, low in zip(order, total[order].tolist()):
                if low > bound or low == inf:
                    return low  # untested
                if is_visible(p, self.points[i], obstacles):
                    return low
            if len(order) == len(total):
                return inf  # every node tested, all hidden
            if stats is not None:
                stats.last_leg_fallbacks += 1
            TRACER.count("context.last_leg_fallback")
        ids, legs = self.anchors_for(p, graph)
        return float((dist[ids] + legs).min()) if len(ids) else inf

    def route(self, p: Point, q: Point, graph: "VisibilityGraph") -> list[Point]:
        """One shortest route from ``p`` to ``q`` through the graph,
        read back off ``p``'s memoized :meth:`field` — nothing is
        inserted, so the graph and this freeze stay as they are.

        The last turn is the anchor of ``q`` with the least ``field +
        leg``; from there the walk steps back over tight edges
        (``field[u] + w == field[v]`` and ``field[u] < field[v]``; the
        ``==`` is exact because ``field[v]`` is that very float sum; an
        edge shorter than an ulp of ``field[v]`` leaves ``field[u] ==
        field[v]``, and then a tight node off the walk is taken) until
        it reaches a seed of ``p`` whose leg is its field value.
        Ties go to the least field — the node a heap pops first, so the
        route is the one a Dijkstra with parent pointers from ``p``
        inserted would record.  The pair must be connected through the
        graph (``p`` and ``q`` need not be nodes)."""
        field = self.field(p, graph)
        seeds, seed_legs = self.anchors_for(p, graph)
        start = dict(zip(seeds.tolist(), seed_legs.tolist()))
        ids, legs = self.anchors_for(q, graph)
        totals = field[ids] + legs
        tied = ids[totals == totals.min()]
        v = int(tied[np.argmin(field[tied])])
        path = [q, self.points[v]] if self.points[v] != q else [q]
        walked = {v}
        while start.get(v) != field[v]:
            lo, hi = self.indptr[v], self.indptr[v + 1]
            nbrs = self.indices[lo:hi]
            back = field[nbrs]
            tight = back + self.weights[lo:hi] == field[v]
            ahead = nbrs[tight & (back < field[v])]
            if not ahead.size:  # an edge shorter than an ulp of field[v]
                ahead = np.setdiff1d(nbrs[tight], list(walked))
            v = int(ahead[np.argmin(field[ahead])])
            walked.add(v)
            path.append(self.points[v])
        if path[-1] != p:
            path.append(p)
        path.reverse()
        return path


def frozen(graph: "VisibilityGraph", *, stats=None) -> CSRGraph:
    """The CSR view of ``graph``'s current structure revision.

    Freezes lazily and caches the result on the graph itself
    (``graph._csr``), so every field over an unchanged graph — across
    queries, across batches — shares one set of arrays and one
    distance-field cache.  Any topology change (obstacle add/remove,
    entity add/delete, rebuild) moves the structure revision and the
    next call re-freezes.  Pending nodes are connected first (a
    ``graph.connect`` span); a failed connect leaves them pending.
    """
    if graph.pending:
        with TRACER.span("graph.connect", graphs=1, nodes=len(graph.pending)):
            graph.connect([graph])
    revision = graph.structure_revision
    cached = graph._csr
    if cached is not None and cached[0] == revision:
        return cached[1]  # type: ignore[return-value]
    with TRACER.span(
        "field.freeze", nodes=graph.node_count, edges=graph.edge_count
    ):
        csr = CSRGraph.freeze(graph)
    TRACER.count("field.freeze")
    if stats is not None:
        stats.field_freezes += 1
    graph._csr = (revision, csr)
    return csr

