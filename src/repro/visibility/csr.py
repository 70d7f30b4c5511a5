"""Frozen CSR views of visibility graphs + int-indexed Dijkstra.

The dict-of-dicts adjacency of :class:`~repro.visibility.graph.
VisibilityGraph` is ideal for the paper's dynamic maintenance
operations but terrible for the query-side steady state (PR 4-6's warm
caches): every Dijkstra hashes ``Point`` objects, allocates
``(key, tiebreak, Point)`` heap tuples, and walks per-node dicts.
:class:`CSRGraph` freezes one *structure revision* of a graph into
flat arrays — ``indptr``/``indices``/``weights`` compressed sparse
rows plus per-node coordinates — so shortest paths run over ``int32``
node ids with an array-backed heap and vectorized edge relaxation, and
the last-leg minimisation ``min_v d[v] + |p - v|`` of
:class:`~repro.core.distance.SourceDistanceField` becomes one numpy
expression.

Parity contract: edge weights are copied verbatim from the live
adjacency and relaxations use the same float64 ``d + w`` arithmetic
(IEEE elementwise, identical scalar or vectorized), so settled
distances are bit-identical to
:func:`repro.visibility.shortest_path.dijkstra` — the heap order may
differ on ties, but the settled *values* are the same minimum over the
same relaxation set.

This module requires numpy; the engine dispatcher
(:mod:`repro.runtime.field`) never imports it when numpy is missing or
``REPRO_FIELD_ENGINE=python`` forces the dict path.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, TYPE_CHECKING

import numpy as np

from repro.geometry.point import Point
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.visibility.graph import VisibilityGraph


class FlatHeap:
    """Array-backed binary min-heap over ``(float64 key, int32 node)``.

    Replaces ``heapq`` over ``(distance, tiebreak, Point)`` tuples: no
    tuple allocation per entry, no ``Point`` comparisons, and pushes
    arrive in vectorized batches (one per relaxed CSR row).  Ties pop
    in unspecified order — Dijkstra's settled values do not depend on
    it.
    """

    __slots__ = ("_keys", "_nodes", "_size")

    def __init__(self, capacity: int = 256) -> None:
        self._keys = np.empty(capacity, dtype=np.float64)
        self._nodes = np.empty(capacity, dtype=np.int32)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow(self, need: int) -> None:
        capacity = len(self._keys)
        if need <= capacity:
            return
        new = max(capacity * 2, need)
        keys = np.empty(new, dtype=np.float64)
        nodes = np.empty(new, dtype=np.int32)
        keys[: self._size] = self._keys[: self._size]
        nodes[: self._size] = self._nodes[: self._size]
        self._keys = keys
        self._nodes = nodes

    def _sift_up(self, i: int, key: float, node: int) -> None:
        keys = self._keys
        nodes = self._nodes
        while i > 0:
            parent = (i - 1) >> 1
            pk = keys[parent]
            if key < pk:
                keys[i] = pk
                nodes[i] = nodes[parent]
                i = parent
            else:
                break
        keys[i] = key
        nodes[i] = node

    def push(self, key: float, node: int) -> None:
        """Insert one entry."""
        self._grow(self._size + 1)
        i = self._size
        self._size += 1
        self._sift_up(i, key, node)

    def push_many(self, keys: "np.ndarray", nodes: "np.ndarray") -> None:
        """Insert a batch of entries (one relaxed CSR row)."""
        count = len(keys)
        self._grow(self._size + count)
        for key, node in zip(keys.tolist(), nodes.tolist()):
            i = self._size
            self._size += 1
            self._sift_up(i, key, node)

    def pop(self) -> tuple[float, int]:
        """Remove and return the minimum ``(key, node)``."""
        keys = self._keys
        nodes = self._nodes
        top_key = float(keys[0])
        top_node = int(nodes[0])
        self._size -= 1
        size = self._size
        if size > 0:
            key = float(keys[size])
            node = int(nodes[size])
            i = 0
            child = 1
            while child < size:
                right = child + 1
                if right < size and keys[right] < keys[child]:
                    child = right
                ck = keys[child]
                if ck < key:
                    keys[i] = ck
                    nodes[i] = nodes[child]
                    i = child
                    child = 2 * i + 1
                else:
                    break
            keys[i] = key
            nodes[i] = node
        return top_key, top_node


class CSRGraph:
    """One visibility graph frozen into flat arrays.

    ``points`` fixes the node order (``index`` maps back); ``xs``/``ys``
    are the node coordinates; ``indptr``/``indices``/``weights`` are
    the CSR adjacency with weights copied verbatim from the live graph.
    ``fields`` caches one full-Dijkstra distance array per source node
    — the warm-stream payoff: repeated queries at a cached centre skip
    the Dijkstra entirely.
    """

    __slots__ = (
        "points",
        "index",
        "xs",
        "ys",
        "indptr",
        "indices",
        "weights",
        "fields",
        "anchors",
        "_anchors_revision",
    )

    def __init__(
        self,
        points: list[Point],
        xs: "np.ndarray",
        ys: "np.ndarray",
        indptr: "np.ndarray",
        indices: "np.ndarray",
        weights: "np.ndarray",
    ) -> None:
        self.points = points
        self.index = {p: i for i, p in enumerate(points)}
        self.xs = xs
        self.ys = ys
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.fields: dict[int, "np.ndarray"] = {}
        self.anchors: dict[Point, tuple] = {}
        self._anchors_revision: "int | None" = None

    @classmethod
    def freeze(cls, graph: "VisibilityGraph") -> "CSRGraph":
        """Flatten ``graph``'s current adjacency (node insertion order)."""
        adj = graph._adj
        points = list(adj)
        n = len(points)
        index = {p: i for i, p in enumerate(points)}
        xs = np.fromiter((p.x for p in points), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for p in points), dtype=np.float64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(adj[p]) for p in points), dtype=np.int64, count=n),
            out=indptr[1:],
        )
        m = int(indptr[-1])
        indices = np.empty(m, dtype=np.int32)
        weights = np.empty(m, dtype=np.float64)
        pos = 0
        for p in points:
            for q, w in adj[p].items():
                indices[pos] = index[q]
                weights[pos] = w
                pos += 1
        csr = cls(points, xs, ys, indptr, indices, weights)
        return csr

    @property
    def node_count(self) -> int:
        """Number of frozen nodes."""
        return len(self.points)

    @property
    def edge_count(self) -> int:
        """Number of undirected frozen edges."""
        return len(self.indices) // 2

    def dijkstra(
        self,
        source: int,
        *,
        bound: float = inf,
        targets: "Iterable[int] | None" = None,
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Distances from node id ``source``: ``(dist, settled)`` arrays.

        Same early-exit semantics as
        :func:`repro.visibility.shortest_path.dijkstra`: expansion
        stops beyond ``bound`` (nodes at exactly ``bound`` settle) and,
        with ``targets``, as soon as every target id is settled or
        proven unreachable within the bound.  ``dist`` holds ``inf``
        for unsettled nodes; ``settled`` marks final values.
        """
        n = len(self.points)
        dist = np.full(n, np.inf)
        best = np.full(n, np.inf)
        settled = np.zeros(n, dtype=bool)
        remaining = set(targets) if targets is not None else None
        indptr = self.indptr
        indices = self.indices
        weights = self.weights
        heap = FlatHeap()
        best[source] = 0.0
        heap.push(0.0, source)
        while len(heap):
            d, node = heap.pop()
            if settled[node] or d > best[node]:
                continue
            if d > bound:
                break
            settled[node] = True
            dist[node] = d
            if remaining is not None:
                remaining.discard(node)
                if not remaining:
                    break
            lo = indptr[node]
            hi = indptr[node + 1]
            nbrs = indices[lo:hi]
            nd = d + weights[lo:hi]
            improve = (~settled[nbrs]) & (nd <= bound) & (nd < best[nbrs])
            if improve.any():
                nbrs = nbrs[improve]
                nd = nd[improve]
                best[nbrs] = nd
                heap.push_many(nd, nbrs)
        return dist, settled

    def anchors_for(
        self,
        p: Point,
        graph: "VisibilityGraph",
        ahead: Iterable[Point] = (),
    ) -> tuple["np.ndarray", "np.ndarray", "list[Point] | None"]:
        """The last-leg geometry from off-graph point ``p``:
        ``(anchor ids, euclidean legs, off-index anchors)``.

        Memoizes what ``graph``'s visibility backend sees from ``p`` —
        plus the frozen-id lookup and the vectorized ``|p - v|`` legs,
        which depend only on ``p`` and the anchor set — per *live*
        structure revision: on warm streams (repeat candidates, stable
        topology) the sweep runs once per candidate instead of once
        per query.  On a miss, the off-graph points of ``ahead`` (the
        candidates a batch will ask about next) that the memo lacks
        are swept in the same backend call.  Any topology change
        clears the memo, keeping the answers identical to a fresh
        sweep — and therefore to the reference engine, which re-sweeps
        every call.  Anchors admitted to the live graph after this
        freeze have no frozen id and are returned separately for the
        caller's overlay handling.
        """
        revision = graph.structure_revision
        if revision != self._anchors_revision:
            self.anchors.clear()
            self._anchors_revision = revision
        cached = self.anchors.get(p)
        if cached is None:
            sources = [p]
            sources += dict.fromkeys(
                c
                for c in ahead
                if c != p
                and c not in self.anchors
                and c not in self.index
                and not graph.has_node(c)
            )
            for c, seen in zip(sources, graph.visible_from_many(sources)):
                self.anchors[c] = self._last_legs(c, seen)
            cached = self.anchors[p]
        return cached

    def _last_legs(
        self, p: Point, anchors: list[Point]
    ) -> tuple["np.ndarray", "np.ndarray", "list[Point] | None"]:
        ids = [self.index[v] for v in anchors if v in self.index]
        ai = np.fromiter(ids, dtype=np.int64, count=len(ids))
        dx = self.xs[ai] - p.x
        dy = self.ys[ai] - p.y
        legs = np.sqrt(dx * dx + dy * dy)
        extras = [v for v in anchors if v not in self.index] or None
        return ai, legs, extras

    def field(self, source: int) -> "np.ndarray":
        """The cached full distance field from node id ``source``."""
        cached = self.fields.get(source)
        if cached is None:
            cached, __ = self.dijkstra(source)
            self.fields[source] = cached
        return cached


def frozen(graph: "VisibilityGraph", *, stats=None) -> CSRGraph:
    """The CSR view of ``graph``'s current structure revision.

    Freezes lazily and caches the result on the graph itself
    (``graph._csr``), so every field over an unchanged graph — across
    queries, across batches — shares one set of arrays and one
    distance-field cache.  Any topology change (obstacle add/remove,
    entity add/delete, rebuild) moves the structure revision and the
    next call re-freezes.
    """
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


def install_frozen(
    graph: "VisibilityGraph",
    points: list[Point],
    indptr: "np.ndarray",
    indices: "np.ndarray",
    weights: "np.ndarray",
) -> CSRGraph:
    """Install deserialized frozen arrays as ``graph``'s CSR view.

    Used by the snapshot loader (format v3): the arrays were frozen
    from an identical graph, so they are adopted under the restored
    graph's current structure revision — the first field evaluation
    after a warm start skips the freeze.
    """
    n = len(points)
    xs = np.fromiter((p.x for p in points), dtype=np.float64, count=n)
    ys = np.fromiter((p.y for p in points), dtype=np.float64, count=n)
    csr = CSRGraph(points, xs, ys, indptr, indices, weights)
    graph._csr = (graph.structure_revision, csr)
    return csr
