"""Cached visibility graphs and version stamps, serialized.

A warm runtime is mostly its graph cache: the visibility graphs built
by prior queries, each with its expansion centre, coverage radius,
clear radius and version stamp.  This module flattens one
:class:`~repro.runtime.cache.CachedGraph` into the snapshot payload
and reassembles it on load **without a single visibility test** — nodes
and edges are written as index arrays over a point table (through the
codec's bulk float path), and obstacles are referenced by id into the
snapshot's global obstacle table so every tree and graph
resolves to one shared :class:`~repro.model.Obstacle` instance per id,
exactly as live.

Version stamps round-trip too — one encoding for every source, a
``u32`` count and that many ``i64`` versions — so an entry that was
stale at save time is still stale after load, and a fresh one stays
fresh.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Container, Mapping

from repro.geometry.point import Point
from repro.model import Obstacle
from repro.runtime.cache import CachedGraph
from repro.visibility.graph import VisibilityGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persist.codec import BinaryReader, BinaryWriter
    from repro.visibility.kernel.backend import Backend


def write_graph(w: "BinaryWriter", graph: VisibilityGraph) -> None:
    """Serialize one visibility graph as obstacle-id references plus
    node/edge index arrays (the indexes are the graph's node ids)."""
    obstacles, free, __ = graph.snapshot_parts()
    edges = graph.edge_ids()
    w.u32(len(obstacles))
    for obs in obstacles:
        w.i64(obs.oid)
    w.points(list(graph.nodes()))
    w.u32(len(free))
    for p in free:
        w.u32(graph.node_id(p))
    w.u32(len(edges))
    for u, v in edges:
        w.u32(u)
        w.u32(v)


def _parse_graph(
    r: "BinaryReader", known_oids: Container[int]
) -> dict[str, Any]:
    """Decode one graph written by :func:`write_graph` into its parts:
    ``oids``, the ``nodes`` point list, and ``free`` / ``edges`` as
    indexes into it.  An obstacle id outside ``known_oids`` (the
    snapshot's obstacle table) or an index past the node list means
    the snapshot is internally inconsistent."""
    oids = [r.i64() for __ in range(r.u32())]
    for oid in oids:
        if oid not in known_oids:
            raise r.error(f"cached graph references unknown obstacle id {oid}")
    nodes = r.points()

    def index() -> int:
        i = r.u32()
        if i >= len(nodes):
            raise r.error(
                f"cached graph node index {i} out of range "
                f"({len(nodes)} node(s))"
            )
        return i

    free = [index() for __ in range(r.u32())]
    edges = [(index(), index()) for __ in range(r.u32())]
    return {"oids": oids, "nodes": nodes, "free": free, "edges": edges}


def write_cache_entry(w: "BinaryWriter", entry: CachedGraph) -> None:
    """Serialize one cache entry: centre, coverage, clear radius (both
    bounds), stamp, graph."""
    w.f64(entry.center.x)
    w.f64(entry.center.y)
    w.f64(entry.covered)
    w.f64(entry.clear_sq)
    w.f64(entry.clear_d)
    w.u32(len(entry.version))
    for version in entry.version:
        w.i64(version)
    write_graph(w, entry.graph)


def parse_cache_entry(r: "BinaryReader", known_oids: Container[int]) -> dict[str, Any]:
    """Decode one cache entry written by :func:`write_cache_entry` into
    plain parts — ``center``, ``covered``, ``clear_sq``, ``clear_d``, the
    ``stamp`` tuple and the graph's ``oids`` / ``nodes`` / ``free`` /
    ``edges`` — with every structural check run and nothing built."""
    # A dict display is evaluated left to right: the fields' file order.
    return {
        "center": Point(r.f64(), r.f64()),
        "covered": r.f64(),
        "clear_sq": r.f64(),
        "clear_d": r.f64(),
        "stamp": tuple(r.i64() for __ in range(r.u32())),
        **_parse_graph(r, known_oids),
    }


def build_cache_entry(
    parts: dict[str, Any],
    table: Mapping[int, Obstacle],
    *,
    backend: "Backend | None" = None,
) -> CachedGraph:
    """The cache entry :func:`parse_cache_entry`'s ``parts`` describe:
    obstacle ids resolve through ``table`` (the snapshot's one
    :class:`~repro.model.Obstacle` per id), and the graph is
    reassembled without a visibility test; its graph ticks ``backend``
    (the restoring context's)."""
    nodes = parts["nodes"]
    graph = VisibilityGraph.restore(
        [table[oid] for oid in parts["oids"]],
        [nodes[i] for i in parts["free"]],
        [(nodes[i], nodes[j]) for i, j in parts["edges"]],
        method=backend,
    )
    fields = ("center", "covered", "stamp", "clear_sq", "clear_d")
    return CachedGraph(graph, *map(parts.__getitem__, fields))
