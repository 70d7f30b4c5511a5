"""Cached visibility graphs and version stamps, serialized.

A warm runtime is mostly its graph cache: the visibility graphs built
by prior queries, each with its expansion centre, coverage radius and
version stamp.  This module flattens one
:class:`~repro.runtime.cache.CachedGraph` into the snapshot payload
and reassembles it on load **without running a single sweep** — nodes
and edges are written as index arrays over a point table (through the
codec's bulk float path), and obstacles are referenced by id into the
snapshot's global obstacle table so every shard, tree and graph
resolves to one shared :class:`~repro.model.Obstacle` instance per id,
exactly as live.

Version stamps round-trip too: plain integers for monolithic sources,
full per-shard vectors (:class:`~repro.runtime.sharding.
ShardVersionStamp`) for sharded ones — so an entry that was stale at
save time is still stale after load, and a fresh one stays fresh.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Container, Mapping

from repro.geometry.point import Point
from repro.model import Obstacle
from repro.runtime.cache import CachedGraph
from repro.runtime.sharding import ShardVersionStamp
from repro.visibility.graph import VisibilityGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persist.codec import BinaryReader, BinaryWriter
    from repro.visibility.kernel.backend import VisibilityBackend

_STAMP_INT = 0
_STAMP_SHARD = 1


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


def write_stamp(w: "BinaryWriter", stamp: object) -> None:
    """Serialize a cache entry's version stamp (integer or per-shard)."""
    if isinstance(stamp, ShardVersionStamp):
        center, radius, versions, layout = stamp.snapshot()
        w.u8(_STAMP_SHARD)
        w.f64(center.x)
        w.f64(center.y)
        w.f64(radius)
        w.u64(layout)
        w.u32(len(versions))
        for key in sorted(versions):
            w.u64(key)
            w.u64(versions[key])
    else:
        w.u8(_STAMP_INT)
        w.i64(int(stamp))  # type: ignore[call-overload]


def _parse_stamp(r: "BinaryReader", sharded_source: bool) -> Any:
    """Decode a version stamp: the integer itself, or a per-shard
    stamp's :meth:`~repro.runtime.sharding.ShardVersionStamp.snapshot`
    tuple ``(center, radius, versions, layout)``."""
    kind = r.u8()
    if kind == _STAMP_INT:
        return r.i64()
    if kind != _STAMP_SHARD:
        raise r.error(f"unknown version-stamp kind {kind}")
    if not sharded_source:
        raise r.error(
            "per-shard version stamp in a snapshot whose obstacle source "
            "is not sharded"
        )
    center = Point(r.f64(), r.f64())
    radius = r.f64()
    layout = r.u64()
    versions = {}
    for __ in range(r.u32()):
        key = r.u64()
        versions[key] = r.u64()
    return center, radius, versions, layout


def write_cache_entry(w: "BinaryWriter", entry: CachedGraph) -> None:
    """Serialize one cache entry: centre, coverage, stamp, graph."""
    w.f64(entry.center.x)
    w.f64(entry.center.y)
    w.f64(entry.covered)
    write_stamp(w, entry.version)
    write_graph(w, entry.graph)


def parse_cache_entry(
    r: "BinaryReader", known_oids: Container[int], sharded_source: bool
) -> dict[str, Any]:
    """Decode one cache entry written by :func:`write_cache_entry` into
    plain parts — ``center``, ``covered``, ``stamp`` (see
    :func:`_parse_stamp`) and the graph's ``oids`` / ``nodes`` /
    ``free`` / ``edges`` — with every structural check run and nothing
    built.  ``sharded_source`` says whether the snapshot's obstacle
    source is one sharded set, the only kind a per-shard stamp binds to."""
    center = Point(r.f64(), r.f64())
    covered = r.f64()
    stamp = _parse_stamp(r, sharded_source)
    return {
        "center": center,
        "covered": covered,
        "stamp": stamp,
        **_parse_graph(r, known_oids),
    }


def build_cache_entry(
    parts: dict[str, Any],
    table: Mapping[int, Obstacle],
    source: object,
    *,
    backend: "str | VisibilityBackend | None" = None,
) -> CachedGraph:
    """The cache entry :func:`parse_cache_entry`'s ``parts`` describe:
    obstacle ids resolve through ``table`` (the snapshot's one
    :class:`~repro.model.Obstacle` per id), a per-shard stamp re-binds
    to ``source`` (the restored sharded obstacle index), and the graph
    is reassembled without a sweep."""
    nodes = parts["nodes"]
    graph = VisibilityGraph.restore(
        [table[oid] for oid in parts["oids"]],
        [nodes[i] for i in parts["free"]],
        [(nodes[i], nodes[j]) for i, j in parts["edges"]],
        method=backend,
    )
    stamp = parts["stamp"]
    if not isinstance(stamp, int):
        stamp = ShardVersionStamp(source, *stamp)  # type: ignore[arg-type]
    return CachedGraph(graph, parts["center"], parts["covered"], stamp)
