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

from typing import TYPE_CHECKING, Mapping

from repro.errors import DatasetError
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
    node/edge index arrays."""
    obstacles, free, edges = graph.snapshot_parts()
    nodes = list(graph.nodes())
    index = {p: i for i, p in enumerate(nodes)}
    w.u32(len(obstacles))
    for obs in obstacles:
        w.i64(obs.oid)
    w.points(nodes)
    w.u32(len(free))
    for p in free:
        w.u32(index[p])
    w.u32(len(edges))
    for u, v in edges:
        w.u32(index[u])
        w.u32(index[v])


def read_graph(
    r: "BinaryReader",
    table: Mapping[int, Obstacle],
    *,
    backend: "str | VisibilityBackend | None" = None,
) -> VisibilityGraph:
    """Decode one graph written by :func:`write_graph`.

    ``table`` is the snapshot's global obstacle table; a graph
    referencing an id missing from it raises
    :class:`~repro.errors.DatasetError` (the snapshot is internally
    inconsistent).
    """
    oids = [r.i64() for __ in range(r.u32())]
    obstacles = []
    for oid in oids:
        obs = table.get(oid)
        if obs is None:
            raise DatasetError(
                f"cached graph references unknown obstacle id {oid} "
                f"at offset {r.offset}"
            )
        obstacles.append(obs)
    nodes = r.points()

    def node_at(i: int):
        if i >= len(nodes):
            raise DatasetError(
                f"cached graph node index {i} out of range at offset "
                f"{r.offset}"
            )
        return nodes[i]

    free = [node_at(r.u32()) for __ in range(r.u32())]
    edges = [
        (node_at(r.u32()), node_at(r.u32())) for __ in range(r.u32())
    ]
    return VisibilityGraph.restore(obstacles, free, edges, method=backend)


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


def read_stamp(r: "BinaryReader", source: object) -> object:
    """Decode a version stamp; shard stamps re-bind to ``source`` (the
    restored sharded obstacle index)."""
    from repro.geometry.point import Point

    kind = r.u8()
    if kind == _STAMP_INT:
        return r.i64()
    if kind != _STAMP_SHARD:
        raise DatasetError(
            f"unknown version-stamp kind {kind} at offset {r.offset}"
        )
    if not hasattr(source, "shard_version"):
        raise DatasetError(
            f"per-shard version stamp at offset {r.offset} but the "
            f"restored obstacle source is not sharded"
        )
    center = Point(r.f64(), r.f64())
    radius = r.f64()
    layout = r.u64()
    versions = {}
    for __ in range(r.u32()):
        key = r.u64()
        versions[key] = r.u64()
    return ShardVersionStamp(source, center, radius, versions, layout)  # type: ignore[arg-type]


def write_cache_entry(w: "BinaryWriter", entry: CachedGraph) -> None:
    """Serialize one cache entry: centre, coverage, stamp, graph."""
    w.f64(entry.center.x)
    w.f64(entry.center.y)
    w.f64(entry.covered)
    write_stamp(w, entry.version)
    write_graph(w, entry.graph)


def read_cache_entry(
    r: "BinaryReader",
    table: Mapping[int, Obstacle],
    source: object,
    *,
    backend: "str | VisibilityBackend | None" = None,
) -> CachedGraph:
    """Decode one cache entry written by :func:`write_cache_entry`."""
    from repro.geometry.point import Point

    center = Point(r.f64(), r.f64())
    covered = r.f64()
    stamp = read_stamp(r, source)
    graph = read_graph(r, table, backend=backend)
    return CachedGraph(graph, center, covered, stamp)
