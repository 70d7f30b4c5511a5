"""Cached visibility graphs and version stamps, serialized.

A warm runtime is mostly its graph cache: the visibility graphs built
by prior queries, each with its expansion centre, coverage radius,
clear radius and version stamp.  A local visibility graph depends only
on its obstacles and free points (paper Fig. 8), so a snapshot records
a cached graph as what registered it — obstacle ids into the
snapshot's global obstacle table (every tree and graph resolves to one
shared :class:`~repro.model.Obstacle` instance per id, exactly as
live) and its free points — and no edge.  A load registers the graph
again with :meth:`~repro.visibility.graph.VisibilityGraph.registered`,
the call a cache miss makes: its nodes are pending, as a live entry's
are until some query needs a bend, and the first freeze that needs
edges connects it.

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


def write_cache_entry(w: "BinaryWriter", entry: CachedGraph) -> None:
    """Serialize one cache entry: centre, coverage, clear radius (both
    bounds), stamp, then its graph's obstacle ids and free points
    (:meth:`~repro.visibility.graph.VisibilityGraph.registration`)."""
    w.f64(entry.center.x)
    w.f64(entry.center.y)
    w.f64(entry.covered)
    w.f64(entry.clear_sq)
    w.f64(entry.clear_d)
    w.u32(len(entry.version))
    for version in entry.version:
        w.i64(version)
    obstacles, free = entry.graph.registration()
    w.u32(len(obstacles))
    for obs in obstacles:
        w.i64(obs.oid)
    w.points(free)


def parse_cache_entry(r: "BinaryReader", known_oids: Container[int]) -> dict[str, Any]:
    """Decode one cache entry written by :func:`write_cache_entry` into
    plain parts — ``center``, ``covered``, ``clear_sq``, ``clear_d``, the
    ``stamp`` tuple, the graph's ``oids`` and ``free`` points — with
    nothing built.  An obstacle id outside ``known_oids`` (the
    snapshot's obstacle table) means the snapshot is internally
    inconsistent."""
    # A dict display is evaluated left to right: the fields' file order.
    parts = {
        "center": Point(r.f64(), r.f64()),
        "covered": r.f64(),
        "clear_sq": r.f64(),
        "clear_d": r.f64(),
        "stamp": tuple(r.i64() for __ in range(r.u32())),
        "oids": [r.i64() for __ in range(r.u32())],
    }
    for oid in parts["oids"]:
        if oid not in known_oids:
            raise r.error(f"cached graph references unknown obstacle id {oid}")
    parts["free"] = r.points()
    return parts


def build_cache_entry(
    parts: dict[str, Any],
    table: Mapping[int, Obstacle],
    *,
    backend: "Backend | None" = None,
) -> CachedGraph:
    """The cache entry :func:`parse_cache_entry`'s ``parts`` describe:
    obstacle ids resolve through ``table`` (the snapshot's one
    :class:`~repro.model.Obstacle` per id), and the graph is
    registered over them and the free points, every node pending,
    ticking ``backend`` (the restoring context's) once connected."""
    graph = VisibilityGraph.registered(
        parts["free"], [table[oid] for oid in parts["oids"]], method=backend
    )
    fields = ("center", "covered", "stamp", "clear_sq", "clear_d")
    return CachedGraph(graph, *map(parts.__getitem__, fields))
