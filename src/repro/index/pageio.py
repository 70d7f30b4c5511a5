"""Node <-> page codec: R*-trees serialized page-per-record.

A tree is persisted exactly as the simulated disk file sees it: one
record per allocated page (page id, level, entries in slot order),
plus the structural metadata (root page, next free id, entry count),
the R* configuration (fanout bounds, forced-reinsert count), and the
live LRU-buffer state (resident page ids in recency order) with the
page-access counters.  Restoring replays none of the insert path — the
page image is installed wholesale — so the restored tree has the same
page ids, the same fanouts and the same buffer-miss behaviour on any
access sequence as the live tree it was taken from.

Leaf payloads are format-agnostic here: callers supply
``write_payload(writer, data)`` / ``read_payload(reader)`` codecs
(points for entity trees, obstacle-id references for obstacle trees),
keeping this module a pure index-layer concern.

Framing (endianness, checksums, error reporting) is inherited from
:mod:`repro.persist.codec`; this module only defines the record
layout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.geometry.rect import Rect
from repro.index.node import Entry, Node
from repro.index.rstar import RStarTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persist.codec import BinaryReader, BinaryWriter

_LEAF = 1
_INTERNAL = 0


def write_tree(
    w: "BinaryWriter",
    tree: RStarTree,
    write_payload: Callable[["BinaryWriter", Any], None],
) -> None:
    """Serialize ``tree`` node-per-page through ``w``.

    ``write_payload`` encodes one leaf entry's ``data`` slot.
    """
    w.str_(tree.name)
    w.u32(tree.max_entries)
    w.u32(tree.min_entries)
    w.u32(tree.reinsert_count)
    w.f64(tree.buffer.fraction)
    fixed = tree.buffer.fixed_capacity
    w.i64(-1 if fixed is None else fixed)
    w.u64(tree.size)
    w.u64(tree.root_id)
    w.u64(tree.next_page_id)
    w.u64(tree.counter.reads)
    w.u64(tree.counter.misses)
    w.u64(tree.counter.writes)
    resident = tree.buffer.page_ids()
    w.u32(len(resident))
    for pid in resident:
        w.u64(pid)
    pages = list(tree.pages())
    w.u32(len(pages))
    for node in pages:
        w.u64(node.page_id)
        w.u32(node.level)
        w.u32(len(node.entries))
        for entry in node.entries:
            w.u8(_LEAF if entry.is_leaf_entry else _INTERNAL)
            rect = entry.rect
            w.f64(rect.minx)
            w.f64(rect.miny)
            w.f64(rect.maxx)
            w.f64(rect.maxy)
            if entry.is_leaf_entry:
                write_payload(w, entry.data)
            else:
                w.u64(entry.child)  # type: ignore[arg-type]


def parse_tree(
    r: "BinaryReader",
    read_payload: Callable[["BinaryReader"], Any],
) -> dict[str, Any]:
    """Decode one tree record into its raw parts — the one reader of
    the record layout.  No tree is built: ``nodes`` are bare pages
    whose leaf entries carry whatever ``read_payload`` returned, so a
    caller may summarise the parts, or rewrite the leaf payloads
    (obstacle ids into obstacles) before :func:`build_tree`."""
    parts: dict[str, Any] = {
        "name": r.str_(),
        "max_entries": r.u32(),
        "min_entries": r.u32(),
        "reinsert_count": r.u32(),
        "buffer_fraction": r.f64(),
        "fixed_capacity": r.i64(),
        "size": r.u64(),
        "root_id": r.u64(),
        "next_id": r.u64(),
        "reads": r.u64(),
        "misses": r.u64(),
        "writes": r.u64(),
    }
    parts["resident"] = [r.u64() for __ in range(r.u32())]
    nodes = []
    for __ in range(r.u32()):
        page_id = r.u64()
        level = r.u32()
        entries = []
        for __e in range(r.u32()):
            kind = r.u8()
            rect = Rect(r.f64(), r.f64(), r.f64(), r.f64())
            if kind == _LEAF:
                entries.append(Entry(rect, data=read_payload(r)))
            elif kind == _INTERNAL:
                entries.append(Entry(rect, child=r.u64()))
            else:
                raise r.error(
                    f"unknown entry kind {kind} in tree {parts['name']!r}"
                )
        nodes.append(Node(page_id, level, entries))
    parts["nodes"] = nodes
    return parts


def build_tree(parts: dict[str, Any]) -> RStarTree:
    """The tree :func:`parse_tree`'s ``parts`` describe.

    It is observationally identical to the serialized one: page ids,
    node fanouts, buffer residency and access counters all round-trip.
    """
    fixed = parts["fixed_capacity"]
    tree = RStarTree(
        max_entries=parts["max_entries"],
        min_entries=parts["min_entries"],
        buffer_fraction=parts["buffer_fraction"],
        buffer_capacity=None if fixed < 0 else fixed,
        name=parts["name"],
    )
    tree.install_pages(
        parts["nodes"],
        root_id=parts["root_id"],
        next_id=parts["next_id"],
        size=parts["size"],
        reinsert_count=parts["reinsert_count"],
    )
    tree.buffer.load_pages(parts["resident"])
    tree.counter.reads = parts["reads"]
    tree.counter.misses = parts["misses"]
    tree.counter.writes = parts["writes"]
    return tree


def read_tree(
    r: "BinaryReader",
    read_payload: Callable[["BinaryReader"], Any],
) -> RStarTree:
    """Decode one tree record written by :func:`write_tree`."""
    return build_tree(parse_tree(r, read_payload))
