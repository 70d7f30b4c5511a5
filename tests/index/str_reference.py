"""Scalar STR reference — the oracle for the array-sorted bulk load.

This is the per-entry packing ``src/`` used before each level was
sorted as one rect array: python ``sorted`` over the centre sums (a
stable sort, like ``np.argsort(kind="stable")``), nodes written chunk
by chunk, and an under-full last node rebalanced after it was written.
A tree built here must equal one built by
:func:`repro.index.bulk.str_pack` page for page.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

from repro.geometry.rect import Rect
from repro.index.node import Entry, Node
from repro.index.rstar import RStarTree


def str_pack(
    tree: RStarTree, items: Iterable[tuple[Any, Rect]], fill: float = 0.7
) -> RStarTree:
    """Bulk-load ``items`` into the empty ``tree``."""
    entries = [Entry(rect, data=data) for data, rect in items]
    if not entries:
        return tree
    capacity = max(tree.min_entries, int(tree.max_entries * fill))
    level = 0
    while True:
        nodes = _pack_level(tree, entries, level, capacity)
        if len(nodes) == 1:
            root = nodes[0]
            old_root = tree._store.read(tree._root_id)
            if old_root.page_id != root.page_id:
                tree.buffer.invalidate(old_root.page_id)
                tree._store.free(old_root.page_id)
            tree._root_id = root.page_id
            break
        entries = [Entry(n.mbr(), child=n.page_id) for n in nodes]
        level += 1
    tree._size = sum(1 for __ in tree.items())
    return tree


def _pack_level(
    tree: RStarTree, entries: Sequence[Entry], level: int, capacity: int
) -> list[Node]:
    """Tile one level: sort by x, slab, sort slabs by y, chunk into nodes."""
    n = len(entries)
    page_estimate = math.ceil(n / capacity)
    slab_count = max(1, math.ceil(math.sqrt(page_estimate)))
    slab_size = slab_count * capacity
    by_x = sorted(entries, key=lambda e: (e.rect.minx + e.rect.maxx))
    nodes: list[Node] = []
    for start in range(0, n, slab_size):
        slab = sorted(
            by_x[start : start + slab_size],
            key=lambda e: (e.rect.miny + e.rect.maxy),
        )
        for chunk_start in range(0, len(slab), capacity):
            chunk = slab[chunk_start : chunk_start + capacity]
            node = Node(tree._store.allocate(), level, list(chunk))
            tree._store.write(node)
            nodes.append(node)
    return _fix_trailing_underflow(tree, nodes)


def _fix_trailing_underflow(tree: RStarTree, nodes: list[Node]) -> list[Node]:
    """Steal from the second-last node when the last is under-full:
    merge the two if they fit one page, else split them evenly."""
    if len(nodes) < 2:
        return nodes
    last = nodes[-1]
    if len(last.entries) >= tree.min_entries:
        return nodes
    donor = nodes[-2]
    combined = donor.entries + last.entries
    if len(combined) <= tree.max_entries:
        donor.entries = combined
        tree._store.write(donor)
        tree._store.free(last.page_id)
        return nodes[:-1]
    half = len(combined) // 2
    half = max(tree.min_entries, min(half, len(combined) - tree.min_entries))
    donor.entries = combined[:half]
    last.entries = combined[half:]
    tree._store.write(donor)
    tree._store.write(last)
    return nodes
