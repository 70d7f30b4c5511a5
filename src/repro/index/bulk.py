"""Sort-Tile-Recursive (STR) bulk loading.

Building a 100k-entry R*-tree by repeated insertion is needlessly slow
for benchmark setup.  STR packing produces a well-clustered tree in one
pass; a fill factor below 1.0 mimics the ~70 % average page utilisation
of dynamically built trees, so page counts (and therefore the paper's
buffer sizing and I/O numbers) stay comparable.

Each level is sorted as one float64 rect array, and every node written
keeps its slice of that sorted array as :meth:`Node.rects`: a
bulk-loaded tree is born packed.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import SpatialIndexError
from repro.geometry.rect import Rect
from repro.index import mbrs
from repro.index.node import Entry, Node
from repro.index.rstar import RStarTree


def str_pack(
    tree: RStarTree,
    items: Iterable[tuple[Any, Rect]],
    fill: float = 0.7,
) -> RStarTree:
    """Bulk-load ``items`` (``(data, rect)`` pairs) into an empty tree.

    Returns the tree for chaining.  Raises if the tree is non-empty.
    """
    if len(tree) != 0:
        raise SpatialIndexError("str_pack requires an empty tree")
    if not 0.0 < fill <= 1.0:
        raise SpatialIndexError(f"fill factor must be in (0, 1], got {fill}")
    entries = [Entry(rect, data=data) for data, rect in items]
    if not entries:
        return tree
    size = len(entries)
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
    tree._size = size
    return tree


def _pack_level(
    tree: RStarTree, entries: Sequence[Entry], level: int, capacity: int
) -> list[Node]:
    """Tile one level: sort by x, slab, sort slabs by y, chunk into nodes.

    Both sorts are stable over the centre sums ``minx + maxx`` and
    ``miny + maxy``.  A slab holds a whole number of chunks, so the
    chunks are the runs of ``capacity`` rows of the sorted array.
    """
    n = len(entries)
    rects = mbrs.pack(e.rect for e in entries)
    page_estimate = math.ceil(n / capacity)
    slab_size = max(1, math.ceil(math.sqrt(page_estimate))) * capacity
    by_x = np.argsort(rects[:, 0] + rects[:, 2], kind="stable")
    slab = np.arange(n) // slab_size
    order = by_x[np.lexsort((rects[by_x, 1] + rects[by_x, 3], slab))]
    # In place, a column at a time: freeing a second level-sized array
    # raises malloc's mmap threshold, and with it the peak RSS.
    for column in rects.T:
        column[:] = column[order]
    pages = [tree._store.allocate() for __ in range(page_estimate)]
    bounds = _fix_trailing_underflow(tree, list(range(0, n, capacity)) + [n])
    nodes: list[Node] = []
    for page_id, lo, hi in zip(pages, bounds, bounds[1:]):
        node = Node(page_id, level, [entries[i] for i in order[lo:hi].tolist()])
        tree._store.write(node)
        node._rects = rects[lo:hi]
        nodes.append(node)
    return nodes


def _fix_trailing_underflow(tree: RStarTree, bounds: list[int]) -> list[int]:
    """Rebalance the final chunk of a level if it ended up under-full.

    ``bounds`` are the chunks' first rows and the row count.  STR can
    leave the last chunk with fewer than ``min_entries`` entries; steal
    from its predecessor so R-tree invariants hold.
    """
    if len(bounds) < 3 or bounds[-1] - bounds[-2] >= tree.min_entries:
        return bounds
    combined = bounds[-1] - bounds[-3]
    if combined <= tree.max_entries:
        # Merge the tail into the donor: its page id stays unwritten.
        return bounds[:-2] + bounds[-1:]
    half = max(tree.min_entries, min(combined // 2, combined - tree.min_entries))
    return bounds[:-2] + [bounds[-3] + half, bounds[-1]]
