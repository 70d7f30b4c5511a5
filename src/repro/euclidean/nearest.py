"""Best-first incremental nearest-neighbour search [HS99].

The ONN algorithm (paper Fig. 9) requires *incremental* retrieval: it
keeps pulling the next Euclidean neighbour until the Euclidean distance
exceeds the shrinking obstructed-distance threshold ``d_Emax``.  The
iterator below is the classic optimal algorithm — a priority queue over
both node MBRs (keyed by MINDIST) and data entries (keyed by actual
distance) — expressed as a parameterization of the shared best-first
skeleton (:func:`repro.runtime.skeletons.best_first`): R-tree nodes
are *internal* items whose MINDIST lower-bounds everything beneath
them, data entries are *final* items reported in exact ascending
distance order.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index import mbrs
from repro.index.rstar import RStarTree
from repro.runtime.skeletons import best_first, take


class IncrementalNearestNeighbors:
    """An iterator yielding ``(data, distance)`` in ascending distance.

    A parameterization of the shared best-first skeleton: the seed is
    the root node (lower bound 0), expansion reads one R-tree node and
    keys all its entries in one pass over the packed MBRs — final data
    items for leaves, internal child nodes otherwise.  When a data
    entry reaches the queue front, no unexplored subtree can contain
    anything closer, so it is emitted.
    """

    def __init__(self, tree: RStarTree, q: Point) -> None:
        root_id = tree.root_id
        seeds = ([0.0] if len(tree) > 0 else [], False, lambda i: root_id)
        # The expansion holds the tree and q, not the iterator: a stream
        # that referred back to its iterator would make every dropped
        # iterator, queue and all, wait for a full garbage collection.
        self._stream = best_first(seeds, partial(_expand, tree, q))

    def __iter__(self) -> Iterator[tuple[Any, float]]:
        return self

    def __next__(self) -> tuple[Any, float]:
        return next(self._stream)


def _expand(tree: RStarTree, q: Point, page_id: int):
    node = tree.read_node(page_id)
    x, y = q.x, q.y
    entries = node.entries
    keys = mbrs.mindist(node.rects(), x, y, x, y)
    if node.is_leaf:
        return keys, True, lambda i: entries[i].data
    return keys, False, lambda i: entries[i].child


def k_nearest(tree: RStarTree, q: Point, k: int) -> list[tuple[Any, float]]:
    """The ``k`` nearest data items to ``q`` as ``(data, distance)`` pairs.

    Returns fewer than ``k`` pairs when the tree holds fewer items.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    return take(IncrementalNearestNeighbors(tree, q), k)
