"""Incremental closest pairs over two R-trees [HS98, CMTV00].

OCP (paper Fig. 11) pulls Euclidean closest pairs one at a time until
the next pair's Euclidean distance exceeds the obstructed-distance
threshold, so the algorithm must be incremental.  Like the
nearest-neighbour iterator, it is a parameterization of the shared
best-first skeleton (:func:`repro.runtime.skeletons.best_first`): the
queue holds node/node, node/data and data/data combinations keyed by
the MINDIST lower bound of the pair; a data/data combination is a
*final* item — its distance is exact and no other combination can
produce a closer pair.  Expanding a combination opens one node and
keys all its entries against the other side in one numpy pass; the
queue holds that batch as one entry, so the 6-tuples below are built
only for combinations that are actually popped.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator

from repro.errors import QueryError
from repro.geometry.rect import Rect
from repro.index import mbrs
from repro.index.rstar import RStarTree
from repro.runtime.skeletons import best_first, take

_NODE = 0
_DATA = 1

#: Internal payload: (s_kind, s_payload, s_rect, t_kind, t_payload, t_rect)
_Combo = tuple[int, Any, Rect, int, Any, Rect]


class IncrementalClosestPairs:
    """An iterator yielding ``(s, t, distance)`` in ascending distance.

    Expansion strategy: for node/node combinations the node with the
    larger MBR area is expanded (the heuristic of [CMTV00]); node/data
    combinations expand the node side.
    """

    def __init__(self, tree_s: RStarTree, tree_t: RStarTree) -> None:
        keys, combo = [], None
        if len(tree_s) > 0 and len(tree_t) > 0:
            s_rect = tree_s.read_node(tree_s.root_id).mbr()
            t_rect = tree_t.read_node(tree_t.root_id).mbr()
            combo = (_NODE, tree_s.root_id, s_rect, _NODE, tree_t.root_id, t_rect)
            keys.append(s_rect.mindist_rect(t_rect))
        # The expansion holds the trees, not the iterator (see
        # IncrementalNearestNeighbors): a dropped iterator is freed with
        # its queue at once.
        self._stream = best_first(
            (keys, False, lambda i: combo), partial(_expand, tree_s, tree_t)
        )

    def __iter__(self) -> Iterator[tuple[Any, Any, float]]:
        return self

    def __next__(self) -> tuple[Any, Any, float]:
        combo, dist = next(self._stream)
        return combo[1], combo[4], dist


def _expand(tree_s: RStarTree, tree_t: RStarTree, combo: _Combo):
    s_kind, s_pay, s_rect, t_kind, t_pay, t_rect = combo
    # Pick the side to open: the larger node of a node/node pair,
    # otherwise whichever side still is a node.  All entries of the
    # opened node are keyed against the other side's rect at once.
    open_s = s_kind == _NODE and (t_kind == _DATA or s_rect.area() >= t_rect.area())
    node = tree_s.read_node(s_pay) if open_s else tree_t.read_node(t_pay)
    other = t_rect if open_s else s_rect
    keys = mbrs.mindist_rect(node.rects(), other)
    entries = node.entries
    leaf = node.is_leaf
    kind = _DATA if leaf else _NODE

    def make(i: int) -> _Combo:
        e = entries[i]
        payload = e.data if leaf else e.child
        if open_s:
            return kind, payload, e.rect, t_kind, t_pay, t_rect
        return s_kind, s_pay, s_rect, kind, payload, e.rect

    other_kind = t_kind if open_s else s_kind
    return keys, leaf and other_kind == _DATA, make


def k_closest_pairs(
    tree_s: RStarTree, tree_t: RStarTree, k: int
) -> list[tuple[Any, Any, float]]:
    """The ``k`` Euclidean closest pairs as ``(s, t, distance)``."""
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    return take(IncrementalClosestPairs(tree_s, tree_t), k)
