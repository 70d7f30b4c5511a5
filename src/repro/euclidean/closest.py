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
queue holds that batch as one entry, so the combination tuples below
are built only for combinations that are actually popped.

The combinations of one batch share their other side, and many open
it in turn: a one-leaf ``S`` spanning the universe keys 0 against
every ``T`` leaf, and each such pop would read that leaf again.  So
the first pop to open a batch's shared side reads it once and keys its
children against every entry of the batch in one MINDIST matrix
(:class:`_Group`); each pop that opens it admits its own row — the
batch its own open would make, when it would make it — so the pairs,
their order (ties included) and every page read but the repeats stay
those of one open per pop.  Admitting the matrix whole at the first
pop would move later rows ahead of items made in between, and reorder
ties.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator

import numpy as np

from repro.errors import QueryError
from repro.geometry.rect import Rect
from repro.index import mbrs
from repro.index.node import Node
from repro.index.rstar import RStarTree
from repro.runtime.skeletons import best_first, take

#: The level of a data entry; a node's is its tree level (0 for a leaf).
_DATA = -1

#: One side of a combination: (level, payload, rect).  A combination
#: is an S side, a T side, the _Group it came from and its index there.
_Side = tuple[int, Any, Rect]


class IncrementalClosestPairs:
    """An iterator yielding ``(s, t, distance)`` in ascending distance.

    Expansion strategy: for node/node combinations the node with the
    larger MBR area is expanded (the heuristic of [CMTV00]); node/data
    combinations expand the node side.
    """

    def __init__(self, tree_s: RStarTree, tree_t: RStarTree) -> None:
        keys, combo = [], None
        if len(tree_s) > 0 and len(tree_t) > 0:
            root_s = tree_s.read_node(tree_s.root_id)
            root_t = tree_t.read_node(tree_t.root_id)
            s_rect, t_rect = root_s.mbr(), root_t.mbr()
            combo = (root_s.level, root_s.page_id, s_rect)
            combo += (root_t.level, root_t.page_id, t_rect, None, 0)
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


def _expand(tree_s: RStarTree, tree_t: RStarTree, combo: tuple):
    s_level, s_pay, s_rect, t_level, t_pay, t_rect, group, i = combo
    # Pick the side to open: the larger node of a node/node pair,
    # otherwise whichever side still is a node.
    open_s = s_level >= 0 and (t_level < 0 or s_rect.area() >= t_rect.area())
    if group is not None and group.shares and open_s != group.opened_s:
        return group.open_shared(tree_s if open_s else tree_t, i)
    if open_s:
        return _Group(tree_s.read_node(s_pay), True, combo[3:6]).batch()
    return _Group(tree_t.read_node(t_pay), False, combo[:3]).batch()


class _Group:
    """The batch of one open: each entry of ``node`` (a node of S when
    ``opened_s``) against the ``shared`` side.  Where it ``shares``,
    :meth:`open_shared` reads the shared node once for all of them."""

    __slots__ = ("node", "opened_s", "shared", "keys", "shares", "inner", "block")

    def __init__(
        self, node: Node, opened_s: bool, shared: _Side, keys: np.ndarray | None = None
    ) -> None:
        self.node, self.opened_s, self.shared = node, opened_s, shared
        if keys is None:
            keys = mbrs.mindist_rect(node.rects(), shared[2])
        self.keys = keys
        # Not where both sides' entries would be data: most rows of that
        # matrix never pop (first 64 pairs at 131 x 13,146, 204-entry
        # nodes, 2-core x86-64: 2.3 ms without such matrices, 9.6 with).
        level = shared[0]
        self.shares = level > 0 or (level == 0 and node.level > 0)
        self.inner = self.block = None

    def batch(self):
        final = self.node.level == 0 and self.shared[0] == _DATA
        return self.keys, final, self.make

    def make(self, i: int) -> tuple:
        if self.opened_s:
            return _side(self.node, i) + self.shared + (self, i)
        return self.shared + _side(self.node, i) + (self, i)

    def open_shared(self, tree: RStarTree, i: int):
        """The batch combination ``i``'s open of the shared side makes."""
        if self.inner is None:
            self.inner = tree.read_node(self.shared[1])
            bounds = self.inner.rects().T
            self.block = mbrs.mindist(self.node.rects()[:, None, :], *bounds)
        row = _Group(self.inner, not self.opened_s, _side(self.node, i), self.block[i])
        return row.batch()


def _side(node: Node, i: int) -> _Side:
    e = node.entries[i]
    return (_DATA, e.data, e.rect) if node.level == 0 else (node.level - 1, e.child, e.rect)


def k_closest_pairs(
    tree_s: RStarTree, tree_t: RStarTree, k: int
) -> list[tuple[Any, Any, float]]:
    """The ``k`` Euclidean closest pairs as ``(s, t, distance)``."""
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    return take(IncrementalClosestPairs(tree_s, tree_t), k)
