"""R-tree node and entry records."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import SpatialIndexError
from repro.geometry.rect import Rect
from repro.index import mbrs


class Entry:
    """One slot of an R-tree node.

    Internal-node entries carry ``child`` (a page id) and the MBR of the
    child's subtree.  Leaf entries carry ``data`` (an arbitrary payload,
    e.g. a :class:`~repro.geometry.point.Point` or an obstacle record)
    and its MBR.
    """

    __slots__ = ("rect", "child", "data")

    def __init__(
        self, rect: Rect, child: int | None = None, data: Any = None
    ) -> None:
        if (child is None) == (data is None):
            raise SpatialIndexError("entry must have exactly one of child/data")
        self.rect = rect
        self.child = child
        self.data = data

    @property
    def is_leaf_entry(self) -> bool:
        """True for data-carrying entries."""
        return self.child is None

    def __repr__(self) -> str:
        if self.is_leaf_entry:
            return f"Entry(data={self.data!r}, rect={self.rect!r})"
        return f"Entry(child={self.child}, rect={self.rect!r})"


class Node:
    """An R-tree page: a level tag plus up to ``M`` entries.

    ``level`` is 0 for leaves and grows toward the root; this matches
    the R*-tree forced-reinsert bookkeeping, which is per level.

    Traversals evaluate a node through :meth:`rects`, the packed array
    of its entries' MBRs, and :meth:`mbr`, their union.  The STR bulk
    load hands every node it writes its array (a slice of the level's
    sorted one); otherwise both are built on first use (the insert path
    asks for the union only) and are derived state only:
    :meth:`~repro.index.pagestore.PageStore.write` drops them (every
    mutation of ``entries`` ends in a page write), and they are not
    pickled or serialized.
    """

    __slots__ = ("page_id", "level", "entries", "_rects", "_mbr")

    def __init__(self, page_id: int, level: int, entries: list[Entry] | None = None):
        self.page_id = page_id
        self.level = level
        self.entries: list[Entry] = entries if entries is not None else []
        self._rects: np.ndarray | None = None
        self._mbr: Rect | None = None

    def __reduce__(self) -> tuple:
        return (Node, (self.page_id, self.level, self.entries))

    @property
    def is_leaf(self) -> bool:
        """True when this node stores data entries."""
        return self.level == 0

    def rects(self) -> np.ndarray:
        """The ``(n, 4)`` float64 array of the entries' MBRs, row ``i``
        being ``entries[i].rect`` (see :mod:`repro.index.mbrs`)."""
        rects = self._rects
        if rects is None:
            rects = self._rects = mbrs.pack(e.rect for e in self.entries)
        return rects

    def drop_cached(self) -> None:
        """Forget the packed array and the MBR (the entries changed)."""
        self._rects = self._mbr = None

    def mbr(self) -> Rect:
        """The MBR of all entries (the rect this node's parent stores)."""
        mbr = self._mbr
        if mbr is None:
            if not self.entries:
                raise SpatialIndexError(f"node {self.page_id} has no entries")
            mbr = self._mbr = Rect.union_all(e.rect for e in self.entries)
        return mbr

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"level-{self.level}"
        return f"Node(page={self.page_id}, {kind}, {len(self.entries)} entries)"
