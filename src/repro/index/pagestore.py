"""Simulated page storage with a counting LRU buffer.

Physical I/O does not exist in this reproduction — what the paper
measures is the *number of page accesses* that survive an LRU buffer
sized at 10 % of each R-tree.  That number is a deterministic function
of the access sequence, so we reproduce it exactly: every node fetch
goes through :class:`LRUBuffer`, and misses are tallied by the tree's
:class:`repro.stats.PageAccessCounter`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import SpatialIndexError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.index.node import Node


class LRUBuffer:
    """A least-recently-used page buffer that only tracks page ids.

    ``capacity`` may be a fixed page count or ``None``, in which case it
    is derived on demand as ``max(1, fraction * store_pages)`` — the
    paper's "10 % of each R-tree" policy, kept current as trees grow.
    """

    __slots__ = ("_fraction", "_fixed_capacity", "_pages")

    def __init__(self, fraction: float = 0.1, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise SpatialIndexError(f"buffer capacity must be >= 1, got {capacity}")
        if not 0.0 < fraction <= 1.0:
            raise SpatialIndexError(f"buffer fraction must be in (0, 1], got {fraction}")
        self._fraction = fraction
        self._fixed_capacity = capacity
        self._pages: OrderedDict[int, None] = OrderedDict()

    @property
    def fraction(self) -> float:
        """The fraction of the store's pages the buffer may hold (used
        whenever no fixed capacity is pinned)."""
        return self._fraction

    @property
    def fixed_capacity(self) -> int | None:
        """The pinned page capacity, or ``None`` in fraction mode."""
        return self._fixed_capacity

    def capacity_for(self, store_pages: int) -> int:
        """Effective capacity given the current store size."""
        if self._fixed_capacity is not None:
            return self._fixed_capacity
        return max(1, int(self._fraction * store_pages))

    def set_capacity(self, capacity: int | None) -> None:
        """Pin the capacity to a page count (``None`` restores fraction mode)."""
        if capacity is not None and capacity < 1:
            raise SpatialIndexError(f"buffer capacity must be >= 1, got {capacity}")
        self._fixed_capacity = capacity
        self._evict_to(self.capacity_for(len(self._pages)))

    def access(self, page_id: int, store_pages: int) -> bool:
        """Touch a page; returns ``True`` on a buffer hit.

        Deterministic: one thread touches a buffer at a time (parallel
        batches run in processes, each with its own copy of the tree).
        """
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            return True
        self._pages[page_id] = None
        self._evict_to(self.capacity_for(store_pages))
        return False

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the buffer (on page deallocation)."""
        self._pages.pop(page_id, None)

    def page_ids(self) -> list[int]:
        """Resident page ids in LRU order (least recently used first).

        Together with :meth:`load_pages` this makes the buffer state
        serializable: a snapshot that restores the page-id order
        reproduces the exact hit/miss sequence the live buffer would
        have produced.
        """
        return list(self._pages)

    def load_pages(self, page_ids: Iterable[int]) -> None:
        """Snapshot-restore hook: set the resident set wholesale.

        ``page_ids`` must be in LRU order (as returned by
        :meth:`page_ids`); the previous buffer content is discarded.
        """
        self._pages = OrderedDict((pid, None) for pid in page_ids)

    def clear(self) -> None:
        """Empty the buffer (cold-start a workload)."""
        self._pages.clear()

    def _evict_to(self, capacity: int) -> None:
        while len(self._pages) > capacity:
            try:
                self._pages.popitem(last=False)
            except KeyError:  # concurrently drained by another worker
                break

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages


class PageStore:
    """An in-memory page-id -> node map standing in for a disk file."""

    __slots__ = ("_pages", "_next_id")

    def __init__(self) -> None:
        self._pages: dict[int, "Node"] = {}
        self._next_id = 0

    def allocate(self) -> int:
        """Reserve and return a fresh page id."""
        pid = self._next_id
        self._next_id += 1
        return pid

    def write(self, node: "Node") -> None:
        """Persist a node at its page id.

        Every mutation of a node's entries ends here, so this is where
        what the node derived from them (:meth:`Node.rects`,
        :meth:`Node.mbr`) is dropped.
        """
        node.drop_cached()
        self._pages[node.page_id] = node

    def read(self, page_id: int) -> "Node":
        """Fetch the node stored at ``page_id``."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise SpatialIndexError(f"page {page_id} does not exist") from None

    def free(self, page_id: int) -> None:
        """Deallocate a page."""
        self._pages.pop(page_id, None)

    @property
    def next_id(self) -> int:
        """The id the next :meth:`allocate` call will hand out."""
        return self._next_id

    def nodes(self) -> Iterator["Node"]:
        """All stored nodes in ascending page-id order, bypassing any
        buffer/counter accounting (serialization traffic is not
        simulated I/O)."""
        for page_id in sorted(self._pages):
            yield self._pages[page_id]

    def restore(self, nodes: Iterable["Node"], next_id: int) -> None:
        """Snapshot-restore hook: replace the page file wholesale.

        ``next_id`` must exceed every restored page id so later
        allocations never collide with restored pages.
        """
        pages = {node.page_id: node for node in nodes}
        if pages and next_id <= max(pages):
            raise SpatialIndexError(
                f"next page id {next_id} collides with restored page "
                f"{max(pages)}"
            )
        self._pages = pages
        self._next_id = next_id

    def __len__(self) -> int:
        return len(self._pages)

    def __iter__(self) -> Iterator[int]:
        return iter(self._pages)
