"""A full R*-tree [BKSS90] over the simulated page store.

Implements the complete dynamic behaviour the paper's experimental
setup relies on:

* **ChooseSubtree** — minimum overlap enlargement when descending into
  the target level (with the R* top-32 candidate cut-off), minimum area
  enlargement above it;
* **Split** — axis chosen by minimum margin sum over all distributions,
  distribution chosen by minimum overlap (ties by area);
* **Forced reinsert** — 30 % of the farthest entries of the first
  overflowing node per level are re-inserted ("close reinsert" order);
* **Deletion** — condense-tree with orphan re-insertion and root
  shrinking.

Node capacity is derived from a simulated page layout; the paper's
configuration (4 KB pages, 204 entries) is the default:
``(4096 - 16) // 20 == 204``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.errors import QueryError, SpatialIndexError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.index import mbrs
from repro.index.node import Entry, Node
from repro.index.pagestore import LRUBuffer, PageStore
from repro.obs.trace import TRACER
from repro.stats.counters import PageAccessCounter

#: Cap on candidates examined by the minimum-overlap ChooseSubtree rule,
#: as recommended by the R* paper for large fanouts.
_CHOOSE_SUBTREE_CANDIDATES = 32


class RStarTree:
    """An R*-tree with counted, buffered page accesses.

    Parameters
    ----------
    page_size, entry_size, header_size:
        The simulated page layout; node capacity is
        ``(page_size - header_size) // entry_size`` unless
        ``max_entries`` overrides it.
    min_fill:
        Minimum node fill as a fraction of capacity (R* uses 40 %).
    reinsert_fraction:
        Fraction of entries evicted by forced reinsert (R* uses 30 %).
    buffer_fraction:
        LRU buffer size as a fraction of the tree's pages (paper: 10 %).
    name:
        Label used in statistics output.
    """

    def __init__(
        self,
        *,
        page_size: int = 4096,
        entry_size: int = 20,
        header_size: int = 16,
        max_entries: int | None = None,
        min_entries: int | None = None,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
        buffer_fraction: float = 0.1,
        buffer_capacity: int | None = None,
        name: str = "rtree",
    ) -> None:
        if max_entries is None:
            max_entries = (page_size - header_size) // entry_size
        if max_entries < 4:
            raise SpatialIndexError(f"node capacity too small: {max_entries}")
        if min_entries is None:
            min_entries = max(2, int(max_entries * min_fill))
        if not 2 <= min_entries <= max_entries // 2:
            raise SpatialIndexError(
                f"min_entries must be in [2, M/2]; got m={min_entries}, M={max_entries}"
            )
        self.name = name
        self.max_entries = max_entries
        self.min_entries = min_entries
        self._reinsert_count = max(1, int(reinsert_fraction * (max_entries + 1)))
        self._store = PageStore()
        self.buffer = LRUBuffer(fraction=buffer_fraction, capacity=buffer_capacity)
        self.counter = PageAccessCounter()
        self._size = 0
        root = Node(self._store.allocate(), level=0)
        self._store.write(root)
        self._root_id = root.page_id

    # ------------------------------------------------------------------ basic
    @property
    def root_id(self) -> int:
        """Page id of the root node."""
        return self._root_id

    @property
    def size(self) -> int:
        """Number of data entries stored."""
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a leaf-only tree)."""
        return self._store.read(self._root_id).level + 1

    @property
    def page_count(self) -> int:
        """Number of allocated pages."""
        return len(self._store)

    @property
    def next_page_id(self) -> int:
        """The page id the next allocation will hand out (persisted by
        snapshots so restored trees never reuse a retired id)."""
        return self._store.next_id

    def read_node(self, page_id: int) -> Node:
        """Fetch a node through the buffer, counting the access."""
        hit = self.buffer.access(page_id, len(self._store))
        self.counter.record_read(hit)
        TRACER.count("rtree.page_fetch")
        if not hit:
            TRACER.count("rtree.page_miss")
        return self._store.read(page_id)

    def reset_stats(self, *, clear_buffer: bool = False) -> None:
        """Zero the access counters; optionally cold-start the buffer."""
        self.counter.reset()
        if clear_buffer:
            self.buffer.clear()

    # ------------------------------------------------------------ persistence
    @property
    def reinsert_count(self) -> int:
        """Entries evicted per forced reinsert (derived from
        ``reinsert_fraction`` at construction; persisted by snapshots so
        a restored tree keeps the exact R* insert behaviour)."""
        return self._reinsert_count

    def pages(self) -> Iterator[Node]:
        """All allocated nodes in ascending page-id order, bypassing the
        buffer and counters (snapshot traffic is not simulated I/O)."""
        return self._store.nodes()

    def install_pages(
        self,
        nodes: Iterable[Node],
        *,
        root_id: int,
        next_id: int,
        size: int,
        reinsert_count: int | None = None,
    ) -> None:
        """Snapshot-restore hook: replace the tree's page file wholesale.

        ``nodes`` must describe a complete tree whose root lives at
        ``root_id``; ``size`` is the data-entry count and ``next_id``
        the next page id to allocate.  The buffer and counters are left
        untouched (restore them separately via
        :meth:`~repro.index.pagestore.LRUBuffer.load_pages` and the
        counter's public fields).  Page ids, levels and entry order are
        taken verbatim, so the restored tree is observationally
        identical to the one serialized — including the page-access
        sequence of any later query.
        """
        nodes = list(nodes)
        by_id = {node.page_id: node for node in nodes}
        if root_id not in by_id:
            raise SpatialIndexError(
                f"restored root page {root_id} is not among the pages"
            )
        self._store.restore(nodes, next_id)
        self._root_id = root_id
        self._size = size
        if reinsert_count is not None:
            if reinsert_count < 1:
                raise SpatialIndexError(
                    f"reinsert count must be >= 1, got {reinsert_count}"
                )
            self._reinsert_count = reinsert_count

    # ------------------------------------------------------------- maintenance
    def insert(self, data: Any, rect: Rect) -> None:
        """Insert a data payload with its MBR."""
        entry = Entry(rect, data=data)
        self._insert_entry(entry, 0, set())
        self._size += 1

    def delete(self, data: Any, rect: Rect) -> bool:
        """Remove one entry whose payload equals ``data`` and whose rect
        intersects ``rect``.  Returns ``True`` when an entry was removed."""
        path = self._find_leaf(self._root_id, data, rect, [])
        if path is None:
            return False
        leaf = path[-1]
        for i, e in enumerate(leaf.entries):
            if e.is_leaf_entry and e.data == data:
                del leaf.entries[i]
                break
        self._write_node(leaf)
        self._size -= 1
        self._condense(path)
        return True

    # ------------------------------------------------------------------ queries
    def search_rect(self, rect: Rect) -> list[Entry]:
        """All leaf entries whose MBR intersects ``rect``."""
        return list(self.iter_rect(rect))

    def iter_rect(self, rect: Rect) -> Iterator[Entry]:
        """Stream leaf entries whose MBR intersects ``rect``."""
        return self._iter_matching(lambda rects: mbrs.intersects(rects, rect))

    def search_circle(self, circle: Circle) -> list[Entry]:
        """All leaf entries whose MBR intersects the disk.

        This is the *filter* step; non-rectangular payloads need
        refinement by the caller (paper Sec. 2.1).
        """
        if circle.radius < 0:
            raise QueryError("negative search radius")
        x, y = circle.center.x, circle.center.y
        limit = circle.radius * circle.radius
        return list(
            self._iter_matching(
                lambda rects: mbrs.mindist_sq(rects, x, y, x, y) <= limit
            )
        )

    def _iter_matching(
        self, matching: Callable[[np.ndarray], np.ndarray]
    ) -> Iterator[Entry]:
        """Depth-first filter; ``matching`` maps a node's packed MBRs to
        the mask of entries to report (leaf) or descend into."""
        if self._size == 0:
            return
        stack = [self._root_id]
        while stack:
            node = self.read_node(stack.pop())
            entries = node.entries
            hits = np.flatnonzero(matching(node.rects())).tolist()
            if node.is_leaf:
                for i in hits:
                    yield entries[i]
            else:
                stack.extend(entries[i].child for i in hits)

    def items(self) -> Iterator[tuple[Any, Rect]]:
        """All ``(data, rect)`` pairs, bypassing the buffer/counters."""
        stack = [self._root_id]
        while stack:
            node = self._store.read(stack.pop())
            for e in node.entries:
                if node.is_leaf:
                    yield e.data, e.rect
                else:
                    stack.append(e.child)  # type: ignore[arg-type]

    def mbr(self) -> Rect | None:
        """MBR of the whole dataset (``None`` when empty)."""
        if self._size == 0:
            return None
        return self._store.read(self._root_id).mbr()

    # -------------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Raise :class:`SpatialIndexError` on any structural violation.

        Used heavily by the test suite after randomised workloads.
        """
        root = self._store.read(self._root_id)
        if not root.is_leaf and len(root.entries) < 2:
            raise SpatialIndexError("internal root must have >= 2 entries")
        count = self._check_subtree(self._root_id, root.level, is_root=True)
        if count != self._size:
            raise SpatialIndexError(
                f"size mismatch: counted {count}, recorded {self._size}"
            )

    def _check_subtree(self, page_id: int, expected_level: int, is_root: bool) -> int:
        node = self._store.read(page_id)
        if node.level != expected_level:
            raise SpatialIndexError(
                f"node {page_id}: level {node.level}, expected {expected_level}"
            )
        if not is_root and not (
            self.min_entries <= len(node.entries) <= self.max_entries
        ):
            raise SpatialIndexError(
                f"node {page_id}: fanout {len(node.entries)} out of "
                f"[{self.min_entries}, {self.max_entries}]"
            )
        if is_root and len(node.entries) > self.max_entries:
            raise SpatialIndexError(f"root overflow: {len(node.entries)}")
        rects = [e.rect for e in node.entries]
        if not np.array_equal(node.rects(), mbrs.pack(rects)) or (
            rects and node.mbr() != Rect.union_all(rects)
        ):
            raise SpatialIndexError(f"node {page_id}: stale packed MBRs")
        if node.is_leaf:
            return len(node.entries)
        total = 0
        for e in node.entries:
            child = self._store.read(e.child)  # type: ignore[arg-type]
            if e.rect != child.mbr():
                raise SpatialIndexError(
                    f"node {page_id}: stale MBR for child {e.child}"
                )
            total += self._check_subtree(e.child, node.level - 1, False)  # type: ignore[arg-type]
        return total

    # ----------------------------------------------------------------- internal
    def _write_node(self, node: Node) -> None:
        self._store.write(node)
        self.counter.record_write()

    def _insert_entry(
        self, entry: Entry, target_level: int, reinserted_levels: set[int]
    ) -> None:
        path = self._choose_path(entry.rect, target_level)
        node = path[-1]
        node.entries.append(entry)
        self._write_node(node)
        self._handle_overflow_chain(path, reinserted_levels)

    def _choose_path(self, rect: Rect, target_level: int) -> list[Node]:
        """Descend from the root to a node at ``target_level``."""
        node = self._store.read(self._root_id)
        path = [node]
        while node.level > target_level:
            entry = self._choose_subtree(node, rect, target_level)
            node = self._store.read(entry.child)  # type: ignore[arg-type]
            path.append(node)
        return path

    def _choose_subtree(self, node: Node, rect: Rect, target_level: int) -> Entry:
        entries = node.entries
        if node.level == target_level + 1:
            # Descending into the target level: minimum overlap enlargement,
            # restricted to the best candidates by area enlargement.
            candidates = entries
            if len(entries) > _CHOOSE_SUBTREE_CANDIDATES:
                candidates = sorted(entries, key=lambda e: e.rect.enlargement(rect))[
                    :_CHOOSE_SUBTREE_CANDIDATES
                ]
            best = None
            best_key: tuple[float, float, float] | None = None
            for e in candidates:
                enlarged = e.rect.union(rect)
                overlap_delta = 0.0
                for other in entries:
                    if other is e:
                        continue
                    overlap_delta += enlarged.intersection_area(
                        other.rect
                    ) - e.rect.intersection_area(other.rect)
                key = (overlap_delta, e.rect.enlargement(rect), e.rect.area())
                if best_key is None or key < best_key:
                    best_key = key
                    best = e
            assert best is not None
            return best
        best = min(
            entries, key=lambda e: (e.rect.enlargement(rect), e.rect.area())
        )
        return best

    def _handle_overflow_chain(
        self, path: list[Node], reinserted_levels: set[int]
    ) -> None:
        depth = len(path) - 1
        while depth >= 0:
            node = path[depth]
            if len(node.entries) <= self.max_entries:
                self._refresh_parent_mbrs(path, depth)
                return
            is_root = node.page_id == self._root_id
            if not is_root and node.level not in reinserted_levels:
                reinserted_levels.add(node.level)
                removed = self._pick_reinsert_entries(node)
                self._write_node(node)
                self._refresh_parent_mbrs(path, depth)
                for e in removed:
                    self._insert_entry(e, node.level, reinserted_levels)
                return
            sibling = self._split_node(node)
            if is_root:
                self._grow_root(node, sibling)
                return
            parent = path[depth - 1]
            for pe in parent.entries:
                if pe.child == node.page_id:
                    pe.rect = node.mbr()
                    break
            parent.entries.append(Entry(sibling.mbr(), child=sibling.page_id))
            self._write_node(parent)
            depth -= 1

    def _refresh_parent_mbrs(self, path: list[Node], from_depth: int) -> None:
        """Tighten parent entry MBRs from ``from_depth`` up to the root."""
        for depth in range(from_depth, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            for pe in parent.entries:
                if pe.child == node.page_id:
                    new_mbr = node.mbr()
                    if pe.rect != new_mbr:
                        pe.rect = new_mbr
                        self._write_node(parent)
                    break

    def _pick_reinsert_entries(self, node: Node) -> list[Entry]:
        """Remove the farthest-from-center entries (forced reinsert)."""
        center = node.mbr().center()
        ranked = sorted(
            node.entries,
            key=lambda e: e.rect.center().distance_sq(center),
            reverse=True,
        )
        removed = ranked[: self._reinsert_count]
        keep = ranked[self._reinsert_count :]
        node.entries = keep
        # "Close reinsert": put back the closest of the removed ones first.
        removed.reverse()
        return removed

    def _split_node(self, node: Node) -> Node:
        """R* topological split; returns the freshly written sibling."""
        group_a, group_b = _rstar_split(
            node.entries, self.min_entries
        )
        node.entries = group_a
        self._write_node(node)
        sibling = Node(self._store.allocate(), node.level, group_b)
        self._write_node(sibling)
        return sibling

    def _grow_root(self, old_root: Node, sibling: Node) -> None:
        new_root = Node(self._store.allocate(), old_root.level + 1)
        new_root.entries = [
            Entry(old_root.mbr(), child=old_root.page_id),
            Entry(sibling.mbr(), child=sibling.page_id),
        ]
        self._store.write(new_root)
        self.counter.record_write()
        self._root_id = new_root.page_id

    # ---------------------------------------------------------------- deletion
    def _find_leaf(
        self, page_id: int, data: Any, rect: Rect, path: list[Node]
    ) -> list[Node] | None:
        node = self._store.read(page_id)
        path.append(node)
        if node.is_leaf:
            for e in node.entries:
                if e.data == data:
                    return path
        else:
            for e in node.entries:
                if e.rect.intersects(rect):
                    found = self._find_leaf(e.child, data, rect, path)  # type: ignore[arg-type]
                    if found is not None:
                        return found
        path.pop()
        return None

    def _condense(self, path: list[Node]) -> None:
        orphans: list[tuple[Entry, int]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if len(node.entries) < self.min_entries:
                parent.entries = [
                    e for e in parent.entries if e.child != node.page_id
                ]
                self._write_node(parent)
                orphans.extend((e, node.level) for e in node.entries)
                self.buffer.invalidate(node.page_id)
                self._store.free(node.page_id)
            else:
                for pe in parent.entries:
                    if pe.child == node.page_id:
                        pe.rect = node.mbr()
                        break
                self._write_node(parent)
        for entry, level in orphans:
            if entry.is_leaf_entry:
                self._insert_entry(entry, 0, set())
            else:
                self._insert_entry(entry, level, set())
        self._shrink_root()

    def _shrink_root(self) -> None:
        root = self._store.read(self._root_id)
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0].child
            self.buffer.invalidate(root.page_id)
            self._store.free(root.page_id)
            self._root_id = child_id  # type: ignore[assignment]
            root = self._store.read(self._root_id)


def _rstar_split(entries: list[Entry], m: int) -> tuple[list[Entry], list[Entry]]:
    """The R* split: choose axis by margin sum, distribution by overlap."""
    n = len(entries)
    best_axis_sorts: list[list[Entry]] | None = None
    best_margin = float("inf")
    for axis in ("x", "y"):
        if axis == "x":
            by_lower = sorted(entries, key=lambda e: (e.rect.minx, e.rect.maxx))
            by_upper = sorted(entries, key=lambda e: (e.rect.maxx, e.rect.minx))
        else:
            by_lower = sorted(entries, key=lambda e: (e.rect.miny, e.rect.maxy))
            by_upper = sorted(entries, key=lambda e: (e.rect.maxy, e.rect.miny))
        margin_sum = 0.0
        for ordering in (by_lower, by_upper):
            prefixes, suffixes = _prefix_suffix_mbrs(ordering)
            for k in range(m, n - m + 1):
                margin_sum += prefixes[k - 1].margin() + suffixes[k].margin()
        if margin_sum < best_margin:
            best_margin = margin_sum
            best_axis_sorts = [by_lower, by_upper]
    assert best_axis_sorts is not None
    best_split: tuple[list[Entry], list[Entry]] | None = None
    best_key: tuple[float, float] | None = None
    for ordering in best_axis_sorts:
        prefixes, suffixes = _prefix_suffix_mbrs(ordering)
        for k in range(m, n - m + 1):
            mbr_a = prefixes[k - 1]
            mbr_b = suffixes[k]
            key = (mbr_a.intersection_area(mbr_b), mbr_a.area() + mbr_b.area())
            if best_key is None or key < best_key:
                best_key = key
                best_split = (ordering[:k], ordering[k:])
    assert best_split is not None
    return best_split


def _prefix_suffix_mbrs(ordering: list[Entry]) -> tuple[list[Rect], list[Rect]]:
    """Prefix MBRs (index i covers entries [0..i]) and suffix MBRs
    (index i covers entries [i..n-1])."""
    n = len(ordering)
    prefixes: list[Rect] = [ordering[0].rect]
    for i in range(1, n):
        prefixes.append(prefixes[-1].union(ordering[i].rect))
    suffixes: list[Rect] = [None] * n  # type: ignore[list-item]
    suffixes[n - 1] = ordering[n - 1].rect
    for i in range(n - 2, -1, -1):
        suffixes[i] = suffixes[i + 1].union(ordering[i].rect)
    return prefixes, suffixes
