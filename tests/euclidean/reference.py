"""Scalar reference traversals — the oracle for the array-evaluated ones.

These are the per-entry loops ``src/`` used before nodes were
evaluated as packed MBR arrays: one ``Rect`` method call per entry, and
a best-first queue that pushes every item of an expansion eagerly.  The
production traversals must return the same values in the same order
and fetch the same pages in the same order (``read_node`` is the only
page fetch on both sides), so every function here goes through
``tree.read_node`` exactly as the production code does.
:func:`closest_pairs` reads a node shared by one batch's combinations
once, as production does; :func:`closest_pairs_one_side` reads it once
per combination that opens it, and yields the same pairs in the same
order.
"""

from __future__ import annotations

import heapq
import math
import struct
from itertools import count
from typing import Any, Callable, Iterable, Iterator

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.node import Entry
from repro.index.rstar import RStarTree

#: One prioritised item: ``(key, is_final, payload)``.
Item = tuple[float, bool, Any]


def best_first(
    seeds: Iterable[Item],
    expand: Callable[[Any], Iterable[Item]],
) -> Iterator[tuple[Any, float]]:
    """Eager best-first: every expanded item goes on the heap at once,
    ties popping in production order."""
    tiebreak = count()
    heap: list[tuple[float, int, bool, Any]] = []
    for key, is_final, payload in seeds:
        heapq.heappush(heap, (key, next(tiebreak), is_final, payload))
    while heap:
        key, __, is_final, payload = heapq.heappop(heap)
        if is_final:
            yield payload, key
        else:
            for k, f, p in expand(payload):
                heapq.heappush(heap, (k, next(tiebreak), f, p))


def iter_matching(
    tree: RStarTree, predicate: Callable[[Rect], bool]
) -> Iterator[Entry]:
    """Depth-first filter with a per-entry predicate."""
    if len(tree) == 0:
        return
    stack = [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        for e in node.entries:
            if predicate(e.rect):
                if node.is_leaf:
                    yield e
                else:
                    stack.append(e.child)


def search_rect(tree: RStarTree, rect: Rect) -> list[Entry]:
    return list(iter_matching(tree, rect.intersects))


def search_circle(tree: RStarTree, circle: Circle) -> list[Entry]:
    return list(iter_matching(tree, circle.intersects_rect))


def _union(entries: list[Entry]) -> Rect:
    return Rect.union_all(e.rect for e in entries)


def distance_join(
    tree_s: RStarTree, tree_t: RStarTree, e: float
) -> list[tuple[Any, Any, float]]:
    """Synchronous traversal with a scalar MINDIST per entry pair and
    the x plane sweep on leaf pairs."""
    result: list[tuple[Any, Any, float]] = []
    if len(tree_s) == 0 or len(tree_t) == 0:
        return result
    cut = _least_gap_beyond(e)
    stack = [(tree_s.root_id, tree_t.root_id)]
    while stack:
        sid, tid = stack.pop()
        node_s = tree_s.read_node(sid)
        node_t = tree_t.read_node(tid)
        if node_s.is_leaf and node_t.is_leaf:
            result.extend(_sweep_leaf_pair(node_s.entries, node_t.entries, e, cut))
        elif node_s.is_leaf:
            mbr_s = _union(node_s.entries)
            for et in node_t.entries:
                if et.rect.mindist_rect(mbr_s) <= e:
                    stack.append((sid, et.child))
        elif node_t.is_leaf:
            mbr_t = _union(node_t.entries)
            for es in node_s.entries:
                if es.rect.mindist_rect(mbr_t) <= e:
                    stack.append((es.child, tid))
        else:
            for es in node_s.entries:
                for et in node_t.entries:
                    if es.rect.mindist_rect(et.rect) <= e:
                        stack.append((es.child, et.child))
    return result


def _sweep_leaf_pair(
    entries_s: list[Entry], entries_t: list[Entry], e: float, cut: float
) -> Iterator[tuple[Any, Any, float]]:
    """Plane sweep over two leaves: sort by minx, scan each S entry's
    window.  A pair is reported iff its MINDIST is <= ``e``; the window
    skips a pair only where its x gap alone, ``sqrt(dx * dx)``, exceeds
    ``e`` (the distance never undercuts it, while ``maxx + e`` rounds
    apart from it, and ``dx * dx`` may underflow to 0): where it is at
    least ``cut``, :func:`_least_gap_beyond` of ``e``."""
    left = sorted(entries_s, key=lambda en: en.rect.minx)
    right = [
        (et.rect.minx, et.rect.maxx, et)
        for et in sorted(entries_t, key=lambda en: en.rect.minx)
    ]
    for es in left:
        minx, maxx = es.rect.minx, es.rect.maxx
        for t_minx, t_maxx, et in right:
            if t_minx - maxx >= cut:
                break
            if minx - t_maxx >= cut:
                continue
            d = es.rect.mindist_rect(et.rect)
            if d <= e:
                yield es.data, et.data, d


def _least_gap_beyond(e: float) -> float:
    """The least float ``g`` with ``sqrt(g * g) > e`` (``inf`` if none).

    ``sqrt(g * g)`` never falls as ``g`` grows (every step rounds
    monotonically), so a gap is beyond ``e`` iff it is ``>=`` this.
    Bisects the bit patterns of the non-negative floats, which are
    ordered as their values."""
    lo, hi = 0, _INF_BITS
    while lo < hi:
        mid = (lo + hi) // 2
        g = _float(mid)
        if math.sqrt(g * g) > e:
            hi = mid
        else:
            lo = mid + 1
    return _float(lo)


_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def nearest_neighbors(tree: RStarTree, q: Point) -> Iterator[tuple[Any, float]]:
    """``(data, distance)`` in ascending distance, one item per entry."""

    def expand(page_id: int) -> Iterator[Item]:
        node = tree.read_node(page_id)
        for entry in node.entries:
            dist = entry.rect.mindist_point(q)
            if node.is_leaf:
                yield dist, True, entry.data
            else:
                yield dist, False, entry.child

    seeds = [(0.0, False, tree.root_id)] if len(tree) > 0 else []
    return best_first(seeds, expand)


#: The level of a data entry; a node's is its tree level (0 for a leaf).
_DATA = -1


def _pair_item(s_level, s_pay, s_rect, t_level, t_pay, t_rect, *origin) -> Item:
    dist = s_rect.mindist_rect(t_rect)
    final = s_level == _DATA and t_level == _DATA
    return dist, final, (s_level, s_pay, s_rect, t_level, t_pay, t_rect, *origin)


def _pair_seeds(tree_s: RStarTree, tree_t: RStarTree, *origin) -> list[Item]:
    if len(tree_s) == 0 or len(tree_t) == 0:
        return []
    root_s = tree_s.read_node(tree_s.root_id)
    root_t = tree_t.read_node(tree_t.root_id)
    s_side = (root_s.level, root_s.page_id, _union(root_s.entries))
    t_side = (root_t.level, root_t.page_id, _union(root_t.entries))
    return [_pair_item(*s_side, *t_side, *origin)]


def _opens_s(s_level: int, s_rect: Rect, t_level: int, t_rect: Rect) -> bool:
    """The [CMTV00] heuristic: open the larger node of a node/node
    pair, otherwise whichever side still is a node."""
    return s_level != _DATA and (t_level == _DATA or s_rect.area() >= t_rect.area())


def _side(node, e: Entry) -> tuple:
    """``(level, payload, rect)`` of an entry of ``node``."""
    return (_DATA, e.data, e.rect) if node.is_leaf else (node.level - 1, e.child, e.rect)


def _opened(node, opened_s: bool, shared: tuple, *origin) -> Iterator[Item]:
    """The combinations of ``node``'s entries (on side S when
    ``opened_s``) with the ``shared`` side."""
    for e in node.entries:
        if opened_s:
            yield _pair_item(*_side(node, e), *shared, *origin)
        else:
            yield _pair_item(*shared, *_side(node, e), *origin)


def closest_pairs_one_side(
    tree_s: RStarTree, tree_t: RStarTree
) -> Iterator[tuple[Any, Any, float]]:
    """``(s, t, distance)`` in ascending distance, one six-field item
    per entry of every opened node: each popped combination opens one
    side, a node shared by many combinations once per combination."""

    def expand(combo) -> Iterator[Item]:
        if _opens_s(combo[0], combo[2], combo[3], combo[5]):
            return _opened(tree_s.read_node(combo[1]), True, combo[3:6])
        return _opened(tree_t.read_node(combo[4]), False, combo[0:3])

    seeds = _pair_seeds(tree_s, tree_t)
    return ((c[1], c[4], dist) for c, dist in best_first(seeds, expand))


class _Batch:
    """What one open produced: ``node``'s entries (on side S when
    ``opened_s``), each against the same ``shared`` side."""

    def __init__(self, node, opened_s: bool, shared: tuple) -> None:
        self.node, self.opened_s, self.shared = node, opened_s, shared
        self.inner = None  # the shared node, once one of them opened it

    def items(self) -> Iterator[Item]:
        return _opened(self.node, self.opened_s, self.shared, self)

    def shares(self) -> bool:
        """Whether the shared side is opened once for the batch: where
        it is a node, and not both sides' entries would be data."""
        level = self.shared[0]
        return level > 0 or (level == 0 and not self.node.is_leaf)


def closest_pairs(
    tree_s: RStarTree, tree_t: RStarTree
) -> Iterator[tuple[Any, Any, float]]:
    """As :func:`closest_pairs_one_side`, but a node shared by the
    combinations of one batch is read once for all of them: the first
    that opens it reads it, and each that opens it, when it pops,
    produces its items from that read.  Not where both sides' entries
    would be data: there each combination reads the leaf."""

    def expand(combo) -> Iterator[Item]:
        *sides, batch = combo
        open_s = _opens_s(sides[0], sides[2], sides[3], sides[5])
        if batch is None or open_s == batch.opened_s or not batch.shares():
            if open_s:
                node = tree_s.read_node(sides[1])
                return _Batch(node, True, tuple(sides[3:6])).items()
            node = tree_t.read_node(sides[4])
            return _Batch(node, False, tuple(sides[0:3])).items()
        if batch.inner is None:
            batch.inner = (tree_s if open_s else tree_t).read_node(batch.shared[1])
        side = tuple(sides[0:3] if batch.opened_s else sides[3:6])
        return _Batch(batch.inner, not batch.opened_s, side).items()

    seeds = _pair_seeds(tree_s, tree_t, None)
    return ((c[1], c[4], dist) for c, dist in best_first(seeds, expand))
