"""Scalar reference traversals — the oracle for the array-evaluated ones.

These are the per-entry loops ``src/`` used before nodes were
evaluated as packed MBR arrays: one ``Rect`` method call per entry, and
a best-first queue that pushes every item of an expansion eagerly.  The
production traversals must return the same values in the same order
and fetch the same pages in the same order (``read_node`` is the only
page fetch on both sides), so every function here goes through
``tree.read_node`` exactly as the production code does.
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


_NODE = 0
_DATA = 1


def closest_pairs(
    tree_s: RStarTree, tree_t: RStarTree
) -> Iterator[tuple[Any, Any, float]]:
    """``(s, t, distance)`` in ascending distance, one six-field item
    per entry of every opened node."""

    def item(s_kind, s_pay, s_rect, t_kind, t_pay, t_rect) -> Item:
        dist = s_rect.mindist_rect(t_rect)
        final = s_kind == _DATA and t_kind == _DATA
        return dist, final, (s_kind, s_pay, s_rect, t_kind, t_pay, t_rect)

    def expand(combo) -> Iterator[Item]:
        s_kind, s_pay, s_rect, t_kind, t_pay, t_rect = combo
        if s_kind == _NODE and (
            t_kind == _DATA or s_rect.area() >= t_rect.area()
        ):
            node = tree_s.read_node(s_pay)
            for e in node.entries:
                kind = _DATA if node.is_leaf else _NODE
                payload = e.data if node.is_leaf else e.child
                yield item(kind, payload, e.rect, t_kind, t_pay, t_rect)
        else:
            node = tree_t.read_node(t_pay)
            for e in node.entries:
                kind = _DATA if node.is_leaf else _NODE
                payload = e.data if node.is_leaf else e.child
                yield item(s_kind, s_pay, s_rect, kind, payload, e.rect)

    seeds = []
    if len(tree_s) > 0 and len(tree_t) > 0:
        s_rect = _union(tree_s.read_node(tree_s.root_id).entries)
        t_rect = _union(tree_t.read_node(tree_t.root_id).entries)
        seeds.append(
            item(_NODE, tree_s.root_id, s_rect, _NODE, tree_t.root_id, t_rect)
        )
    return ((c[1], c[4], dist) for c, dist in best_first(seeds, expand))
