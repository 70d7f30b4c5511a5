"""The array-evaluated traversals against the scalar oracle.

Every R-tree traversal evaluates a node in one numpy pass over its
packed MBRs, and the best-first queue holds one entry per expanded
node.  ``tests/euclidean/reference.py`` keeps the per-entry loops and
the eager queue; here both sides run on the *same* trees and must
return the same values in the same order and issue the same
``read_node`` page-id sequence — on random coordinates and on
grid-aligned ones (shared coordinates, zero distances, many ties),
for points and rectangles, across node capacities, for bulk-loaded
and insert-built trees.  The closest-pair stream, which reads a node
shared by one batch once, also runs against the traversal that reads
it once per combination: the same pairs in the same order, from a
subsequence of its page fetches.
"""

from __future__ import annotations

import heapq
import math
import random
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.euclidean import (
    IncrementalClosestPairs,
    IncrementalNearestNeighbors,
    distance_join,
    join,
)
from repro.geometry import Circle, Point, Rect
from repro.index import RStarTree, mbrs, str_pack
from repro.euclidean import closest
from repro.runtime import skeletons

from tests.euclidean import reference

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Tenths: shared coordinates whose sums and differences round.
_GRID = st.integers(0, 60).map(lambda i: i / 10.0)
_FREE = st.floats(0.0, 100.0, allow_nan=False)
#: Join distances that land on, just under and just over grid spacings.
_GRID_E = st.sampled_from(
    [0.0, 0.3, 0.1 + 0.2, 0.7, 1.0, 1.5, math.sqrt(2.0), 2.0]
)


@st.composite
def rect_sets(draw: st.DrawFn, coord, max_size: int = 50) -> list[Rect]:
    """Points (zero-extent rects) or rectangles over ``coord``."""
    if draw(st.booleans()):
        raw = draw(st.lists(st.tuples(coord, coord), max_size=max_size))
        return [Rect(x, y, x, y) for x, y in raw]
    extent = coord.map(lambda c: c / 2.0)
    raw = draw(
        st.lists(st.tuples(coord, coord, extent, extent), max_size=max_size)
    )
    return [Rect(x, y, x + w, y + h) for x, y, w, h in raw]


@st.composite
def scenes(draw: st.DrawFn):
    """``(tree_s, tree_t, log, e)``: two recorded trees over the same
    kind of coordinates and a join distance that suits them."""
    grid = draw(st.booleans())
    coord = _GRID if grid else _FREE
    max_entries = draw(st.sampled_from([4, 8, 204]))
    log: list[tuple[str, int]] = []
    trees = [
        _tree(draw(rect_sets(coord)), max_entries, draw(st.booleans()), name, log)
        for name in ("S", "T")
    ]
    e = draw(_GRID_E if grid else st.floats(0.0, 40.0, allow_nan=False))
    return trees[0], trees[1], log, e


def _tree(
    rects: list[Rect],
    max_entries: int,
    bulk: bool,
    name: str,
    log: list[tuple[str, int]],
) -> RStarTree:
    """A tree whose payloads are the rects' indices and whose page
    fetches are appended to ``log``."""
    tree = RStarTree(max_entries=max_entries, name=name)
    if bulk:
        str_pack(tree, list(enumerate(rects)))
    else:
        for i, r in enumerate(rects):
            tree.insert(i, r)
    tree.check_invariants()
    fetch = tree.read_node

    def recorded(page_id: int):
        log.append((name, page_id))
        return fetch(page_id)

    tree.read_node = recorded  # type: ignore[method-assign]
    return tree


def _run(log: list, fn):
    """``fn()``'s result and the page fetches it made."""
    del log[:]
    out = fn()
    return out, list(log)


def _assert_same(log: list, production, oracle) -> None:
    got = _run(log, production)
    want = _run(log, oracle)
    assert got == want


@st.composite
def join_scenes(draw: st.DrawFn):
    """As :func:`scenes`, but each tree draws its own capacity and up to
    120 entries: S trees of several leaves, trees of unequal height."""
    grid = draw(st.booleans())
    coord = _GRID if grid else _FREE
    log: list[tuple[str, int]] = []
    trees = [
        _tree(
            draw(rect_sets(coord, max_size=120)),
            draw(st.sampled_from([4, 8, 204])),
            draw(st.booleans()),
            name,
            log,
        )
        for name in ("S", "T")
    ]
    e = draw(_GRID_E if grid else st.floats(0.0, 40.0, allow_nan=False))
    return trees[0], trees[1], log, e


@SETTINGS
@given(join_scenes(), st.sampled_from([None, 1, 3, 40]))
def test_distance_join(scene, budget):
    """Every leaf pair decided in one pass — under the default cell
    budget and under a few cells, which splits the pass into blocks."""
    tree_s, tree_t, log, e = scene
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(join, "_PASS_CELLS", budget)
        _assert_same(
            log,
            lambda: distance_join(tree_s, tree_t, e),
            lambda: reference.distance_join(tree_s, tree_t, e),
        )


def test_join_blocks_split_and_agree(monkeypatch):
    """Several leaves on both sides of unequal height, on a grid of
    shared coordinates: a few-cell budget runs many blocks and returns
    the same list, read through the same pages."""
    log: list[tuple[str, int]] = []
    grid = [Rect(i / 10, j / 10, i / 10, j / 10) for i in range(12) for j in range(9)]
    tree_s = _tree(grid[::2], 4, True, "S", log)
    tree_t = _tree(grid[1::3], 8, False, "T", log)
    assert tree_s.height > tree_t.height > 1
    want = _run(log, lambda: reference.distance_join(tree_s, tree_t, 0.1))
    assert len(want[0]) > 50
    runs: list[tuple[int, int]] = []
    blocks = mbrs.blocks

    def spied(width, budget):
        for run in blocks(width, budget):
            runs.append(run)
            yield run

    monkeypatch.setattr(mbrs, "blocks", spied)
    for budget, split in ((join._PASS_CELLS, False), (5, True)):
        monkeypatch.setattr(join, "_PASS_CELLS", budget)
        del runs[:]
        assert _run(log, lambda: distance_join(tree_s, tree_t, 0.1)) == want
        assert (len(runs) > 1) == split


def test_join_reports_what_its_distance_admits():
    """A pair is reported iff its MINDIST is <= e, wherever ``minx + e``
    rounds: ``2.1 - 0.6 <= 1.5`` although ``0.6 < 2.1 - 1.5`` in
    float64, and ``5e-324 ** 2`` underflows to a distance of 0."""
    for s, t, e in ((2.1, 0.6, 1.5), (0.0, 5e-324, 0.0)):
        log: list[tuple[str, int]] = []
        tree_s = _tree([Rect(s, 0.0, s, 0.0)], 4, True, "S", log)
        tree_t = _tree([Rect(t, 0.0, t, 0.0)], 4, True, "T", log)
        d = Rect(s, 0, s, 0).mindist_rect(Rect(t, 0, t, 0))
        assert d <= e
        assert reference.distance_join(tree_s, tree_t, e) == [(0, 0, d)]
        assert distance_join(tree_s, tree_t, e) == [(0, 0, d)]


@SETTINGS
@given(
    st.floats(0.0, allow_nan=False) | st.sampled_from([0.0, 5e-324, 1e-160, 1.5]),
    st.floats(0.0, allow_nan=False, allow_infinity=False),
)
def test_oracle_window_cut(e, gap):
    """The oracle's sweep skips exactly the gaps whose ``sqrt(dx * dx)``
    exceeds ``e``."""
    cut = reference._least_gap_beyond(e)
    assert (gap >= cut) == (math.sqrt(gap * gap) > e)


@SETTINGS
@given(scenes(), st.integers(0, 400))
def test_closest_pairs_prefix(scene, n):
    tree_s, tree_t, log, __ = scene
    _assert_same(
        log,
        lambda: list(islice(IncrementalClosestPairs(tree_s, tree_t), n)),
        lambda: list(islice(reference.closest_pairs(tree_s, tree_t), n)),
    )


#: The ``closest-pairs`` profile (``tests/conftest.py``) at the default
#: example count, or at the profile's own 1,000 when it is loaded
#: (``--hypothesis-profile closest-pairs``).
CLOSEST_PAIRS = settings(
    settings.get_profile("closest-pairs"),
    max_examples=settings.default.max_examples,
)


def _is_subsequence(short: list, long: list) -> bool:
    rest = iter(long)
    return all(item in rest for item in short)


@CLOSEST_PAIRS
@given(scenes() | join_scenes(), st.integers(0, 400))
def test_closest_pairs_equal_the_one_side_traversal(scene, n):
    """Opening a shared node once for its batch changes no pair and no
    order — grid ties included — and only drops page fetches: the
    production's fetches are the one-side traversal's, some left out."""
    tree_s, tree_t, log, __ = scene
    got, pages = _run(
        log, lambda: list(islice(IncrementalClosestPairs(tree_s, tree_t), n))
    )
    want, one_side_pages = _run(
        log,
        lambda: list(islice(reference.closest_pairs_one_side(tree_s, tree_t), n)),
    )
    assert got == want
    assert _is_subsequence(pages, one_side_pages)


@SETTINGS
@given(scenes(), st.integers(0, 60), st.tuples(_GRID | _FREE, _GRID | _FREE))
def test_nearest_neighbors_prefix(scene, n, q_raw):
    tree, __, log, __ = scene
    q = Point(*q_raw)
    _assert_same(
        log,
        lambda: list(islice(IncrementalNearestNeighbors(tree, q), n)),
        lambda: list(islice(reference.nearest_neighbors(tree, q), n)),
    )


@SETTINGS
@given(scenes(), rect_sets(_GRID | _FREE, max_size=3))
def test_search_rect_and_circle(scene, windows):
    tree, __, log, radius = scene
    for window in windows:
        _assert_same(
            log,
            lambda: [en.data for en in tree.search_rect(window)],
            lambda: [en.data for en in reference.search_rect(tree, window)],
        )
        circle = Circle(window.center(), radius)
        _assert_same(
            log,
            lambda: [en.data for en in tree.search_circle(circle)],
            lambda: [en.data for en in reference.search_circle(tree, circle)],
        )


def _random_rects(seed: int, n: int, extent: float) -> list[Rect]:
    rng = random.Random(seed)
    out = []
    for __ in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        out.append(Rect(x, y, x + rng.uniform(0, extent), y + rng.uniform(0, extent)))
    return out


def test_paper_capacity_multi_level():
    """204-entry nodes with internal levels on both sides: the node x
    node matrix and the node x leaf cases of the join, and closest
    pairs that open internal nodes of either tree."""
    log: list[tuple[str, int]] = []
    tree_s = _tree(_random_rects(1, 700, 0.0), 204, True, "S", log)
    tree_t = _tree(_random_rects(2, 40000, 3.0), 204, True, "T", log)
    assert tree_s.height == 2 and tree_t.height == 3
    for a, b in ((tree_s, tree_t), (tree_t, tree_s)):
        _assert_same(
            log,
            lambda: distance_join(a, b, 4.0),
            lambda: reference.distance_join(a, b, 4.0),
        )
        _assert_same(
            log,
            lambda: list(islice(IncrementalClosestPairs(a, b), 300)),
            lambda: list(islice(reference.closest_pairs(a, b), 300)),
        )
    q = Point(500.0, 500.0)
    _assert_same(
        log,
        lambda: list(islice(IncrementalNearestNeighbors(tree_t, q), 500)),
        lambda: list(islice(reference.nearest_neighbors(tree_t, q), 500)),
    )


def test_queue_holds_one_entry_per_expansion(monkeypatch):
    """The closest-pair queue never grows past seeds + batches (eager
    pushing would hold one entry per *entry* of every opened node —
    thousands here).  A grouped open's rows are batches of their own,
    made from one page read: the S leaf is read once for the T leaves
    that open it, so batches outnumber page reads."""
    log: list[tuple[str, int]] = []
    tree_s = _tree(_random_rects(3, 131, 0.0), 204, True, "S", log)
    tree_t = _tree(_random_rects(4, 5000, 0.0), 204, True, "T", log)
    lengths: list[int] = []
    batches: list[int] = []

    def watched(heap, item):
        heapq.heappush(heap, item)
        lengths.append(len(heap))

    def counted(*args):
        batches.append(1)
        return expand(*args)

    expand = closest._expand
    monkeypatch.setattr(closest, "_expand", counted)
    monkeypatch.setattr(
        skeletons,
        "heapq",
        SimpleNamespace(heappush=watched, heappop=heapq.heappop),
    )
    del log[:]
    stream = IncrementalClosestPairs(tree_s, tree_t)
    seeds = 1
    root_reads = len(log)
    for __ in islice(stream, 2000):
        assert max(lengths) <= seeds + len(batches)
    reads = len(log) - root_reads
    assert reads > 10
    assert tree_s.height == 1
    assert log.count(("S", tree_s.root_id)) == 2  # the seed's and one open
    assert len(batches) > reads + 10


def test_grouped_open_misses_no_more_pages_than_the_one_side_traversal(monkeypatch):
    """The smoke benchmark's OCP (k = 4) scene, cold 10 % LRU buffers:
    reading a shared node once must not cost entity-page misses the
    one-side traversal avoids.  With a buffer of a few pages the order
    of the reads is the miss count."""
    from benchmarks.common import bench_db, run_ocp
    from repro.core import closest as ocp

    db, __ = bench_db(200, (("P1", 200), ("T", 40)), 2)
    got = run_ocp(db, "P1", "T", 4)

    class OneSide:
        def __init__(self, tree_s, tree_t):
            self._pairs = reference.closest_pairs_one_side(tree_s, tree_t)

        def __iter__(self):
            return self._pairs

    monkeypatch.setattr(ocp, "IncrementalClosestPairs", OneSide)
    want = run_ocp(db, "P1", "T", 4)
    assert got["result_size"] == want["result_size"] == 4
    assert 0 < got["entity_pa"] <= want["entity_pa"]
