"""A node's packed MBR array is derived state that cannot go stale
silently: every mutation path drops it through ``PageStore.write``,
``check_invariants`` compares it with the entries, and it is not part
of a node's pickled or serialized form."""

import pickle
import random

import numpy as np
import pytest

from repro.errors import SpatialIndexError
from repro.geometry import Point, Rect
from repro.index import Entry, Node, RStarTree, pageio, str_pack
from repro.index.mbrs import pack
from repro.persist.codec import BinaryReader, BinaryWriter

EVERYTHING = Rect(-1.0, -1.0, 1001.0, 1001.0)


def _warm(tree: RStarTree) -> int:
    """Build the array of every node (a full-window search reads them
    all); returns the number of entries found."""
    return len(tree.search_rect(EVERYTHING))


def _cached(tree: RStarTree) -> int:
    return sum(node._rects is not None for node in tree.pages())


def test_rects_mirror_entries():
    node = Node(0, 0, [Entry(Rect(0, 0, 1, 1), data="a"),
                       Entry(Rect(5, 5, 6, 8), data="b")])
    assert node.rects().tolist() == [[0, 0, 1, 1], [5, 5, 6, 8]]
    assert node.rects() is node.rects()
    assert node.rects().dtype == np.float64
    assert Node(1, 0).rects().shape == (0, 4)


@pytest.mark.parametrize("max_entries", [4, 8])
def test_arrays_follow_interleaved_mutations(monkeypatch, max_entries):
    """Inserts that force reinserts and splits, deletes that condense
    and shrink the root — with every node's array rebuilt by a search
    between any two of them, so an array that survived a mutation of
    its entries would be caught by ``check_invariants``."""
    tree = RStarTree(max_entries=max_entries)
    calls = {"_pick_reinsert_entries": 0, "_split_node": 0, "_condense": 0}
    for name in calls:
        original = getattr(tree, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(tree, name, counted)
    rng = random.Random(max_entries)
    live: list[Point] = []
    for step in range(500):
        if live and rng.random() < (0.3 if step < 300 else 0.8):
            p = live.pop(rng.randrange(len(live)))
            assert tree.delete(p, Rect.from_point(p))
        else:
            p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            tree.insert(p, Rect.from_point(p))
            live.append(p)
        tree.check_invariants()
        assert _warm(tree) == len(live)
        assert _cached(tree) == tree.page_count
        tree.check_invariants()
    assert min(calls.values()) > 10


def test_bulk_load_leaves_consistent_arrays():
    """A bulk-loaded tree is born packed: every page holds its array
    before any read, and the arrays match the entries."""
    pts = [Point(float(i % 37), float(i % 91)) for i in range(1000)]
    tree = str_pack(
        RStarTree(max_entries=8), [(p, Rect.from_point(p)) for p in pts]
    )
    assert tree.height > 2
    assert _cached(tree) == tree.page_count
    tree.check_invariants()
    assert _warm(tree) == 1000
    tree.check_invariants()


def test_check_invariants_reports_a_stale_array():
    tree = RStarTree(max_entries=4)
    for i in range(3):
        tree.insert(i, Rect(i, i, i + 1, i + 1))
    _warm(tree)
    root = next(tree.pages())
    root.entries[0].rect = Rect(0, 0, 0.5, 0.5)  # no page write
    with pytest.raises(SpatialIndexError, match="stale packed MBRs"):
        tree.check_invariants()
    root.drop_cached()
    tree.check_invariants()


def _tree(n: int = 200) -> RStarTree:
    rng = random.Random(7)
    tree = RStarTree(max_entries=8)
    for __ in range(n):
        p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
        tree.insert(p, Rect.from_point(p))
    return tree


def test_arrays_are_not_pickled():
    """What a fork worker or the persistent pool receives carries no
    arrays; they are rebuilt on first read."""
    tree = _tree()
    _warm(tree)
    assert _cached(tree) == tree.page_count
    blob = pickle.dumps(tree)
    assert b"numpy" not in blob
    clone = pickle.loads(blob)
    assert _cached(clone) == 0
    window = Rect(100, 100, 600, 600)
    assert [e.data for e in clone.search_rect(window)] == [
        e.data for e in tree.search_rect(window)
    ]
    assert _cached(clone) > 0
    clone.check_invariants()


def test_arrays_are_not_serialized():
    """``pageio`` writes the same bytes for a warm and a cold tree, and
    a restored tree starts without arrays."""

    def write_point(w, p):
        w.f64(p.x)
        w.f64(p.y)

    def dump(tree):
        w = BinaryWriter()
        pageio.write_tree(w, tree, write_point)
        return w.getvalue()

    tree = _tree()
    tree.reset_stats(clear_buffer=True)
    cold = dump(tree)
    _warm(tree)
    tree.reset_stats(clear_buffer=True)
    warm = dump(tree)
    assert warm == cold
    restored = pageio.read_tree(
        BinaryReader(warm, path="<memory>"),
        lambda r: Point(r.f64(), r.f64()),
    )
    assert _cached(restored) == 0
    for live, back in zip(tree.pages(), restored.pages()):
        assert np.array_equal(back.rects(), pack(e.rect for e in live.entries))
    restored.check_invariants()
