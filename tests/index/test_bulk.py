"""Tests for STR bulk loading."""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SpatialIndexError
from repro.geometry import Point, Rect
from repro.index import RStarTree, str_pack

from tests.index import str_reference


def _items(seed: int, n: int):
    rng = random.Random(seed)
    pts = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for __ in range(n)]
    return [(p, Rect.from_point(p)) for p in pts]


class TestStrPack:
    def test_empty_ok(self):
        tree = RStarTree(max_entries=8)
        str_pack(tree, [])
        assert len(tree) == 0

    def test_single_item(self):
        tree = RStarTree(max_entries=8)
        str_pack(tree, _items(0, 1))
        assert len(tree) == 1
        assert tree.height == 1

    def test_requires_empty_tree(self):
        tree = RStarTree(max_entries=8)
        tree.insert(Point(1, 1), Rect.from_point(Point(1, 1)))
        with pytest.raises(SpatialIndexError):
            str_pack(tree, _items(0, 10))

    def test_fill_factor_validation(self):
        tree = RStarTree(max_entries=8)
        with pytest.raises(SpatialIndexError):
            str_pack(tree, _items(0, 10), fill=0.0)
        with pytest.raises(SpatialIndexError):
            str_pack(tree, _items(0, 10), fill=1.5)

    def test_invariants_hold(self):
        tree = RStarTree(max_entries=8, min_entries=3)
        str_pack(tree, _items(1, 500))
        tree.check_invariants()
        assert len(tree) == 500

    def test_query_equivalence_with_dynamic_tree(self):
        items = _items(2, 400)
        bulk = RStarTree(max_entries=8, min_entries=3)
        str_pack(bulk, items)
        dynamic = RStarTree(max_entries=8, min_entries=3)
        for data, rect in items:
            dynamic.insert(data, rect)
        q = Rect(100, 200, 600, 700)
        got_bulk = sorted(e.data.as_tuple() for e in bulk.search_rect(q))
        got_dyn = sorted(e.data.as_tuple() for e in dynamic.search_rect(q))
        assert got_bulk == got_dyn

    def test_full_fill_packs_tighter_than_low_fill(self):
        items = _items(3, 1000)
        t_full = RStarTree(max_entries=16, min_entries=4)
        str_pack(t_full, items, fill=1.0)
        t_loose = RStarTree(max_entries=16, min_entries=4)
        str_pack(t_loose, items, fill=0.5)
        assert t_full.page_count < t_loose.page_count

    def test_insert_after_bulk_load(self):
        tree = RStarTree(max_entries=8, min_entries=3)
        str_pack(tree, _items(4, 300))
        extra = Point(-50, -50)
        tree.insert(extra, Rect.from_point(extra))
        tree.check_invariants()
        assert len(tree) == 301
        assert any(p == extra for p, __ in tree.items())

    def test_delete_after_bulk_load(self):
        items = _items(5, 300)
        tree = RStarTree(max_entries=8, min_entries=3)
        str_pack(tree, items)
        for data, rect in items[:100]:
            assert tree.delete(data, rect)
        tree.check_invariants()
        assert len(tree) == 200


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 400), st.integers(4, 32), st.sampled_from([0.5, 0.7, 1.0]))
def test_property_bulk_load_sound(n, max_entries, fill):
    items = _items(n * 7 + 1, n)
    tree = RStarTree(max_entries=max_entries, min_entries=2)
    str_pack(tree, items, fill=fill)
    assert len(tree) == n
    if n:
        tree.check_invariants()
        assert sorted(p.as_tuple() for p, __ in tree.items()) == sorted(
            d.as_tuple() for d, __ in items
        )


def _signed_bytes(rect: Rect) -> bytes:
    """The rect's four floats bit for bit (``-0.0`` differs from 0.0)."""
    return struct.pack("4d", rect.minx, rect.miny, rect.maxx, rect.maxy)


def _assert_same_pages(got: RStarTree, want: RStarTree) -> None:
    """Page ids, levels, entry order, rects bit for bit and payload
    identity; root, size and page-id counter alike."""
    assert (got.root_id, got.next_page_id, len(got), list(got._store)) == (
        want.root_id, want.next_page_id, len(want), list(want._store)
    )
    for a, b in zip(got.pages(), want.pages(), strict=True):
        assert (a.page_id, a.level, len(a.entries)) == (b.page_id, b.level, len(b.entries))
        for x, y in zip(a.entries, b.entries):
            assert x.data is y.data and x.child == y.child
            assert _signed_bytes(x.rect) == _signed_bytes(y.rect)


def _scene(kind: str, n: int) -> list[tuple[object, Rect]]:
    """``n`` items with fresh payloads: tied centre sums on a small
    grid, signed zeros, or random rectangles."""
    rng = random.Random(n)
    out = []
    for i in range(n):
        if kind == "grid":
            x, y = float(i % 7), float(i % 5)
            rect = Rect(x, y, x + (i % 3), y + (i % 2))
        elif kind == "zeros":
            x, y = rng.choice([-0.0, 0.0]), rng.choice([-0.0, 0.0, 1.0])
            rect = Rect(x, y, rng.choice([0.0, -0.0, 2.0]), y)
        else:
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            rect = Rect(x, y, x + rng.uniform(0, 5), y + rng.uniform(0, 5))
        out.append((object(), rect))
    return out


@pytest.mark.parametrize("kind", ["grid", "zeros", "random"])
def test_str_pack_equals_the_sorted_reference(monkeypatch, kind):
    """The array sort builds the tree the ``sorted()`` STR built, page
    for page, at fill 0.5 / 0.7 / 1.0, through both ways of fixing an
    under-full last node (merge into the donor, split with it)."""
    fixes: set[str] = set()
    original = str_reference._fix_trailing_underflow

    def spied(tree, nodes):
        tail = len(nodes[-1].entries) if nodes else 0
        out = original(tree, nodes)
        if len(out) < len(nodes):
            fixes.add("merge")
        elif out and len(out[-1].entries) != tail:
            fixes.add("split")
        return out

    monkeypatch.setattr(str_reference, "_fix_trailing_underflow", spied)
    for fill in (0.5, 0.7, 1.0):
        for n in (1, 2, 9, 11, 17, 40, 97, 350, 2000):
            items = _scene(kind, n)
            got = str_pack(RStarTree(max_entries=8, min_entries=3), items, fill)
            want = str_reference.str_pack(
                RStarTree(max_entries=8, min_entries=3), items, fill
            )
            _assert_same_pages(got, want)
            got.check_invariants()
            assert sum(node._rects is not None for node in got.pages()) == got.page_count
    assert fixes == {"merge", "split"}


def test_str_pack_equals_the_sorted_reference_at_paper_capacity():
    """204-entry pages over a 40k-rect street-like grid (shared
    coordinates, many tied centre sums): three levels, identical."""
    items = []
    for i in range(40000):
        x, y = (i % 211) / 2, (i // 211 % 190) / 2
        items.append((object(), Rect(x, y, x + (i % 3) / 2, y + (i % 2) / 2)))
    got = str_pack(RStarTree(max_entries=204), items)
    want = str_reference.str_pack(RStarTree(max_entries=204), items)
    assert got.height == 3
    _assert_same_pages(got, want)
