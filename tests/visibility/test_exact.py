"""The array-evaluated exact predicate against the scalar oracle.

``repro.visibility.kernel.exact.crosses_interior_many`` claims to *be*
``Polygon.crosses_interior`` — same float64 expressions, same order —
so the property here is equality, pair for pair, on random simple
polygons and on the degenerate families the street-grid scenes are made
of (touching, vertex-sharing and T-junction rectangles, collinear runs,
segments along an edge, through a vertex, ending on a boundary,
zero-length and sub-``EPS`` segments), whatever the grouping of pairs
into calls and on both sides of the break-even constant.  The second
half pins independence: the reference backends never reach the arrays.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Point, Polygon, Rect
from repro.model import Obstacle
from repro.datasets.synthetic import street_grid_obstacles
from repro.visibility import VisibilityGraph, is_visible
from repro.visibility.kernel import PackedScene, exact

SETTINGS = settings(deadline=None, suppress_health_check=list(HealthCheck))

#: Coordinates on a coarse lattice: shared grid lines, touching sides,
#: shared corners and T-junctions all arise by themselves.
lattice = st.integers(0, 8).map(float)
fine = st.floats(min_value=-1.0, max_value=9.0, allow_nan=False, width=64)
#: Offsets around the predicates' tolerances, down to subnormals.
tiny = st.sampled_from(
    [0.0, 5e-324, 1.97626e-322, 1e-300, 1e-15, 5e-10, 1e-9, 2e-9, 1e-6]
).flatmap(lambda d: st.sampled_from([d, -d]))


@st.composite
def lattice_rects(draw: st.DrawFn) -> Polygon:
    x0, y0 = draw(lattice), draw(lattice)
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    corners = Rect(x0, y0, x0 + w, y0 + h).corners()
    if draw(st.booleans()):
        # A collinear run: one more vertex in the middle of a side.
        k = draw(st.integers(0, 3))
        a, b = corners[k], corners[(k + 1) % 4]
        corners.insert(k + 1, Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0))
    return Polygon(corners)


@st.composite
def star_polygons(draw: st.DrawFn) -> Polygon:
    """A simple polygon, star-shaped around a centre: vertices at
    increasing angles and free radii (convex or not)."""
    cx, cy = draw(fine), draw(fine)
    angles = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
            min_size=3,
            max_size=7,
            unique=True,
        )
    )
    vertices = [
        Point(
            cx + (r := draw(st.floats(min_value=0.3, max_value=4.0))) * math.cos(t),
            cy + r * math.sin(t),
        )
        for t in sorted(angles)
    ]
    try:
        return Polygon(vertices)
    except GeometryError:
        assume(False)


polygons = st.lists(st.one_of(lattice_rects(), star_polygons()), min_size=1, max_size=5)


@st.composite
def endpoints(draw: st.DrawFn, polys: list[Polygon]) -> Point:
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Point(draw(lattice), draw(lattice))
    if kind == 1:
        return Point(draw(fine), draw(fine))
    poly = draw(st.sampled_from(polys))
    a, b = draw(st.sampled_from(poly.edges()))
    if kind == 2:  # a vertex, or a hair off it
        return Point(a.x + draw(tiny), a.y + draw(tiny))
    # On (or a hair off) the boundary, or on the edge's line beyond it.
    t = draw(st.sampled_from([0.25, 0.5, 1.0 / 3.0, -0.5, 1.5]))
    return Point(
        a.x + t * (b.x - a.x) + draw(tiny), a.y + t * (b.y - a.y) + draw(tiny)
    )


@st.composite
def scenes(draw: st.DrawFn) -> tuple[list[Polygon], list[tuple[Point, Point]]]:
    polys = draw(polygons)
    segments = []
    for __ in range(draw(st.integers(1, 12))):
        a = draw(endpoints(polys))
        if draw(st.integers(0, 5)) == 0:  # zero-length and sub-EPS segments
            b = Point(a.x + draw(tiny), a.y + draw(tiny))
        else:
            b = draw(endpoints(polys))
        segments.append((a, b))
    return polys, segments


def _segs(segments) -> np.ndarray:
    return np.array([(a.x, a.y, b.x, b.y) for a, b in segments]).reshape(-1, 4)


def _hidden_many(segments, packed, only=(), stats=None) -> np.ndarray:
    """``exact.hidden_many`` over ``segments``, tails and heads each a
    point set of their own."""
    k = np.arange(len(segments))
    tails = [a for a, __ in segments]
    heads = [b for __, b in segments]
    return exact.hidden_many(
        (_xy(tails), tails), k, (_xy(heads), heads), k, [packed], k * 0, only, stats
    )


def _xy(points) -> np.ndarray:
    return np.array([(p.x, p.y) for p in points]).reshape(-1, 2)


def _packed(obstacles) -> PackedScene:
    nodes = list(dict.fromkeys(v for o in obstacles for v in o.polygon.vertices))
    ids = {v: i for i, v in enumerate(nodes)}
    packed = PackedScene(nodes)
    for obs in obstacles:
        packed.add_obstacle(obs, ids)
    return packed


@pytest.fixture(
    params=[0, exact._MIN_ARRAY_PAIRS, math.inf],
    ids=["arrays", "default", "looped"],
)
def break_even(request, monkeypatch):
    monkeypatch.setattr(exact, "_MIN_ARRAY_PAIRS", request.param)
    return request.param


class TestEqualsTheScalarOracle:
    @SETTINGS
    @given(scene=scenes(), data=st.data())
    def test_every_pair_whatever_the_grouping(self, break_even, scene, data):
        polys, segments = scene
        geom = exact.pack_polygons(polys)
        segs = _segs(segments)
        pairs = [(s, o) for s in range(len(segments)) for o in range(len(polys))]
        want = [polys[o].crosses_interior(*segments[s]) for s, o in pairs]
        # The same pairs, shuffled and cut into calls at drawn places.
        order = data.draw(st.permutations(range(len(pairs))))
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(pairs)), max_size=3))
        )
        got = [None] * len(pairs)
        for lo, hi in zip([0] + cuts, cuts + [len(pairs)]):
            chunk = order[lo:hi]
            mask = exact.crosses_interior_many(
                segs,
                geom,
                np.array([pairs[k][0] for k in chunk], dtype=np.int64),
                np.array([pairs[k][1] for k in chunk], dtype=np.int64),
            )
            for k, verdict in zip(chunk, mask.tolist()):
                got[k] = verdict
        assert got == want

    @SETTINGS
    @given(scene=scenes(), data=st.data())
    def test_batched_visibility_is_is_visible(self, break_even, scene, data):
        """The sweep's call: the first segments each against obstacles
        of their own (its boundary band), the rest against the scene."""
        polys, segments = scene
        obstacles = [Obstacle(i, p) for i, p in enumerate(polys)]
        only = data.draw(
            st.lists(
                st.lists(st.sampled_from(obstacles), min_size=1, unique=True),
                max_size=len(segments),
            )
        )
        hidden = _hidden_many(segments, _packed(obstacles), only)
        tested = only + [obstacles] * (len(segments) - len(only))
        assert hidden.tolist() == [
            not is_visible(a, b, some) for (a, b), some in zip(segments, tested)
        ]

    def test_degenerate_segment_takes_the_scalar_branch(self, break_even):
        """``r_len <= EPS``: the branch arrays cannot take without
        dividing by zero (found by hypothesis on the prototype)."""
        poly = Polygon.from_rect(Rect(0, 0, 10, 10))
        segments = [
            (Point(0, 10), Point(1.97626e-322, 10)),
            (Point(5, 5), Point(5, 5)),
            (Point(5, 5), Point(5 + 5e-10, 5)),
        ] * 8
        pair_seg = np.arange(len(segments))
        with np.errstate(all="raise"):
            mask = exact.crosses_interior_many(
                _segs(segments), exact.pack_polygons([poly]), pair_seg, pair_seg * 0
            )
        assert mask.tolist() == [poly.crosses_interior(a, b) for a, b in segments]

    def test_packed_scene_arrays_follow_mutations(self):
        obstacles = street_grid_obstacles(14, seed=7)
        graph = VisibilityGraph.build([], obstacles, method="numpy-kernel")
        packed = graph.packed_scene()
        before, __ = packed.exact_arrays()
        assert packed.exact_arrays()[0] is before  # cached
        graph.remove_obstacle(obstacles[3].oid)
        geom, rows = packed.exact_arrays()
        scene = graph.scene_obstacles()
        assert [rows[o.oid] for o in scene] == list(range(13))
        assert list(geom.polygons) == [o.polygon for o in scene]
        assert geom.edges.shape == (5, 52) and geom.mbr.shape == (13, 4)
        graph.add_obstacle(obstacles[3])
        assert packed.exact_arrays()[1][obstacles[3].oid] == 13

    def test_counts_pairs_past_the_mbr_reject(self, break_even):
        from repro.runtime.stats import RuntimeStats

        polys = [
            Polygon.from_rect(Rect(0, 0, 2, 2)),
            Polygon.from_rect(Rect(5, 5, 7, 7)),
        ]
        segments = [
            (Point(-1, 1), Point(3, 1)),
            (Point(4, 6), Point(8, 6)),
            (Point(9, 9), Point(9, 8)),
        ]
        stats = RuntimeStats()
        packed = _packed([Obstacle(i, p) for i, p in enumerate(polys)])
        hidden = _hidden_many(segments, packed, stats=stats)
        assert hidden.tolist() == [True, True, False]
        assert stats.exact_pairs == 2
        hidden = _hidden_many(segments * 6, packed, stats=stats)
        assert hidden.tolist() == [True, True, False] * 6
        assert stats.exact_pairs == 2 + 12


def _edge_set(graph):
    return {frozenset((u, v)) for u in graph.nodes() for v in graph.neighbors(u)}


class TestReferenceBackendsNeverTouchTheArrays:
    @pytest.mark.parametrize("method", ["naive", "python-sweep"])
    def test_build_insert_delete_with_the_arrays_broken(self, method, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("a reference backend reached the array predicate")

        monkeypatch.setattr(exact, "crosses_interior_many", broken)
        obstacles = street_grid_obstacles(15, seed=11)
        points = [Point(1.0, 1.0), Point(9_999.0, 9_999.0)]
        graph = VisibilityGraph.build(points, obstacles[:-1], method=method)
        assert graph.add_obstacle(obstacles[-1])
        built = VisibilityGraph.build(points, obstacles, method=method)
        assert _edge_set(graph) == _edge_set(built)
        assert graph.remove_obstacle(obstacles[0].oid)
        rebuilt = VisibilityGraph.build(points, obstacles[1:], method=method)
        assert _edge_set(graph) == _edge_set(rebuilt)

    def test_the_numpy_kernel_does_reach_them(self, monkeypatch):
        """The same script on the kernel's graphs fails with the arrays
        broken — the patch above is not vacuous."""
        def broken(*args, **kwargs):
            raise AssertionError("reached")

        monkeypatch.setattr(exact, "crosses_interior_many", broken)
        with pytest.raises(AssertionError, match="reached"):
            VisibilityGraph.build(
                [], street_grid_obstacles(15, seed=11), method="numpy-kernel"
            )
