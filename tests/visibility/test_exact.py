"""The array-evaluated exact predicate against the scalar oracle.

``repro.visibility.kernel.exact.crosses_interior_many`` claims to *be*
``Polygon.crosses_interior``, and both decide a convex obstacle by
orientation signs wherever the geometry is clear, handing only the
contact band to the tolerance method (``Polygon._crosses_by_params``).
So the properties here are equalities, pair for pair, on random simple
polygons and on the degenerate families the street-grid scenes are made
of (touching, vertex-sharing and T-junction rectangles, collinear runs,
segments along an edge, through a vertex, ending on a boundary,
zero-length and sub-``EPS`` segments): each sign filter, wherever it
decides, equals the tolerance method; the array filter decides exactly
the pairs the scalar one does; and the whole predicate is the same
whatever the grouping of pairs into calls and on both sides of the
break-even constant.  The second half pins independence: the reference
backends never reach the arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Point, Polygon, Rect
from repro.model import Obstacle
from repro.datasets.synthetic import street_grid_obstacles
from repro.runtime.stats import RuntimeStats
from repro.visibility import VisibilityGraph, is_visible
from repro.visibility.kernel import PackedScene, exact

SETTINGS = settings(deadline=None, suppress_health_check=list(HealthCheck))
#: The sign filters' property: the ``sign-filter`` profile
#: (``tests/conftest.py``) at 1,000 examples, or at the profile's own
#: 2,000 when it is loaded (``--hypothesis-profile sign-filter``).
SIGN_FILTER = settings(
    settings.get_profile("sign-filter"),
    max_examples=max(1_000, settings.default.max_examples),
)

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


#: Parameters along an edge's line, and reaches past a vertex.
along = st.sampled_from([-0.5, 0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 1.5])
reach = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


@st.composite
def segments(draw: st.DrawFn, polys: list[Polygon]) -> tuple[Point, Point]:
    """Free or boundary endpoints, a run along an edge's line (within
    the edge, past its ends, a hair off it), a segment through a
    vertex, or a zero-length or sub-``EPS`` one."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(endpoints(polys)), draw(endpoints(polys))
    if kind == 3:
        a = draw(endpoints(polys))
        return a, Point(a.x + draw(tiny), a.y + draw(tiny))
    a, b = draw(st.sampled_from(draw(st.sampled_from(polys)).edges()))
    if kind == 1:
        return tuple(
            Point(
                a.x + s * (b.x - a.x) + draw(tiny), a.y + s * (b.y - a.y) + draw(tiny)
            )
            for s in (draw(along), draw(along))
        )
    dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    s, t = draw(reach), draw(reach)
    return (
        Point(a.x - s * dx + draw(tiny), a.y - s * dy + draw(tiny)),
        Point(a.x + t * dx, a.y + t * dy),
    )


@st.composite
def filter_scenes(draw: st.DrawFn) -> tuple[list[Polygon], list[tuple[Point, Point]]]:
    polys = draw(polygons)
    return polys, draw(st.lists(segments(polys), min_size=1, max_size=12))


@st.composite
def dented_rects(draw: st.DrawFn) -> Polygon:
    """A lattice rectangle whose bottom side gets a middle vertex pushed
    in by a drawn offset: a right turn however slight."""
    x0, y0 = draw(lattice), draw(lattice)
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dent = draw(st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 0.25]))
    return Polygon(
        [
            Point(x0, y0),
            Point(x0 + w / 2.0, y0 + dent),
            Point(x0 + w, y0),
            Point(x0 + w, y0 + h),
            Point(x0, y0 + h),
        ]
    )


def _not_convex(poly: Polygon) -> bool:
    """Whether ``poly`` turns right or back at some vertex, in exact
    arithmetic."""
    v = [(Fraction(p.x), Fraction(p.y)) for p in poly.vertices]
    for a, b, c in zip(v, v[1:] + v[:1], v[2:] + v[:2]):
        u = (b[0] - a[0], b[1] - a[1])
        w = (c[0] - b[0], c[1] - b[1])
        turn = u[0] * w[1] - u[1] * w[0]
        if turn < 0 or (turn == 0 and u[0] * w[0] + u[1] * w[1] < 0):
            return True
    return False


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

    def test_degenerate_segment_divides_by_no_zero(self, break_even):
        """Zero-length and sub-``EPS`` segments (the tolerance method's
        ``r_len <= EPS`` branch, found by hypothesis on an earlier
        array form): the sign pass decides them with every division
        guarded, and equal to the scalar method."""
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
        """``exact_pairs``: pairs past the MBR reject;
        ``exact_band_pairs``: those the tolerance method decided — a
        grazing contact within the band and every pair of a non-convex
        obstacle."""
        polys = [
            Polygon.from_rect(Rect(0, 0, 2, 2)),
            Polygon.from_rect(Rect(5, 5, 7, 7)),
            Polygon([(10, 0), (14, 0), (14, 1), (11, 1), (11, 4), (10, 4)]),
        ]
        segments = [
            (Point(-1, 1), Point(3, 1)),
            (Point(4, 6), Point(8, 6)),
            (Point(9, 9), Point(9, 8)),
            (Point(0, 0), Point(2, 1e-12)),  # the band: along y = 0
            (Point(9, 2), Point(12, 2)),  # non-convex
        ]
        verdicts = [True, True, False, False, True]
        stats = RuntimeStats()
        packed = _packed([Obstacle(i, p) for i, p in enumerate(polys)])
        hidden = _hidden_many(segments, packed, stats=stats)
        assert hidden.tolist() == verdicts
        assert (stats.exact_pairs, stats.exact_band_pairs) == (4, 2)
        hidden = _hidden_many(segments * 6, packed, stats=stats)
        assert hidden.tolist() == verdicts * 6
        assert (stats.exact_pairs, stats.exact_band_pairs) == (4 + 24, 2 + 12)


@pytest.fixture
def arrays(monkeypatch):
    """Every batch evaluated over arrays, however small."""
    monkeypatch.setattr(exact, "_MIN_ARRAY_PAIRS", 0)


def _signs(segments, polys, pairs):
    """``exact._signs`` over ``pairs`` (segment, polygon): per pair the
    array filter's verdict, ``None`` where it leaves the pair to the
    tolerance method — :meth:`Polygon.sign_verdict`'s shape."""
    crosses, decided = exact._signs(
        _segs([segments[k] for k, __ in pairs]).T,
        exact.pack_polygons(polys),
        np.array([o for __, o in pairs], dtype=np.int64),
    )
    return [c if d else None for c, d in zip(crosses.tolist(), decided.tolist())]


class TestSignFilter:
    @SIGN_FILTER
    @given(scene=filter_scenes())
    def test_each_filter_equals_the_tolerance_method(self, arrays, scene):
        polys, segments = scene
        pairs = [(s, o) for s in range(len(segments)) for o in range(len(polys))]
        want = [polys[o]._crosses_by_params(*segments[s]) for s, o in pairs]
        scalar = [polys[o].sign_verdict(*segments[s]) for s, o in pairs]
        assert [w if v is None else v for v, w in zip(scalar, want)] == want
        # The array filter is the scalar one's twin: same pairs decided,
        # same verdicts.
        assert _signs(segments, polys, pairs) == scalar
        assert [polys[o].crosses_interior(*segments[s]) for s, o in pairs] == want
        mask = exact.crosses_interior_many(
            _segs(segments),
            exact.pack_polygons(polys),
            np.array([s for s, __ in pairs], dtype=np.int64),
            np.array([o for __, o in pairs], dtype=np.int64),
        )
        assert mask.tolist() == want

    @SETTINGS
    @given(
        poly=st.one_of(dented_rects(), star_polygons()),
        data=st.data(),
    )
    def test_never_decides_a_non_convex_obstacle(self, poly, data):
        assume(_not_convex(poly))
        segs = data.draw(st.lists(segments([poly]), min_size=1, max_size=12))
        assert [poly.sign_verdict(a, b) for a, b in segs] == [None] * len(segs)
        pairs = [(k, 0) for k in range(len(segs))]
        assert _signs(segs, [poly], pairs) == [None] * len(segs)

    def test_decides_the_contacts_a_street_grid_is_made_of(self):
        """Along a side, out of a corner, onto the boundary from
        outside: clear by one edge line's closed outer side; through a
        corner into the interior: crossing."""
        square = Polygon.from_rect(Rect(0, 0, 2, 2))
        segs = [
            (Point(0, 0), Point(2, 0)),
            (Point(-1, 2), Point(3, 2)),
            (Point(0, 0), Point(-1, -1)),
            (Point(2, 2), Point(3, 1)),
            (Point(1, 5), Point(1, 2)),
            (Point(0, 0), Point(2, 2)),
            (Point(-1, -1), Point(1, 1)),
        ]
        want = [False] * 5 + [True] * 2
        assert [square.sign_verdict(a, b) for a, b in segs] == want
        assert _signs(segs, [square], [(k, 0) for k in range(len(segs))]) == want

    def test_all_pairs_of_a_street_grid_scene(self, arrays):
        """Every (vertex pair, obstacle) of 64 street-grid rectangles —
        overlaps and near-shared lines included — past the MBR reject
        (338,600 pairs): both forms equal the tolerance method, and the
        signs decide every one, sides along their own obstacle too."""
        polys = [o.polygon for o in street_grid_obstacles(64, seed=5)]
        nodes = list(dict.fromkeys(v for p in polys for v in p.vertices))
        segments = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
        segs = _segs(segments)
        geom = exact.pack_polygons(polys)
        pair_seg, pair_obs = exact._boxes_meet(
            geom.mbr.T, *segs.T[:, :, None]
        ).nonzero()
        pairs = list(zip(pair_seg.tolist(), pair_obs.tolist()))
        want = [polys[o]._crosses_by_params(*segments[s]) for s, o in pairs]
        assert [polys[o].crosses_interior(*segments[s]) for s, o in pairs] == want
        stats = RuntimeStats()
        mask = exact.crosses_interior_many(segs, geom, pair_seg, pair_obs, stats)
        assert mask.tolist() == want
        assert stats.exact_pairs == len(pairs)
        assert 0 < sum(want) and stats.exact_band_pairs == 0


def _edge_set(graph):
    return {frozenset((u, v)) for u in graph.nodes() for v in graph.neighbors(u)}


class TestReferenceBackendsNeverTouchTheArrays:
    @pytest.mark.parametrize("method", ["naive"])
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
