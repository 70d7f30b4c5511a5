"""The array-evaluated exact predicate against the scalar oracle and
an all-fraction reference.

``repro.visibility.kernel.exact.crosses_interior_many`` claims to *be*
``Polygon.crosses_interior``, and both decide a convex obstacle by
the separation rule over certified float orientation signs, the array
pass handing the pairs those leave open to the scalar method, which
evaluates an uncertified sign in fractions.  So the properties here
are equalities, pair for pair, on random simple polygons and on the
degenerate families the street-grid scenes are made of (touching,
vertex-sharing and T-junction rectangles, collinear runs, segments
along an edge, through a vertex, ending on a boundary, zero-length and
near-zero segments) and on near-degenerate ones (endpoints an ulp off
an edge line, vertex runs collinear in floats but not exactly): each
the array filter, wherever it decides, and the scalar method equal
the all-fraction reference ``tests/reference_exact.py``; and the
whole predicate is the same
whatever the grouping of pairs into calls and on both sides of the
break-even constant.  The second half pins independence: the reference
backends never reach the arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Point, Polygon, Rect
from repro.model import Obstacle
from repro.core.engine import ObstacleDatabase
from repro.datasets.synthetic import street_grid_obstacles
from repro.runtime.stats import RuntimeStats
from repro.visibility import VisibilityGraph, is_visible
from repro.visibility.csr import frozen
from repro.visibility.kernel import PackedScene, exact
from tests import reference_exact
from tests.reference_field import bend_below_rounding

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
#: Offsets around where float signs cancel, down to subnormals.
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
        if draw(st.integers(0, 5)) == 0:  # zero-length and near-zero segments
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
    vertex, or a zero-length or near-zero one."""
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
        """Zero-length and near-zero segments (found by hypothesis on an
        earlier array form): the sign pass decides them without a
        floating-point warning, equal to the scalar method and the
        reference — an empty open segment crosses nothing."""
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
        want = [reference_exact.crosses_interior(poly, a, b) for a, b in segments]
        assert want == [False, False, True] * 8
        assert mask.tolist() == [poly.crosses_interior(a, b) for a, b in segments]
        assert mask.tolist() == want

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
        assert geom.edges.shape == (4, 52) and geom.mbr.shape == (13, 4)
        graph.add_obstacle(obstacles[3])
        assert packed.exact_arrays()[1][obstacles[3].oid] == 13

    def test_counts_pairs_past_the_mbr_reject(self, break_even):
        """``exact_pairs``: pairs past the MBR reject;
        ``exact_band_pairs``: those decided in exact arithmetic — every
        pair of a non-convex obstacle, and, over arrays, one whose signs
        the float filter cannot certify (none here: a segment from a
        corner into the square at slope ``5e-13`` is decided by
        certified signs)."""
        polys = [
            Polygon.from_rect(Rect(0, 0, 2, 2)),
            Polygon.from_rect(Rect(5, 5, 7, 7)),
            Polygon([(10, 0), (14, 0), (14, 1), (11, 1), (11, 4), (10, 4)]),
        ]
        segments = [
            (Point(-1, 1), Point(3, 1)),
            (Point(4, 6), Point(8, 6)),
            (Point(9, 9), Point(9, 8)),
            (Point(0, 0), Point(2, 1e-12)),  # inside, a hair above y = 0
            (Point(9, 2), Point(12, 2)),  # non-convex
        ]
        verdicts = [True, True, False, True, True]
        stats = RuntimeStats()
        packed = _packed([Obstacle(i, p) for i, p in enumerate(polys)])
        hidden = _hidden_many(segments, packed, stats=stats)
        assert hidden.tolist() == verdicts
        assert (stats.exact_pairs, stats.exact_band_pairs) == (4, 1)
        hidden = _hidden_many(segments * 6, packed, stats=stats)
        assert hidden.tolist() == verdicts * 6
        assert (stats.exact_pairs, stats.exact_band_pairs) == (4 + 24, 1 + 6)


@pytest.fixture
def arrays(monkeypatch):
    """Every batch evaluated over arrays, however small."""
    monkeypatch.setattr(exact, "_MIN_ARRAY_PAIRS", 0)


def _signs(segments, polys, pairs):
    """``exact._signs`` over ``pairs`` (segment, polygon): per pair the
    array filter's verdict, ``None`` where its certified signs leave
    the pair to the scalar method."""
    crosses, decided = exact._signs(
        _segs([segments[k] for k, __ in pairs]).T,
        exact.pack_polygons(polys),
        np.array([o for __, o in pairs], dtype=np.int64),
    )
    return [c if d else None for c, d in zip(crosses.tolist(), decided.tolist())]


def _assert_every_decider_is_the_reference(polys, segments, stats=None):
    """Per (segment, polygon) pair: the array filter wherever it
    decides, the scalar method past the MBR reject and with it, the
    ``naive`` backend's ``is_visible`` and the kernel all equal the
    all-fraction reference.  Returns the array filter's verdicts."""
    pairs = [(s, o) for s in range(len(segments)) for o in range(len(polys))]
    want = [reference_exact.crosses_interior(polys[o], *segments[s]) for s, o in pairs]
    filtered = _signs(segments, polys, pairs)
    assert [w if v is None else v for v, w in zip(filtered, want)] == want
    assert [polys[o].sign_verdict(*segments[s]) for s, o in pairs] == want
    assert [polys[o].crosses_interior(*segments[s]) for s, o in pairs] == want
    obstacles = [Obstacle(i, p) for i, p in enumerate(polys)]
    assert [
        not is_visible(*segments[s], [obstacles[o]]) for s, o in pairs
    ] == want
    mask = exact.crosses_interior_many(
        _segs(segments),
        exact.pack_polygons(polys),
        np.array([s for s, __ in pairs], dtype=np.int64),
        np.array([o for __, o in pairs], dtype=np.int64),
        stats,
    )
    assert mask.tolist() == want
    return [(v, polys[o]) for v, (__, o) in zip(filtered, pairs)]


def _ulps(draw: st.DrawFn, v: float) -> float:
    """``v`` moved by 0 to 2 ulps, one way."""
    toward = draw(st.sampled_from([-math.inf, math.inf]))
    for __ in range(draw(st.integers(0, 2))):
        v = math.nextafter(v, toward)
    return v


@st.composite
def slanted_polygons(draw: st.DrawFn) -> Polygon:
    """A convex polygon with slanted sides (``star_polygons``' kind, or
    a lattice diamond), maybe with one more vertex at a rounded point
    of a side, nudged by up to 2 ulps: a vertex run collinear in floats
    but, mostly, not exactly — convex or not by a hair."""
    if draw(st.booleans()):
        x0, y0 = draw(lattice), draw(lattice)
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        vertices = [
            Point(x0 + w, y0),
            Point(x0 + 2 * w, y0 + h),
            Point(x0 + w, y0 + 2 * h),
            Point(x0, y0 + h),
        ]
    else:
        vertices = list(draw(star_polygons()).vertices)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(vertices) - 1))
        a, b = vertices[k], vertices[(k + 1) % len(vertices)]
        t = draw(st.sampled_from([0.1, 1.0 / 3.0, 0.5, 0.7]))
        x, y = a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)
        vertices.insert(k + 1, Point(_ulps(draw, x), _ulps(draw, y)))
    try:
        return Polygon(vertices)
    except GeometryError:
        assume(False)


@st.composite
def near_points(draw: st.DrawFn, polys: list[Polygon]) -> Point:
    """A vertex, or a rounded point on an edge's line (within the edge
    or past its ends), each coordinate moved by up to 2 ulps."""
    poly = draw(st.sampled_from(polys))
    a, b = draw(st.sampled_from(poly.edges()))
    t = draw(st.sampled_from([0.0, 0.1, 1.0 / 3.0, 0.5, 0.7, -0.5, 1.5]))
    return Point(
        _ulps(draw, a.x + t * (b.x - a.x)), _ulps(draw, a.y + t * (b.y - a.y))
    )


@st.composite
def near_degenerate_scenes(
    draw: st.DrawFn,
) -> tuple[list[Polygon], list[tuple[Point, Point]]]:
    polys = draw(st.lists(slanted_polygons(), min_size=1, max_size=2))
    polys += draw(st.lists(lattice_rects(), max_size=1))
    ends = st.one_of(near_points(polys), near_points(polys), endpoints(polys))
    return polys, draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=12))


#: A triangle and a segment from a point near one edge's line to one
#: ulp off a vertex: float signs read without Shewchuk's bound call it
#: clear; it crosses.
_ROUNDED_WRONG = (
    [
        Polygon(
            [
                Point(1.670018992507747, 4.064374776587426),
                Point(-2.6105690822055965, 1.3610825258551151),
                Point(1.5674513325612633, -1.140799509318176),
            ]
        )
    ],
    [
        (
            Point(-1.2178956106166436, 0.5271218474640184),
            Point(1.5674513325612631, -1.1407995093181758),
        )
    ],
)


class TestSignFilter:
    @SIGN_FILTER
    @given(scene=filter_scenes())
    def test_each_filter_equals_the_exact_reference(self, arrays, scene):
        _assert_every_decider_is_the_reference(*scene)

    def test_near_degenerate_pairs_equal_the_exact_reference(self, arrays):
        """Endpoints an ulp off edge lines and vertex runs collinear in
        floats: every decider equals the reference, and the array
        filter leaves some convex pairs to the scalar method, which the
        kernel counts."""
        stats = RuntimeStats()
        undecided = []

        @SIGN_FILTER
        @given(scene=near_degenerate_scenes())
        @example(scene=_ROUNDED_WRONG)
        def check(scene):
            verdicts = _assert_every_decider_is_the_reference(*scene, stats)
            undecided.extend(
                poly for v, poly in verdicts if v is None and poly.is_convex()
            )

        check()
        assert undecided and stats.exact_band_pairs >= len(undecided)

    @SETTINGS
    @given(
        poly=st.one_of(dented_rects(), star_polygons()),
        data=st.data(),
    )
    def test_never_decides_a_non_convex_obstacle(self, poly, data):
        assume(_not_convex(poly))
        segs = data.draw(st.lists(segments([poly]), min_size=1, max_size=12))
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
        (338,600 pairs): both forms equal the all-fraction reference,
        and the signs decide every one, sides along their own obstacle
        too."""
        polys = [o.polygon for o in street_grid_obstacles(64, seed=5)]
        nodes = list(dict.fromkeys(v for p in polys for v in p.vertices))
        segments = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
        segs = _segs(segments)
        geom = exact.pack_polygons(polys)
        pair_seg, pair_obs = exact._boxes_meet(
            geom.mbr.T, *segs.T[:, :, None]
        ).nonzero()
        pairs = list(zip(pair_seg.tolist(), pair_obs.tolist()))
        want = [
            reference_exact.crosses_interior(polys[o], *segments[s]) for s, o in pairs
        ]
        assert [polys[o].crosses_interior(*segments[s]) for s, o in pairs] == want
        stats = RuntimeStats()
        mask = exact.crosses_interior_many(segs, geom, pair_seg, pair_obs, stats)
        assert mask.tolist() == want
        assert stats.exact_pairs == len(pairs)
        assert 0 < sum(want) and stats.exact_band_pairs == 0


def _edge_set(graph):
    frozen(graph)  # connect what a mutation left pending
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


# ------------------------------------------------------ the metric's laws
#: ``TestMetricLaws`` under the ``metric-laws`` profile
#: (``tests/conftest.py``): the default count, or the profile's own 500
#: when it is loaded (``--hypothesis-profile metric-laws``).
METRIC_LAWS = settings(
    settings.get_profile("metric-laws"),
    max_examples=settings.default.max_examples,
)


@st.composite
def metric_scenes(draw: st.DrawFn) -> tuple[list[Obstacle], list[Point]]:
    """Lattice rectangles — touching, vertex-sharing, T-junctions,
    collinear runs, overlaps — and 2 to 5 distinct points: on the
    lattice (on vertices, edges and grid lines), free, or an obstacle
    vertex."""
    polys = draw(st.lists(lattice_rects(), min_size=1, max_size=4))
    vertices = [v for poly in polys for v in poly.vertices]
    point = st.one_of(
        st.builds(Point, lattice, lattice),
        st.builds(Point, fine, fine),
        st.sampled_from(vertices),
    )
    points = draw(st.lists(point, min_size=2, max_size=5, unique=True))
    # A point a hair off a boundary still breaks these laws, though no
    # longer through the predicates: a detour an ulp longer rounds to a
    # different sum along different routes, and a subnormal gap
    # underflows |pq| to 0 (see CHANGES.md's FOUND lines).
    assume(not any(_hair_off_a_boundary(p, polys) for p in points))
    return [Obstacle(i, poly) for i, poly in enumerate(polys)], points


def _hair_off_a_boundary(p: Point, polys: list[Polygon]) -> bool:
    """Whether ``p`` lies within 1e-6 of some polygon edge, not on it."""
    for poly in polys:
        for a, b in poly.edges():
            dx, dy = b.x - a.x, b.y - a.y
            t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy)
            t = min(1.0, max(0.0, t))
            gap = math.hypot(p.x - a.x - t * dx, p.y - a.y - t * dy)
            if 0.0 < gap < 1e-6:
                return True
    return False


def _metric_answers(backend, obstacles, points, e):
    """Every answer the laws read, on a fresh ``backend`` database:
    ``d_O`` of every ordered pair, each point's ``nearest`` and
    ``range`` over the points, a multi-seed ``distance_join`` and the
    three ``batch_*`` calls."""
    db = ObstacleDatabase(
        [o.polygon for o in obstacles], max_entries=8, min_entries=3, backend=backend
    )
    db.add_entity_set("E", points)
    pairs = [(a, b) for a in points for b in points if a != b]
    return {
        "distance": {(a, b): db.obstructed_distance(a, b) for a, b in pairs},
        "nearest": [db.nearest("E", q, len(points)) for q in points],
        "range": [db.range("E", q, e) for q in points],
        "join": db.distance_join("E", "E", e),
        "batch_distance": db.batch_distance(pairs),
        "batch_nearest": db.batch_nearest("E", points, len(points)),
        "batch_range": db.batch_range("E", points, e),
    }


class TestMetricLaws:
    """``d_O`` is a metric on the plane minus the obstacle interiors:
    ``d_O(p, q) >= |pq|``, with equality iff ``p`` and ``q`` see each
    other past every obstacle, or a detour past a corner a hair off
    ``pq`` is shorter than rounding; and ``d_O(p, q) == d_O(q, p)`` —
    on both backends, through every query that reports a distance.

    Symmetry is bit for bit for a straight leg.  A bent path's legs are
    summed from the end its search starts at, and float addition is
    not associative: ``d_O(q, p)`` may sum the same legs in the reverse
    order and differ in the last places, so it is held to ``1e-12``
    relative there.  Every query reports a distance from the end it
    searches from, so ``nearest`` and ``range`` at ``q``, and a join
    seeded at ``s``, equal ``d_O(q, .)`` and ``d_O(s, .)`` bit for bit."""

    @METRIC_LAWS
    @given(scene=metric_scenes(), e=st.sampled_from([2.0, 5.0, 12.0]))
    @example(
        # (4, 12) -> (5e-324, 8) clips the corner (1, 9) by a subnormal:
        # hidden, and the detour past that corner sums an ulp below |ab|.
        scene=(
            [
                Obstacle(0, Polygon.from_rect(Rect(1, 5, 2, 9))),
                Obstacle(1, Polygon.from_rect(Rect(4, 8, 5, 12))),
            ],
            [Point(4, 12), Point(5e-324, 8)],
        ),
        e=2.0,
    )
    def test_straight_iff_in_sight_and_symmetric_on_every_path(self, scene, e):
        obstacles, points = scene
        runs = [_metric_answers(b, obstacles, points, e) for b in ("naive", "numpy-kernel")]
        got = runs[0]
        assert runs[1] == got  # the backends agree, bit for bit
        d = got["distance"]
        for (a, b), ab in d.items():
            straight = a.distance(b)
            visible = is_visible(a, b, obstacles)
            assert ab >= straight, (a, b)
            if visible:
                assert ab == straight, (a, b)
            elif ab == straight:
                # Hidden, yet at the straight leg's length: only a
                # detour past a corner a hair off pq, which rounding
                # cannot tell from the leg, makes one.
                assert any(
                    bend_below_rounding(a, v, b)
                    for o in obstacles
                    for v in o.polygon.vertices
                    if v not in (a, b)
                ), (a, b)
            if ab == straight:
                assert d[b, a] == ab, (a, b)
            else:
                assert math.isclose(d[b, a], ab, rel_tol=1e-12), (a, b)
        dist = {**d, **{(p, p): 0.0 for p in points}}
        for q, nearest, in_range in zip(points, got["nearest"], got["range"]):
            want = sorted(dist[q, p] for p in points)
            assert [x for __, x in nearest] == want[: len(nearest)]
            assert all(x == dist[q, p] for p, x in nearest)
            assert dict(in_range) == {
                p: dist[q, p] for p in points if dist[q, p] <= e
            }
        assert {(s, t): x for s, t, x in got["join"]} == {
            (s, t): dist[s, t] for s in points for t in points if dist[s, t] <= e
        }
        assert got["batch_distance"] == list(d.values())
        assert got["batch_nearest"] == got["nearest"]
        assert got["batch_range"] == got["range"]
