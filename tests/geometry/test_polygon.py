"""Unit and property tests for repro.geometry.polygon."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Point, Polygon, Rect

SQUARE = Polygon.from_rect(Rect(0, 0, 10, 10))
L_SHAPE = Polygon(
    [Point(0, 0), Point(4, 0), Point(4, 2), Point(2, 2), Point(2, 4), Point(0, 4)]
)


class TestConstruction:
    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(GeometryError):
            Polygon([Point(0, 0), Point(0, 0), Point(1, 1), Point(0, 1)])

    def test_zero_area_rejected(self):
        with pytest.raises(GeometryError):
            Polygon([Point(0, 0), Point(5, 0), Point(10, 0)])

    def test_orientation_normalised_to_ccw(self):
        cw = Polygon([Point(0, 0), Point(0, 10), Point(10, 10), Point(10, 0)])
        assert cw.area() > 0

    def test_closing_vertex_dropped(self):
        p = Polygon([Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 0)])
        assert len(p.vertices) == 3

    def test_from_rect_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Polygon.from_rect(Rect(0, 0, 0, 5))

    def test_regular_polygon(self):
        hexagon = Polygon.regular(Point(0, 0), 10, 6)
        assert len(hexagon.vertices) == 6
        assert hexagon.is_convex()
        with pytest.raises(GeometryError):
            Polygon.regular(Point(0, 0), 10, 2)
        with pytest.raises(GeometryError):
            Polygon.regular(Point(0, 0), -1, 5)

    def test_validate_simple_accepts_square(self):
        SQUARE.validate_simple()

    def test_zero_area_bowtie_rejected_at_construction(self):
        with pytest.raises(GeometryError):
            Polygon([Point(0, 0), Point(10, 10), Point(10, 0), Point(0, 10)])

    def test_validate_simple_rejects_self_intersection(self):
        # non-zero-area self-intersecting quad: edge 2 crosses edge 0 —
        # the constructor runs validate_simple on any polygon that turns
        # right somewhere.
        with pytest.raises(GeometryError, match="edges 0 and 2 intersect"):
            Polygon([Point(0, 0), Point(6, 0), Point(6, 6), Point(2, -2)])


#: The regular pentagon's vertices, and the pentagram through them in
#: the order 0, 2, 4, 1, 3: only left turns and a positive area, but its
#: edge directions wind twice.
PENTAGON = [
    Point(10 * math.cos(math.pi / 2 + 2 * math.pi * k / 5),
          10 * math.sin(math.pi / 2 + 2 * math.pi * k / 5))
    for k in range(5)
]
STAR = [PENTAGON[k] for k in (0, 2, 4, 1, 3)]

#: Every star polygon ``{n/k}`` up to 12 points (``k`` coprime to
#: ``n``, ``1 < k < n / 2``).
STARS = [
    (n, k) for n in range(5, 13) for k in range(2, (n + 1) // 2) if math.gcd(n, k) == 1
]


def _regular(n: int, r: float) -> list[Point]:
    return [
        Point(r * math.cos(2 * math.pi * i / n), r * math.sin(2 * math.pi * i / n))
        for i in range(n)
    ]


#: Simple polygons with reflex vertices, as ``(x, y)`` rings.
SIMPLE_NON_CONVEX = {
    "L": [(0, 0), (6, 0), (6, 2), (2, 2), (2, 6), (0, 6)],
    "U": [(0, 0), (30, 0), (30, 30), (20, 30), (20, 10), (10, 10), (10, 30), (0, 30)],
    "spiral": [
        (0, 0), (40, 0), (40, 40), (10, 40), (10, 20), (20, 20), (20, 30),
        (30, 30), (30, 10), (0, 10),
    ],
    "comb": [(0, 0), (9, 0), (9, 6), (7, 6), (7, 2), (5, 2), (5, 6), (3, 6),
             (3, 2), (1, 2), (1, 6), (0, 6)],
    "concave star": [
        (
            (10 if i % 2 == 0 else 4) * math.cos(math.pi * i / 5),
            (10 if i % 2 == 0 else 4) * math.sin(math.pi * i / 5),
        )
        for i in range(10)
    ],
    "arrow, clockwise": [(0, 0), (4, 4), (0, 8), (10, 4)][::-1],
}

#: Polygons that turn right (or fold back) somewhere and whose edges
#: meet away from their shared vertices.
NOT_SIMPLE = {
    "folded square": [(0, 0), (10, 0), (10, 10), (5, -5), (0, 10)],
    "two squares touching at a vertex": [
        (0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (2, 4), (2, 2), (0, 2),
    ],
    "a spike folding back onto its edge": [
        (0, 0), (10, 0), (10, 10), (0, 10), (0, 5), (5, 5), (0, 5.0),
    ],
}


class TestWindsOnce:
    """A polygon that turns left everywhere is simple iff its edge
    directions wind exactly once; one that winds twice was accepted,
    called convex by the sign filter and mis-decided by it."""

    def test_the_pentagram_is_rejected(self):
        with pytest.raises(GeometryError, match="winds 2 times"):
            Polygon(STAR)
        with pytest.raises(GeometryError, match="winds 2 times"):
            Polygon(STAR[::-1])

    def test_the_pentagram_never_reaches_a_database(self, tmp_path):
        from repro import ObstacleDatabase
        from repro.datasets.io import load_obstacles

        with pytest.raises(GeometryError):
            ObstacleDatabase([Polygon(STAR)])
        path = tmp_path / "star.txt"
        path.write_text("0 " + " ".join(f"{v.x!r} {v.y!r}" for v in STAR) + "\n")
        with pytest.raises(GeometryError):
            load_obstacles(path)

    def test_convex_polygons_wind_once(self):
        for poly in (
            Polygon(PENTAGON),
            Polygon(PENTAGON[::-1]),
            Polygon.regular(Point(3, 4), 2, 40),
            SQUARE,
            # A collinear run: straight on at (5, 0).
            Polygon([Point(0, 0), Point(5, 0), Point(10, 0), Point(10, 10)]),
        ):
            assert poly.is_convex()

    def test_non_convex_simple_polygons_are_accepted(self):
        assert not L_SHAPE.is_convex()
        L_SHAPE.validate_simple()

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n, k", STARS)
    def test_star_polygons_are_rejected(self, n, k, reverse):
        """The star ``{n/k}`` joins every ``k``-th vertex of a regular
        ``n``-gon: left turns only, and its edges wind ``k`` times."""
        ring = _regular(n, 10.0)
        star = [ring[i * k % n] for i in range(n)]
        with pytest.raises(GeometryError, match=f"winds {k} times"):
            Polygon(star[::-1] if reverse else star)

    @pytest.mark.parametrize("laps", [2, 3])
    def test_a_boundary_traced_more_than_once_is_rejected(self, laps):
        with pytest.raises(GeometryError, match=f"winds {laps} times"):
            Polygon(list(SQUARE.vertices) * laps)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_regular_polygons_wind_once(self, n, reverse):
        ring = _regular(n, 7.0)
        poly = Polygon(ring[::-1] if reverse else ring)
        assert len(poly.vertices) == n
        assert poly.is_convex()
        poly.validate_simple()

    @pytest.mark.parametrize("name", sorted(SIMPLE_NON_CONVEX))
    def test_simple_non_convex_polygons_are_kept(self, name):
        xy = SIMPLE_NON_CONVEX[name]
        poly = Polygon([Point(x, y) for x, y in xy])
        assert not poly.is_convex()
        poly.validate_simple()
        shoelace = sum(
            x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(xy, xy[1:] + xy[:1])
        )
        assert poly.area() == pytest.approx(abs(shoelace) / 2)

    @pytest.mark.parametrize("name", sorted(NOT_SIMPLE))
    def test_polygons_that_turn_right_and_meet_themselves_are_rejected(self, name):
        with pytest.raises(GeometryError, match="not simple"):
            Polygon([Point(x, y) for x, y in NOT_SIMPLE[name]])


class TestMeasures:
    def test_square_area_perimeter(self):
        assert SQUARE.area() == pytest.approx(100.0)
        assert SQUARE.perimeter() == pytest.approx(40.0)

    def test_l_shape_area(self):
        assert L_SHAPE.area() == pytest.approx(12.0)

    def test_centroid_square(self):
        assert SQUARE.centroid().distance(Point(5, 5)) < 1e-9

    def test_convexity(self):
        assert SQUARE.is_convex()
        assert not L_SHAPE.is_convex()

    def test_mbr(self):
        assert L_SHAPE.mbr == Rect(0, 0, 4, 4)

    def test_edges_count(self):
        assert len(SQUARE.edges()) == 4
        assert len(L_SHAPE.edges()) == 6


class TestContainment:
    def test_interior(self):
        assert SQUARE.contains(Point(5, 5))

    def test_boundary_not_strict_interior(self):
        assert not SQUARE.contains(Point(0, 5))
        assert not SQUARE.contains(Point(10, 10))
        assert SQUARE.contains_or_boundary(Point(0, 5))

    def test_outside(self):
        assert not SQUARE.contains(Point(-1, 5))
        assert not SQUARE.contains_or_boundary(Point(11, 5))

    def test_l_shape_notch_outside(self):
        assert not L_SHAPE.contains(Point(3, 3))
        assert L_SHAPE.contains(Point(1, 1))

    def test_on_boundary(self):
        assert SQUARE.on_boundary(Point(5, 0))
        assert SQUARE.on_boundary(Point(10, 10))
        assert not SQUARE.on_boundary(Point(5, 5))

    def test_ray_through_vertex_counted_once(self):
        diamond = Polygon([Point(5, 0), Point(10, 5), Point(5, 10), Point(0, 5)])
        # horizontal ray from this point passes exactly through vertex (10, 5)
        assert diamond.contains(Point(5, 5))
        assert not diamond.contains(Point(-1, 5))

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_boundary_point_at_is_on_boundary(self, s, t):
        p = L_SHAPE.boundary_point_at(s)
        assert L_SHAPE.on_boundary(p)
        q = SQUARE.boundary_point_at(t)
        assert SQUARE.on_boundary(q)


class TestCrossesInterior:
    def test_straight_through(self):
        assert SQUARE.crosses_interior(Point(-5, 5), Point(15, 5))

    def test_along_edge_is_grazing(self):
        assert not SQUARE.crosses_interior(Point(-5, 0), Point(15, 0))
        assert not SQUARE.crosses_interior(Point(0, 0), Point(10, 0))

    def test_diagonal_of_square(self):
        assert SQUARE.crosses_interior(Point(0, 0), Point(10, 10))

    def test_corner_graze(self):
        # passes exactly through corner (0, 10) staying outside
        assert not SQUARE.crosses_interior(Point(-5, 5), Point(5, 15))

    def test_corner_entering(self):
        # enters through corner (0, 0) diagonally
        assert SQUARE.crosses_interior(Point(-5, -5), Point(5, 5))

    def test_fully_outside(self):
        assert not SQUARE.crosses_interior(Point(-5, -5), Point(15, -5))

    def test_endpoint_on_boundary_leaving_outward(self):
        assert not SQUARE.crosses_interior(Point(5, 0), Point(5, -10))

    def test_endpoint_on_boundary_entering(self):
        assert SQUARE.crosses_interior(Point(5, 0), Point(5, 10 - 1e-6))

    def test_chord_between_boundary_points(self):
        assert SQUARE.crosses_interior(Point(0, 5), Point(10, 5))

    def test_l_shape_notch_pass(self):
        # passes through the notch region (outside the L)
        assert not L_SHAPE.crosses_interior(Point(3, 5), Point(5, 3))

    def test_l_shape_through_arm(self):
        assert L_SHAPE.crosses_interior(Point(-1, 1), Point(5, 1))

    def test_segment_far_away(self):
        assert not SQUARE.crosses_interior(Point(100, 100), Point(200, 200))


class TestDistanceToPoint:
    def test_inside_zero(self):
        assert SQUARE.distance_to_point(Point(5, 5)) == 0.0

    def test_boundary_zero(self):
        assert SQUARE.distance_to_point(Point(0, 5)) == 0.0

    def test_outside_axis(self):
        assert SQUARE.distance_to_point(Point(13, 5)) == pytest.approx(3.0)

    def test_outside_corner(self):
        assert SQUARE.distance_to_point(Point(13, 14)) == pytest.approx(5.0)


@given(st.integers(3, 12), st.floats(1.0, 50.0))
def test_regular_polygon_area_formula(sides, radius):
    poly = Polygon.regular(Point(0, 0), radius, sides)
    expected = 0.5 * sides * radius * radius * math.sin(2 * math.pi / sides)
    assert poly.area() == pytest.approx(expected, rel=1e-9)


@given(st.integers(3, 10))
def test_regular_polygon_centroid_is_center(sides):
    poly = Polygon.regular(Point(3, 7), 5.0, sides)
    assert poly.centroid().distance(Point(3, 7)) < 1e-9
