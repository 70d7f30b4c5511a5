"""Unit and property tests for repro.geometry.segment predicates."""

from fractions import Fraction

import pytest
from hypothesis import given

from repro.geometry import (
    CCW,
    COLLINEAR,
    CW,
    Point,
    cross,
    on_segment,
    orient,
    point_segment_distance,
    segment_intersection_params,
    segments_intersect,
    segments_properly_intersect,
)
from tests.strategies import points

O = Point(0, 0)
X = Point(10, 0)
Y = Point(0, 10)


def _exact_orient(a: Point, b: Point, c: Point) -> int:
    ax, ay, bx, by, cx, cy = map(Fraction, (a.x, a.y, b.x, b.y, c.x, c.y))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


class TestOrientation:
    def test_ccw_left_turn(self):
        assert orient(O, X, Point(5, 5)) == CCW

    def test_ccw_right_turn(self):
        assert orient(O, X, Point(5, -5)) == CW

    def test_collinear(self):
        assert orient(O, X, Point(20, 0)) == COLLINEAR
        assert orient(O, X, Point(-7, 0)) == COLLINEAR

    def test_near_collinear_is_decided_exactly(self):
        assert orient(O, Point(1000, 0), Point(500, 1e-8)) == CCW
        assert orient(O, Point(1000, 0), Point(500, -5e-324)) == CW

    def test_float_determinant_cancels_to_the_wrong_sign(self):
        """Three points on the line ``y = x`` one ulp apart: the float
        determinant reads rounding noise, the exact sign is 0 or the
        nudge's own."""
        a = Point(0.1, 0.1)
        b = Point(0.3, 0.3)
        c = Point(0.7, 0.7)
        assert orient(a, b, c) == _exact_orient(a, b, c) == COLLINEAR
        nudged = Point(0.7, 0.7000000000000001)
        assert orient(a, b, nudged) == _exact_orient(a, b, nudged) == CCW

    @given(points, points, points)
    def test_equals_the_rational_sign(self, a, b, c):
        assert orient(a, b, c) == _exact_orient(a, b, c)

    def test_cross_sign(self):
        assert cross(O, X, Y) > 0
        assert cross(O, Y, X) < 0

    @given(points, points, points)
    def test_antisymmetry(self, a, b, c):
        assert orient(a, b, c) == -orient(a, c, b)

    @given(points, points)
    def test_degenerate_is_collinear(self, a, b):
        assert orient(a, a, b) == COLLINEAR
        assert orient(a, b, b) == COLLINEAR


class TestOnSegment:
    def test_midpoint_on(self):
        assert on_segment(O, X, Point(5, 0))

    def test_endpoints_on(self):
        assert on_segment(O, X, O)
        assert on_segment(O, X, X)

    def test_beyond_not_on(self):
        assert not on_segment(O, X, Point(11, 0))
        assert not on_segment(O, X, Point(-1, 0))

    def test_off_line_not_on(self):
        assert not on_segment(O, X, Point(5, 1))

    @given(points, points)
    def test_rounded_midpoint_on_iff_exactly_on(self, a, b):
        m = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
        assert on_segment(a, b, m) == (_exact_orient(a, b, m) == COLLINEAR)

    def test_a_hair_off_is_off(self):
        assert on_segment(O, X, Point(5, 0))
        assert not on_segment(O, X, Point(5, 5e-324))


class TestProperIntersection:
    def test_crossing(self):
        assert segments_properly_intersect(
            Point(0, 0), Point(10, 10), Point(0, 10), Point(10, 0)
        )

    def test_t_junction_not_proper(self):
        # touches at an endpoint of the second segment
        assert not segments_properly_intersect(
            Point(0, 0), Point(10, 0), Point(5, 0), Point(5, 10)
        )

    def test_shared_endpoint_not_proper(self):
        assert not segments_properly_intersect(O, X, X, Point(20, 10))

    def test_collinear_overlap_not_proper(self):
        assert not segments_properly_intersect(O, X, Point(5, 0), Point(20, 0))

    def test_disjoint(self):
        assert not segments_properly_intersect(O, X, Point(0, 5), Point(10, 5))

    @given(points, points, points, points)
    def test_symmetry(self, a, b, c, d):
        assert segments_properly_intersect(a, b, c, d) == segments_properly_intersect(
            c, d, a, b
        )


class TestClosedIntersection:
    def test_touching_counts(self):
        assert segments_intersect(Point(0, 0), Point(10, 0), Point(5, 0), Point(5, 10))

    def test_shared_endpoint_counts(self):
        assert segments_intersect(O, X, X, Point(20, 10))

    def test_disjoint_parallel(self):
        assert not segments_intersect(O, X, Point(0, 5), Point(10, 5))

    @given(points, points, points, points)
    def test_symmetry(self, a, b, c, d):
        assert segments_intersect(a, b, c, d) == segments_intersect(c, d, a, b)

    @given(points, points)
    def test_self_intersection(self, a, b):
        assert segments_intersect(a, b, a, b)


class TestIntersectionParams:
    def test_proper_cross_param(self):
        params = segment_intersection_params(
            Point(0, 0), Point(10, 0), Point(5, -5), Point(5, 5)
        )
        assert params == [pytest.approx(0.5)]

    def test_no_intersection(self):
        assert (
            segment_intersection_params(O, X, Point(0, 1), Point(10, 1)) == []
        )

    def test_collinear_overlap_interval(self):
        params = segment_intersection_params(
            Point(0, 0), Point(10, 0), Point(4, 0), Point(20, 0)
        )
        assert params == [pytest.approx(0.4), pytest.approx(1.0)]

    def test_collinear_disjoint(self):
        assert (
            segment_intersection_params(O, X, Point(11, 0), Point(20, 0)) == []
        )

    def test_touch_at_endpoint(self):
        params = segment_intersection_params(O, X, X, Point(20, 5))
        assert params == [pytest.approx(1.0)]

    def test_degenerate_first_segment(self):
        assert segment_intersection_params(O, O, Point(-1, 0), Point(1, 0)) == [0.0]
        assert segment_intersection_params(O, O, Point(1, 1), Point(2, 2)) == []


class TestPointSegmentDistance:
    def test_projection_interior(self):
        assert point_segment_distance(Point(5, 3), O, X) == pytest.approx(3.0)

    def test_clamped_to_endpoint(self):
        assert point_segment_distance(Point(13, 4), O, X) == pytest.approx(5.0)

    def test_degenerate_segment(self):
        assert point_segment_distance(Point(3, 4), O, O) == pytest.approx(5.0)

    def test_on_segment_zero(self):
        assert point_segment_distance(Point(5, 0), O, X) == 0.0

    @given(points, points, points)
    def test_lower_bounds_endpoint_distance(self, p, a, b):
        d = point_segment_distance(p, a, b)
        assert d <= p.distance(a) + 1e-9
        assert d <= p.distance(b) + 1e-9
