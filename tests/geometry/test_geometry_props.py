"""Cross-cutting geometry property tests.

These pin down relationships *between* the primitives that the
visibility layer depends on (e.g. `crosses_interior` versus
containment and proper intersection), beyond the per-class unit tests.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    Polygon,
    Rect,
    midpoint,
    on_segment,
    point_segment_distance,
    segment_intersection_params,
    segments_properly_intersect,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

box_points = st.builds(
    Point,
    st.floats(-30, 30, allow_nan=False),
    st.floats(-30, 30, allow_nan=False),
)

SQUARE = Polygon.from_rect(Rect(0, 0, 10, 10))


@SETTINGS
@given(box_points, box_points)
def test_crosses_interior_symmetric(a, b):
    if a == b:
        return
    assert SQUARE.crosses_interior(a, b) == SQUARE.crosses_interior(b, a)


@SETTINGS
@given(box_points, box_points)
def test_both_strictly_inside_implies_crossing(a, b):
    if a == b:
        return
    if SQUARE.contains(a) and SQUARE.contains(b):
        assert SQUARE.crosses_interior(a, b)


@SETTINGS
@given(box_points, box_points)
def test_proper_edge_crossing_implies_interior_crossing(a, b):
    # Exact predicates: this holds however close to the boundary an
    # endpoint lies (e.g. Point(0, 4e-54) next to the origin corner).
    for e1, e2 in SQUARE.edges():
        if segments_properly_intersect(a, b, e1, e2):
            # crossing an edge transversally enters the interior
            assert SQUARE.crosses_interior(a, b)
            return


@SETTINGS
@given(box_points, box_points)
def test_interior_crossing_requires_boundary_contact_or_containment(a, b):
    if a == b:
        return
    if SQUARE.crosses_interior(a, b):
        touches = any(
            segment_intersection_params(a, b, e1, e2)
            for e1, e2 in SQUARE.edges()
        )
        inside = SQUARE.contains_or_boundary(a) or SQUARE.contains_or_boundary(b)
        assert touches or inside


@SETTINGS
@given(box_points, box_points)
def test_midpoint_on_segment_iff_exactly_collinear(a, b):
    m = midpoint(a, b)
    ax, ay, bx, by, mx, my = map(Fraction, (a.x, a.y, b.x, b.y, m.x, m.y))
    assert on_segment(a, b, m) == ((bx - ax) * (my - ay) == (by - ay) * (mx - ax))


@SETTINGS
@given(box_points, box_points, st.floats(0.0, 1.0, allow_nan=False))
def test_interpolated_point_on_segment(a, b, t):
    # The interpolated point is rounded, so it lies on the segment
    # exactly or within rounding distance of it.
    from repro.geometry import point_segment_distance

    p = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    assert on_segment(a, b, p) or point_segment_distance(p, a, b) < 1e-12


@SETTINGS
@given(
    st.floats(-20, 20, allow_nan=False),
    st.floats(-20, 20, allow_nan=False),
    st.floats(0.5, 15, allow_nan=False),
    st.floats(0.5, 15, allow_nan=False),
)
def test_rect_polygon_containment_agrees(x, y, w, h):
    rect = Rect(x, y, x + w, y + h)
    poly = Polygon.from_rect(rect)
    probe = Point(x + w / 3, y + h / 3)
    assert poly.contains(probe) == (
        rect.contains_point(probe)
        and probe.x not in (rect.minx, rect.maxx)
        and probe.y not in (rect.miny, rect.maxy)
    )


@SETTINGS
@given(box_points)
def test_distance_zero_iff_inside_or_boundary(p):
    d = SQUARE.distance_to_point(p)
    if SQUARE.contains_or_boundary(p):
        assert d == 0.0
    else:
        assert d > 0.0


@SETTINGS
@given(st.integers(3, 9), st.floats(1.0, 10.0, allow_nan=False))
def test_regular_polygon_boundary_points_on_boundary(sides, radius):
    """A slanted edge's point is rounded off it (exact predicates see
    that) by no more than rounding; an axis-parallel edge's is on it."""
    poly = Polygon.regular(Point(0, 0), radius, sides)
    box = Polygon.from_rect(Rect(-radius, -1.0, radius, 1.0))
    for i in range(8):
        p = poly.boundary_point_at(i / 8.0)
        gap = min(point_segment_distance(p, a, b) for a, b in poly.edges())
        assert gap <= 1e-15 * radius
        q = box.boundary_point_at(i / 8.0)
        assert box.on_boundary(q)
        assert not box.contains(q)
