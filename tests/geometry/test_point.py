"""Unit and property tests for repro.geometry.point."""

import math

import pytest
from hypothesis import given

from repro.geometry import Point, distance, distance_sq, midpoint
from tests.strategies import points


class TestPointBasics:
    def test_coordinates_are_floats(self):
        p = Point(1, 2)
        assert isinstance(p.x, float)
        assert isinstance(p.y, float)

    def test_equality_is_exact(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert Point(1.0, 2.0) != Point(1.0, 2.0000001)

    def test_hashable_and_usable_as_dict_key(self):
        d = {Point(1, 2): "a", Point(3, 4): "b"}
        assert d[Point(1, 2)] == "a"

    def test_immutable(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 5.0

    def test_two_slots_only(self):
        # Every obstacle vertex and entity of a dataset is a Point
        # (525k obstacle vertices at the paper's scale), so a slot costs
        # memory per point: caching the hash in a third one raised the
        # paper-cold benchmark's peak RSS from 241 to 280 MB (+16 %).
        # Graphs key their nodes by int id instead
        # (repro.visibility.graph).
        assert Point.__slots__ == ("x", "y")

    def test_ordering_lexicographic(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 2) < Point(1, 3)
        assert not Point(2, 0) < Point(1, 5)

    def test_iteration_and_tuple(self):
        p = Point(3, 4)
        assert tuple(p) == (3.0, 4.0)
        assert p.as_tuple() == (3.0, 4.0)

    def test_repr_contains_coordinates(self):
        assert "3" in repr(Point(3, 4)) and "4" in repr(Point(3, 4))

    def test_not_equal_to_other_types(self):
        assert Point(1, 2) != (1.0, 2.0)


class TestPointArithmetic:
    def test_add_sub(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_scalar_multiplication(self):
        assert Point(1, 2) * 3 == Point(3, 6)
        assert 3 * Point(1, 2) == Point(3, 6)

    def test_norm(self):
        assert Point(3, 4).norm() == pytest.approx(5.0)


class TestDistances:
    def test_distance_345(self):
        assert Point(0, 0).distance(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_sq(self):
        assert Point(0, 0).distance_sq(Point(3, 4)) == pytest.approx(25.0)

    def test_module_level_helpers(self):
        a, b = Point(1, 1), Point(4, 5)
        assert distance(a, b) == pytest.approx(5.0)
        assert distance_sq(a, b) == pytest.approx(25.0)

    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(2, 4)) == Point(1, 2)

    @given(points, points)
    def test_distance_symmetry(self, a, b):
        assert a.distance(b) == pytest.approx(b.distance(a))

    @given(points)
    def test_distance_to_self_zero(self, p):
        assert p.distance(p) == 0.0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9

    @given(points, points)
    def test_distance_sq_consistent(self, a, b):
        assert math.sqrt(distance_sq(a, b)) == pytest.approx(distance(a, b))
