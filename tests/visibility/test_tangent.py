"""Tests for tangent visibility graphs [PV95]."""

import math
import random

import pytest

from repro.errors import GeometryError
from repro.geometry import Point, Polygon
from repro.model import Obstacle
from repro.visibility import VisibilityGraph
from repro.visibility.tangent import is_tangent_at, prune_to_tangent
from tests.conftest import random_disjoint_rects, random_free_points, rect_obstacle
from tests.reference_field import graph_distance


class TestIsTangentAt:
    BOX = rect_obstacle(0, 0, 0, 10, 10)

    def test_boundary_edge_is_tangent(self):
        assert is_tangent_at(Point(0, 0), Point(10, 0), self.BOX)

    def test_collinear_with_edge_is_tangent(self):
        # the line through (0,0) toward (-5,0) contains neighbour (10,0)
        assert is_tangent_at(Point(0, 0), Point(-5, 0), self.BOX)

    def test_supporting_line_is_tangent(self):
        # both neighbours are strictly left of the line to (5, -5)
        assert is_tangent_at(Point(0, 0), Point(5, -5), self.BOX)

    def test_separating_line_not_tangent(self):
        # the diagonal direction separates neighbours (10,0) and (0,10)
        assert not is_tangent_at(Point(0, 0), Point(-5, -5), self.BOX)
        assert not is_tangent_at(Point(0, 0), Point(20, 15), self.BOX)

    def test_non_vertex_rejected(self):
        with pytest.raises(GeometryError):
            is_tangent_at(Point(5, 5), Point(0, 0), self.BOX)


class TestPruneToTangent:
    def test_nonconvex_rejected(self):
        l_shape = Obstacle(
            0,
            Polygon(
                [
                    Point(0, 0), Point(4, 0), Point(4, 2),
                    Point(2, 2), Point(2, 4), Point(0, 4),
                ]
            ),
        )
        g = VisibilityGraph.build([], [l_shape])
        with pytest.raises(GeometryError):
            prune_to_tangent(g)

    def test_prunes_edges_but_preserves_distances(self):
        rng = random.Random(17)
        obstacles = random_disjoint_rects(rng, 10)
        points = random_free_points(rng, 6, obstacles)
        full = VisibilityGraph.build(points, obstacles)
        pruned = VisibilityGraph.build(points, obstacles)
        removed = prune_to_tangent(pruned)
        assert removed > 0
        assert pruned.edge_count + removed == full.edge_count
        for a in points[:3]:
            for b in points[3:]:
                d_full = graph_distance(full, a, b)
                d_pruned = graph_distance(pruned, a, b)
                assert d_pruned == pytest.approx(d_full), (a, b)

    def test_boundary_edges_survive(self):
        box = rect_obstacle(0, 2, 2, 8, 8)
        g = VisibilityGraph.build([], [box])
        prune_to_tangent(g)
        corners = box.polygon.vertices
        for i, u in enumerate(corners):
            v = corners[(i + 1) % 4]
            assert v in g.neighbors(u)

    def test_free_point_edges_to_tangent_corners_only(self):
        box = rect_obstacle(0, 2, 2, 8, 8)
        p = Point(0, 0)
        g = VisibilityGraph.build([p], [box])
        prune_to_tangent(g)
        nbrs = set(g.neighbors(p))
        # (2,8) and (8,2) are the silhouette (tangent) corners from
        # (0,0); the near corner (2,2) is visible, but the supporting
        # line separates its polygon neighbours (no shortest path ever
        # bends there), so the edge is pruned.
        assert Point(2, 8) in nbrs
        assert Point(8, 2) in nbrs
        assert Point(2, 2) not in nbrs
        assert Point(8, 8) not in nbrs  # not even visible

    def test_shortest_path_around_hexagon(self):
        hexagon = Obstacle(0, Polygon.regular(Point(0, 0), 5.0, 6))
        a, b = Point(-10, 0), Point(10, 0)
        full = VisibilityGraph.build([a, b], [hexagon])
        pruned = VisibilityGraph.build([a, b], [hexagon])
        prune_to_tangent(pruned)
        assert graph_distance(pruned, a, b) == pytest.approx(
            graph_distance(full, a, b)
        )
        assert graph_distance(pruned, a, b) > 20.0
