"""Tests for the dynamic visibility graph (add/delete operations)."""

import random

import numpy as np
import pytest

from repro.errors import QueryError
from repro.geometry import Point, Polygon, Rect
from repro.model import Obstacle
from repro.visibility import VisibilityGraph, is_visible
from tests.conftest import random_disjoint_rects, random_free_points, rect_obstacle
from tests.reference_field import tangent_edges


def _adjacency(graph: VisibilityGraph) -> set[tuple[Point, Point]]:
    return {(u, v) for u in graph.nodes() for v in graph.neighbors(u)}


class TestBuild:
    def test_empty(self):
        g = VisibilityGraph.build([], [])
        assert g.node_count == 0
        assert g.edge_count == 0

    def test_points_only_complete_graph(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
        g = VisibilityGraph.build(pts, [])
        assert g.edge_count == 3
        assert set(g.neighbors(pts[0])) == {pts[1], pts[2]}

    def test_single_rect_obstacle(self):
        g = VisibilityGraph.build([], [rect_obstacle(0, 0, 0, 10, 10)])
        assert g.node_count == 4
        # boundary edges only; diagonals excluded
        assert g.edge_count == 4

    def test_edge_weights_are_distances(self):
        pts = [Point(0, 0), Point(3, 4)]
        g = VisibilityGraph.build(pts, [])
        assert g.neighbors(pts[0])[pts[1]] == pytest.approx(5.0)

    def test_symmetry(self):
        rng = random.Random(9)
        obstacles = random_disjoint_rects(rng, 8)
        points = random_free_points(rng, 5, obstacles)
        g = VisibilityGraph.build(points, obstacles)
        for u in g.nodes():
            for v, w in g.neighbors(u).items():
                assert g.neighbors(v)[u] == w

    def test_neighbors_unknown_node_raises(self):
        g = VisibilityGraph.build([Point(0, 0)], [])
        with pytest.raises(QueryError):
            g.neighbors(Point(42, 42))

    def test_duplicate_points_collapse(self):
        g = VisibilityGraph.build([Point(1, 1), Point(1, 1)], [])
        assert g.node_count == 1


class TestBulkInstall:
    """`build` decides every tangent node pair in one backend call and
    installs the visible ones in one step; the result must be
    indistinguishable from anchoring node by node and setting each pair
    the tangent rule keeps, in pair order."""

    @pytest.mark.parametrize("method", ["numpy-kernel", "naive"])
    def test_build_equals_per_source_build(self, method):
        rng = random.Random(2024)
        obstacles = random_disjoint_rects(rng, 7)
        obstacles.append(rect_obstacle(99, 90, 90, 95, 95))
        obstacles.append(rect_obstacle(100, 95, 90, 99, 95))  # shares an edge
        points = random_free_points(rng, 5, obstacles)
        built = VisibilityGraph.build(points, obstacles, method=method)

        reference = VisibilityGraph(method=method)
        for obs in obstacles:
            reference._register_obstacle(obs)
        for p in points:
            reference._register_free_point(p)
        keep = tangent_edges(reference)
        pairs = []
        for node in list(reference.nodes()):
            u = reference.node_id(node)
            seen = reference.visible_from_many([node])[0]
            for v in sorted(map(reference.node_id, seen)):
                if v > u and frozenset((node, reference._points[v])) in keep:
                    pairs.append((u, v))
        reference._install_pairs(*np.array(pairs).T)

        assert built.snapshot_parts() == reference.snapshot_parts()
        assert list(built.nodes()) == list(reference.nodes())
        for u in reference.nodes():
            # Same neighbours, same weights, same dict insertion order
            # (the order the CSR freeze copies).
            assert list(built.neighbors(u).items()) == list(
                reference.neighbors(u).items()
            )

    def test_install_bumps_structure_revision_once(self):
        g = VisibilityGraph.build([Point(0, 0), Point(1, 0), Point(0, 1)], [])
        before = g.structure_revision
        g._install_pairs(np.array([0, 0]), np.array([1, 2]))
        assert g.structure_revision == before + 1


class TestAddObstacle:
    def test_add_blocks_existing_edge(self):
        a, b = Point(0, 0), Point(10, 0)
        g = VisibilityGraph.build([a, b], [])
        assert b in g.neighbors(a)
        g.add_obstacle(rect_obstacle(7, 4, -3, 6, 3))
        assert b not in g.neighbors(a)
        assert g.has_obstacle(7)

    def test_add_duplicate_returns_false(self):
        g = VisibilityGraph.build([], [])
        obs = rect_obstacle(1, 0, 0, 2, 2)
        assert g.add_obstacle(obs)
        assert not g.add_obstacle(obs)

    def test_incremental_equals_batch(self):
        rng = random.Random(4)
        obstacles = random_disjoint_rects(rng, 10)
        points = random_free_points(rng, 5, obstacles)
        incremental = VisibilityGraph.build(points, obstacles[:3])
        for obs in obstacles[3:]:
            incremental.add_obstacle(obs)
        batch = VisibilityGraph.build(points, obstacles)
        assert _adjacency(incremental) == _adjacency(batch)

    def test_obstacle_ids_tracked(self):
        obstacles = [rect_obstacle(i, i * 10, 0, i * 10 + 5, 5) for i in range(3)]
        g = VisibilityGraph.build([], obstacles[:2])
        assert g.obstacle_ids() == {0, 1}
        g.add_obstacle(obstacles[2])
        assert g.obstacle_ids() == {0, 1, 2}

    def test_boundary_membership_updated_for_entities(self):
        p = Point(5, 0)
        g = VisibilityGraph.build([p], [])
        g.add_obstacle(rect_obstacle(0, 0, 0, 10, 10))  # p now on its boundary
        far = Point(5, 20)
        g.add_entity(far)
        # p -> far crosses the interior, must not be an edge
        assert far not in g.neighbors(p)

    @pytest.mark.parametrize("method", ["numpy-kernel", "naive"])
    def test_off_graph_probe_on_a_shared_edge(self, method):
        """An off-graph probe on the side two touching rectangles share,
        a hair off it, strictly inside, or on their shared corner sees
        exactly the nodes the pairwise oracle says — before and after
        one of the two leaves."""
        left = rect_obstacle(0, 0, 0, 10, 10)
        right = rect_obstacle(1, 10, 0, 20, 10)
        far = rect_obstacle(2, 40, 0, 50, 10)
        g = VisibilityGraph.build([], [left, right, far], method=method)
        probes = [
            Point(10, 4),
            Point(10, 10 + 5e-10),
            Point(-5e-10, 4),
            Point(10, 10 + 1e-6),
            Point(15, 4),  # strictly inside
            Point(10, 10),  # a node
        ]
        for __ in range(2):
            walls = g.scene_obstacles()
            seen = g.visible_from_many(probes)
            for p, visible in zip(probes, seen):
                assert visible == [
                    v for v in g.nodes() if v != p and is_visible(p, v, walls)
                ], p
            assert seen[4] == []
            g.remove_obstacle(left.oid)


class TestAddDeleteEntity:
    def test_add_entity_connects(self):
        g = VisibilityGraph.build([Point(0, 0)], [])
        assert g.add_entity(Point(5, 5))
        assert Point(5, 5) in g.neighbors(Point(0, 0))

    def test_add_existing_returns_false(self):
        g = VisibilityGraph.build([Point(0, 0)], [])
        assert not g.add_entity(Point(0, 0))

    def test_add_entity_coinciding_with_vertex(self):
        g = VisibilityGraph.build([], [rect_obstacle(0, 0, 0, 4, 4)])
        assert not g.add_entity(Point(0, 0))  # already a vertex node
        assert g.node_count == 4

    def test_delete_entity(self):
        a, b = Point(0, 0), Point(5, 5)
        g = VisibilityGraph.build([a, b], [])
        assert g.delete_entity(b)
        assert not g.has_node(b)
        assert b not in g.neighbors(a)

    def test_delete_vertex_refused(self):
        g = VisibilityGraph.build([], [rect_obstacle(0, 0, 0, 4, 4)])
        assert not g.delete_entity(Point(0, 0))
        assert g.node_count == 4

    def test_delete_unknown_returns_false(self):
        g = VisibilityGraph.build([], [])
        assert not g.delete_entity(Point(9, 9))

    def test_add_delete_roundtrip_restores_adjacency(self):
        rng = random.Random(11)
        obstacles = random_disjoint_rects(rng, 6)
        points = random_free_points(rng, 4, obstacles)
        g = VisibilityGraph.build(points, obstacles)
        before = _adjacency(g)
        extra = random_free_points(random.Random(99), 3, obstacles)
        for p in extra:
            g.add_entity(p)
        for p in extra:
            g.delete_entity(p)
        assert _adjacency(g) == before

    def test_free_points_tracking(self):
        a = Point(0, 0)
        g = VisibilityGraph.build([a], [rect_obstacle(0, 5, 5, 8, 8)])
        assert g.free_points() == {a}
