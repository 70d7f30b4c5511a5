"""Unit tests for the PackedScene array layout: vertex interning,
edge/oid packing, per-obstacle MBR rows and edge runs, and free-point
swap-remove."""

import pytest

np = pytest.importorskip("numpy")

from repro.geometry import Point
from repro.visibility.kernel import PackedScene
from tests.conftest import rect_obstacle


@pytest.fixture
def scene():
    packed = PackedScene()
    packed.add_obstacle(rect_obstacle(7, 0, 0, 10, 10))
    packed.add_obstacle(rect_obstacle(9, 20, 0, 30, 10))
    return packed


class TestVertexPacking:
    def test_counts(self, scene):
        assert scene.vertex_count == 8
        assert scene.edge_count == 8
        assert scene.free_count == 0

    def test_coords_match_points(self, scene):
        xy = scene.vertex_xy()
        for i, p in enumerate(scene.event_points()):
            assert (xy[i, 0], xy[i, 1]) == (p.x, p.y)
            assert scene.vertex_id(p) == i

    def test_shared_vertices_interned_once(self):
        packed = PackedScene()
        packed.add_obstacle(rect_obstacle(0, 0, 0, 10, 10))
        packed.add_obstacle(rect_obstacle(1, 10, 0, 20, 10))  # shares 2 corners
        assert packed.vertex_count == 6
        assert packed.edge_count == 8

    def test_edge_oids_tag_owning_obstacle(self, scene):
        oids = scene.edge_oids()
        assert sorted(set(oids.tolist())) == [7, 9]
        assert (oids[:4] == 7).all() and (oids[4:] == 9).all()


class TestFreePoints:
    def test_swap_remove_keeps_slots_dense(self, scene):
        pts = [Point(-1, -1), Point(-2, -2), Point(-3, -3)]
        for p in pts:
            scene.add_free_point(p)
        scene.remove_free_point(pts[0])
        assert scene.free_count == 2
        xy = scene.free_xy()
        remaining = {tuple(row) for row in xy.tolist()}
        assert remaining == {(-2.0, -2.0), (-3.0, -3.0)}
        assert scene.event_points()[-scene.free_count :] == [pts[2], pts[1]]

    def test_remove_unknown_is_noop(self, scene):
        scene.remove_free_point(Point(99, 99))
        assert scene.free_count == 0

    def test_vertex_coincident_free_point_not_duplicated(self, scene):
        scene.add_free_point(Point(0, 0))  # a rect corner
        assert scene.free_count == 0

    def test_vertex_interning_absorbs_existing_free_point(self):
        packed = PackedScene()
        packed.add_free_point(Point(4, 4))
        packed.add_obstacle(rect_obstacle(0, 4, 4, 6, 6))
        assert packed.free_count == 0
        assert packed.vertex_id(Point(4, 4)) is not None


class TestObstacleRows:
    """Per-obstacle MBRs and edge runs follow add / remove, including
    the removal that renumbers vertices."""

    def test_mbrs_and_edge_runs_follow_adds(self, scene):
        assert scene.obstacle_mbrs() == [
            (0.0, 0.0, 10.0, 10.0),
            (20.0, 0.0, 30.0, 10.0),
        ]
        assert scene.obstacle_edge_range(7) == (0, 4)
        assert scene.obstacle_edge_range(9) == (4, 4)
        scene.add_obstacle(rect_obstacle(11, 40, 0, 50, 10))
        assert scene.obstacle_mbrs()[2] == (40.0, 0.0, 50.0, 10.0)
        assert scene.obstacle_edge_range(11) == (8, 4)

    def test_remove_compacts_rows_and_shifts_edge_runs(self, scene):
        scene.add_obstacle(rect_obstacle(11, 40, 0, 50, 10))
        scene.remove_obstacle(7)  # first vertices go: the renumbering path
        assert scene.obstacle_mbrs() == [
            (20.0, 0.0, 30.0, 10.0),
            (40.0, 0.0, 50.0, 10.0),
        ]
        assert scene.obstacle_edge_range(9) == (0, 4)
        assert scene.obstacle_edge_range(11) == (4, 4)
        with pytest.raises(KeyError):
            scene.obstacle_edge_range(7)
        # Each run still names its own obstacle's edges, in polygon order.
        ea, eb = scene.edge_endpoints()
        points = scene.event_points()
        for obs in (rect_obstacle(9, 20, 0, 30, 10), rect_obstacle(11, 40, 0, 50, 10)):
            start, count = scene.obstacle_edge_range(obs.oid)
            run = [
                (points[a], points[b])
                for a, b in zip(
                    ea[start : start + count].tolist(),
                    eb[start : start + count].tolist(),
                )
            ]
            assert run == list(obs.polygon.edges())
            assert (scene.edge_oids()[start : start + count] == obs.oid).all()

    def test_remove_keeping_shared_vertices(self):
        packed = PackedScene()
        packed.add_obstacle(rect_obstacle(0, 0, 0, 10, 10))
        packed.add_obstacle(rect_obstacle(1, 10, 0, 20, 10))  # shares 2 corners
        packed.remove_obstacle(0)
        assert packed.obstacle_mbrs() == [(10.0, 0.0, 20.0, 10.0)]
        assert packed.obstacle_edge_range(1) == (0, 4)
        assert packed.vertex_count == 4

    def test_mbr_holders_match_contains_point(self, scene):
        probes = {
            Point(5, 5): [7],      # inside
            Point(10, 10): [7],    # a corner: the MBR is closed
            Point(15, 5): [],      # between the boxes
            Point(20, 0): [9],     # on an edge
            Point(25, 11): [],
            Point(5, -0.5): [],
        }
        for p, oids in probes.items():
            assert [obs.oid for obs in scene.mbr_holders(p)] == oids
        scene.remove_obstacle(7)
        assert scene.mbr_holders(Point(5, 5)) == []
        assert [obs.oid for obs in scene.mbr_holders(Point(20, 0))] == [9]

    def test_graph_keeps_rows_in_step(self):
        """Through the graph's own hooks: the packed rows equal the
        graph's obstacle set after inserts and deletes."""
        from repro.visibility import VisibilityGraph

        obstacles = [
            rect_obstacle(0, 0, 0, 10, 10),
            rect_obstacle(1, 20, 0, 30, 10),
            rect_obstacle(2, 0, 20, 10, 30),
        ]
        g = VisibilityGraph.build([Point(15, 15)], obstacles[:2], method="numpy-kernel")
        packed = g.packed_scene()
        g.add_obstacle(obstacles[2])
        g.remove_obstacle(0)
        assert packed is g.packed_scene()
        mbrs = [
            (o.mbr.minx, o.mbr.miny, o.mbr.maxx, o.mbr.maxy)
            for o in g.scene_obstacles()
        ]
        assert packed.obstacle_mbrs() == mbrs
        assert g.visible_from_many([Point(5, 25)]) == [[]]  # strictly inside
