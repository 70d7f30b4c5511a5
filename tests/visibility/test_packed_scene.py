"""Unit tests for the PackedScene array layout: edge endpoints as node
ids, edge/oid packing, per-obstacle MBR rows and edge runs, and the
graph's node table laid out as the sweep's events."""

import pytest

np = pytest.importorskip("numpy")

from repro.geometry import Point
from repro.visibility import VisibilityGraph
from repro.visibility.kernel import PackedScene
from tests.conftest import rect_obstacle


class _Table:
    """A node table the way a graph keeps one: points by id, and the
    ``Point -> id`` dict."""

    def __init__(self):
        self.points, self.ids = [], {}

    def add(self, *points):
        for p in points:
            if p not in self.ids:
                self.ids[p] = len(self.points)
                self.points.append(p)


def _packed(*obstacles):
    table = _Table()
    packed = PackedScene(table.points)
    for obs in obstacles:
        table.add(*obs.polygon.vertices)
        packed.add_obstacle(obs, table.ids)
    return packed, table


@pytest.fixture
def scene():
    return _packed(rect_obstacle(7, 0, 0, 10, 10), rect_obstacle(9, 20, 0, 30, 10))


def _runs(packed, points, oids):
    """Per obstacle id, its edge run as point pairs."""
    ea, eb = packed.edge_endpoints()
    out = {}
    for oid in oids:
        start, count = packed.obstacle_edge_range(oid)
        out[oid] = [
            (points[a], points[b])
            for a, b in zip(
                ea[start : start + count].tolist(), eb[start : start + count].tolist()
            )
        ]
    return out


class TestEdgePacking:
    def test_counts(self, scene):
        packed, __ = scene
        assert packed.edge_count == 8
        assert packed.obstacle_count == 2

    def test_events_are_the_node_table(self, scene):
        packed, table = scene
        table.add(Point(-1, -1))  # a free point: an event, no edge
        xy, points, ends = packed.sweep_arrays()
        assert points is table.points
        assert xy.shape == (2, 9)
        for i, p in enumerate(table.points):
            assert (xy[0, i], xy[1, i]) == (p.x, p.y)
        assert ends.shape == (2, 8) and ends.max() < 8

    def test_shared_vertices_are_one_node(self):
        packed, table = _packed(
            rect_obstacle(0, 0, 0, 10, 10), rect_obstacle(1, 10, 0, 20, 10)
        )  # shares 2 corners
        assert len(table.points) == 6
        assert packed.edge_count == 8
        assert set(packed.edge_endpoints()[0].tolist()) == set(range(6))

    def test_edge_oids_tag_owning_obstacle(self, scene):
        packed, __ = scene
        oids = packed.edge_oids()
        assert sorted(set(oids.tolist())) == [7, 9]
        assert (oids[:4] == 7).all() and (oids[4:] == 9).all()

    def test_runs_name_each_obstacles_edges_in_polygon_order(self, scene):
        packed, table = scene
        runs = _runs(packed, table.points, (7, 9))
        assert runs[7] == list(rect_obstacle(7, 0, 0, 10, 10).polygon.edges())
        assert runs[9] == list(rect_obstacle(9, 20, 0, 30, 10).polygon.edges())


class TestNodeTable:
    """Through the graph: a node leaving the table renumbers the edge
    endpoints, and the layout follows the table."""

    def test_a_leaving_node_renumbers_endpoints(self):
        obstacles = [rect_obstacle(0, 0, 0, 10, 10), rect_obstacle(1, 20, 0, 30, 10)]
        g = VisibilityGraph.build([Point(15, 15)], obstacles[:1], method="numpy-kernel")
        packed = g.packed_scene()
        g.add_obstacle(obstacles[1])  # its corners follow the free point
        assert g.delete_entity(Point(15, 15))
        points = list(g.nodes())
        assert _runs(packed, points, (0, 1)) == {
            o.oid: list(o.polygon.edges()) for o in obstacles
        }
        xy, __, __ = packed.sweep_arrays()
        assert xy.T.tolist() == [[p.x, p.y] for p in points]

    def test_vertex_coincident_free_point_is_one_event(self):
        g = VisibilityGraph.build(
            [Point(0, 0)], [rect_obstacle(0, 0, 0, 10, 10)], method="numpy-kernel"
        )
        assert g.packed_scene().sweep_arrays()[0].shape == (2, 4)

    def test_free_point_promoted_to_a_vertex_keeps_its_id(self):
        g = VisibilityGraph(method="numpy-kernel")
        g.add_entity(Point(4, 4))
        packed = g.packed_scene()
        g.add_obstacle(rect_obstacle(0, 4, 4, 6, 6))
        assert g.node_id(Point(4, 4)) == 0
        assert 0 in packed.edge_endpoints()[0].tolist()
        assert packed.sweep_arrays()[0].shape == (2, 4)


class TestObstacleRows:
    """Per-obstacle MBRs and edge runs follow add / remove."""

    def test_mbrs_and_edge_runs_follow_adds(self, scene):
        packed, table = scene
        assert packed.obstacle_mbrs() == [
            (0.0, 0.0, 10.0, 10.0),
            (20.0, 0.0, 30.0, 10.0),
        ]
        assert packed.obstacle_edge_range(7) == (0, 4)
        assert packed.obstacle_edge_range(9) == (4, 4)
        obs = rect_obstacle(11, 40, 0, 50, 10)
        table.add(*obs.polygon.vertices)
        packed.add_obstacle(obs, table.ids)
        assert packed.obstacle_mbrs()[2] == (40.0, 0.0, 50.0, 10.0)
        assert packed.obstacle_edge_range(11) == (8, 4)

    def test_remove_compacts_rows_and_shifts_edge_runs(self, scene):
        packed, table = scene
        obs = rect_obstacle(11, 40, 0, 50, 10)
        table.add(*obs.polygon.vertices)
        packed.add_obstacle(obs, table.ids)
        packed.remove_obstacle(7)
        assert packed.obstacle_mbrs() == [
            (20.0, 0.0, 30.0, 10.0),
            (40.0, 0.0, 50.0, 10.0),
        ]
        assert packed.obstacle_edge_range(9) == (0, 4)
        assert packed.obstacle_edge_range(11) == (4, 4)
        with pytest.raises(KeyError):
            packed.obstacle_edge_range(7)
        # Each run still names its own obstacle's edges, in polygon order.
        runs = _runs(packed, table.points, (9, 11))
        for o in (rect_obstacle(9, 20, 0, 30, 10), obs):
            assert runs[o.oid] == list(o.polygon.edges())
            start, count = packed.obstacle_edge_range(o.oid)
            assert (packed.edge_oids()[start : start + count] == o.oid).all()

    def test_remove_unknown_is_noop(self, scene):
        packed, __ = scene
        packed.remove_obstacle(99)
        assert packed.edge_count == 8

    def test_remove_keeping_shared_vertices(self):
        packed, __ = _packed(
            rect_obstacle(0, 0, 0, 10, 10), rect_obstacle(1, 10, 0, 20, 10)
        )  # shares 2 corners
        packed.remove_obstacle(0)
        assert packed.obstacle_mbrs() == [(10.0, 0.0, 20.0, 10.0)]
        assert packed.obstacle_edge_range(1) == (0, 4)
        assert sorted(set(packed.edge_endpoints()[0].tolist())) == [1, 2, 4, 5]

    def test_mbr_holders_match_contains_point(self, scene):
        packed, __ = scene
        probes = {
            Point(5, 5): [7],      # inside
            Point(10, 10): [7],    # a corner: the MBR is closed
            Point(15, 5): [],      # between the boxes
            Point(20, 0): [9],     # on an edge
            Point(25, 11): [],
            Point(5, -0.5): [],
        }
        for p, oids in probes.items():
            assert [obs.oid for obs in packed.mbr_holders(p)] == oids
        packed.remove_obstacle(7)
        assert packed.mbr_holders(Point(5, 5)) == []
        assert [obs.oid for obs in packed.mbr_holders(Point(20, 0))] == [9]

    def test_graph_keeps_rows_in_step(self):
        """Through the graph's own hooks: the packed rows equal the
        graph's obstacle set after inserts and deletes."""
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
