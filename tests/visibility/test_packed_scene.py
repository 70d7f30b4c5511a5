"""Unit tests for the PackedScene array layout: edge endpoints as node
ids, one run of edges per obstacle in polygon order, the obstacles as
the exact predicate reads them, and the graph's node table laid out as
the array passes' rows."""

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


def _edges(packed, points):
    """The packed edges as point pairs, in row order."""
    ea, eb = packed.edge_endpoints()
    return [(points[a], points[b]) for a, b in zip(ea.tolist(), eb.tolist())]


def _mbrs(packed):
    """The packed obstacles' MBR rows, as the exact predicate reads them."""
    return [tuple(row) for row in packed.exact_arrays()[0].mbr.tolist()]


class TestEdgePacking:
    def test_counts(self, scene):
        packed, __ = scene
        assert packed.edge_count == 8
        assert packed.obstacle_count == 2

    def test_rows_are_the_node_table(self, scene):
        packed, table = scene
        table.add(Point(-1, -1))  # a free point: a row, no edge
        xy, points = packed.node_arrays()
        assert points is table.points
        assert xy.shape == (2, 9)
        for i, p in enumerate(table.points):
            assert (xy[0, i], xy[1, i]) == (p.x, p.y)
        assert max(packed.edge_endpoints()[1].tolist()) < 8

    def test_shared_vertices_are_one_node(self):
        packed, table = _packed(
            rect_obstacle(0, 0, 0, 10, 10), rect_obstacle(1, 10, 0, 20, 10)
        )  # shares 2 corners
        assert len(table.points) == 6
        assert packed.edge_count == 8
        assert set(packed.edge_endpoints()[0].tolist()) == set(range(6))

    def test_runs_name_each_obstacles_edges_in_polygon_order(self, scene):
        packed, table = scene
        assert _edges(packed, table.points) == [
            *rect_obstacle(7, 0, 0, 10, 10).polygon.edges(),
            *rect_obstacle(9, 20, 0, 30, 10).polygon.edges(),
        ]


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
        want = [e for o in obstacles for e in o.polygon.edges()]
        assert _edges(packed, points) == want
        xy, __ = packed.node_arrays()
        assert xy.T.tolist() == [[p.x, p.y] for p in points]

    def test_vertex_coincident_free_point_is_one_row(self):
        g = VisibilityGraph.build(
            [Point(0, 0)], [rect_obstacle(0, 0, 0, 10, 10)], method="numpy-kernel"
        )
        assert g.packed_scene().node_arrays()[0].shape == (2, 4)

    def test_free_point_promoted_to_a_vertex_keeps_its_id(self):
        g = VisibilityGraph(method="numpy-kernel")
        g.add_entity(Point(4, 4))
        packed = g.packed_scene()
        g.add_obstacle(rect_obstacle(0, 4, 4, 6, 6))
        assert g.node_id(Point(4, 4)) == 0
        assert 0 in packed.edge_endpoints()[0].tolist()
        assert packed.node_arrays()[0].shape == (2, 4)


class TestObstacleRows:
    """Per-obstacle rows and edge runs follow add / remove."""

    def test_rows_and_edge_runs_follow_adds(self, scene):
        packed, table = scene
        assert _mbrs(packed) == [(0.0, 0.0, 10.0, 10.0), (20.0, 0.0, 30.0, 10.0)]
        assert packed.exact_arrays()[1] == {7: 0, 9: 1}
        obs = rect_obstacle(11, 40, 0, 50, 10)
        table.add(*obs.polygon.vertices)
        packed.add_obstacle(obs, table.ids)
        assert _mbrs(packed)[2] == (40.0, 0.0, 50.0, 10.0)
        assert _edges(packed, table.points)[8:] == list(obs.polygon.edges())

    def test_remove_compacts_rows_and_shifts_edge_runs(self, scene):
        packed, table = scene
        obs = rect_obstacle(11, 40, 0, 50, 10)
        table.add(*obs.polygon.vertices)
        packed.add_obstacle(obs, table.ids)
        packed.remove_obstacle(7)
        assert _mbrs(packed) == [(20.0, 0.0, 30.0, 10.0), (40.0, 0.0, 50.0, 10.0)]
        assert packed.exact_arrays()[1] == {9: 0, 11: 1}
        # Each run still names its own obstacle's edges, in polygon order.
        assert _edges(packed, table.points) == [
            *rect_obstacle(9, 20, 0, 30, 10).polygon.edges(),
            *obs.polygon.edges(),
        ]
        packed.remove_obstacle(11)
        packed.add_obstacle(obs, table.ids)
        assert _edges(packed, table.points)[4:] == list(obs.polygon.edges())

    def test_remove_unknown_is_noop(self, scene):
        packed, __ = scene
        packed.remove_obstacle(99)
        assert packed.edge_count == 8

    def test_remove_keeping_shared_vertices(self):
        packed, __ = _packed(
            rect_obstacle(0, 0, 0, 10, 10), rect_obstacle(1, 10, 0, 20, 10)
        )  # shares 2 corners
        packed.remove_obstacle(0)
        assert _mbrs(packed) == [(10.0, 0.0, 20.0, 10.0)]
        assert sorted(set(packed.edge_endpoints()[0].tolist())) == [1, 2, 4, 5]

    def test_mbr_meeting_matches_rect_intersects(self, scene):
        from repro.geometry import Rect

        packed, __ = scene
        boxes = {
            Rect(5, 5, 6, 6): [7],  # inside
            Rect(10, 10, 12, 12): [7],  # a corner: the MBRs are closed
            Rect(12, 2, 18, 8): [],  # between the boxes
            Rect(5, 5, 25, 6): [7, 9],
            Rect(5, -1, 6, -0.5): [],
        }
        for box, oids in boxes.items():
            assert [obs.oid for obs in packed.mbr_meeting(box)] == oids
        packed.remove_obstacle(7)
        assert [obs.oid for obs in packed.mbr_meeting(Rect(5, 5, 25, 6))] == [9]

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
        assert _mbrs(packed) == mbrs
        assert g.visible_from_many([Point(5, 25)]) == [[]]  # strictly inside
