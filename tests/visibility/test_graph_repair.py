"""Property tests for ``VisibilityGraph.remove_obstacle``.

The acceptance contract of the delete-repair path: across randomized
scenes and every visibility backend, a graph repaired by
``remove_obstacle`` is *identical* to a from-scratch rebuild over the
surviving obstacle set — same nodes, same visible sets (edges), same
shortest-path distances.
"""

import random

import pytest

from repro.geometry import Point
from repro.visibility import VisibilityGraph
from repro.visibility.shortest_path import shortest_path_dist
from tests.conftest import random_disjoint_rects, random_free_points

BACKENDS = ["python-sweep", "naive", "numpy-kernel"]


def _edge_set(graph):
    return {
        frozenset((u, v)) for u in graph.nodes() for v in graph.neighbors(u)
    }


def _scene(seed, n_obstacles=10, n_free=5):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obstacles)
    points = random_free_points(rng, n_free, obstacles)
    return rng, obstacles, points


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(6))
class TestRepairEqualsRebuild:
    def test_structure_matches_rebuild(self, backend, seed):
        rng, obstacles, points = _scene(seed)
        graph = VisibilityGraph.build(points, obstacles, method=backend)
        if backend == "numpy-kernel":
            graph.packed_scene()  # materialize so removal exercises it
        victim = obstacles[rng.randrange(len(obstacles))]
        revision = graph.obstacle_revision
        assert graph.remove_obstacle(victim.oid)
        assert graph.obstacle_revision > revision
        survivors = [o for o in obstacles if o.oid != victim.oid]
        rebuilt = VisibilityGraph.build(points, survivors, method=backend)
        assert set(graph.nodes()) == set(rebuilt.nodes())
        assert _edge_set(graph) == _edge_set(rebuilt)
        assert graph.obstacle_ids() == rebuilt.obstacle_ids()

    def test_shortest_paths_match_rebuild(self, backend, seed):
        rng, obstacles, points = _scene(seed)
        graph = VisibilityGraph.build(points, obstacles, method=backend)
        victim = obstacles[rng.randrange(len(obstacles))]
        graph.remove_obstacle(victim.oid)
        survivors = [o for o in obstacles if o.oid != victim.oid]
        rebuilt = VisibilityGraph.build(points, survivors, method=backend)
        for a in points[:2]:
            for b in points[2:]:
                assert shortest_path_dist(graph, a, b) == shortest_path_dist(
                    rebuilt, a, b
                )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("victim", [0, 2, 6])
def test_street_grid_insert_then_delete_equals_rebuild(backend, victim):
    """60 nodes on shared grid lines — the collinear contacts the random
    scenes above never make: the numpy kernel's graphs answer both
    maintenance batches over arrays (victims 0 and 2; for victim 6, at
    the rim, too few pairs pass the MBR reject and the scalar method
    is looped), and insert, then delete, equal from-scratch builds
    edge for edge."""
    from repro.datasets.synthetic import street_grid_obstacles

    obstacles = street_grid_obstacles(15, seed=7)
    rest = obstacles[:victim] + obstacles[victim + 1:]
    graph = VisibilityGraph.build([], rest, method=backend)
    without = _edge_set(graph)
    assert graph.add_obstacle(obstacles[victim])
    assert graph.node_count == 60
    assert _edge_set(graph) == _edge_set(
        VisibilityGraph.build([], obstacles, method=backend)
    )
    assert graph.remove_obstacle(obstacles[victim].oid)
    assert _edge_set(graph) == without


@pytest.mark.parametrize("backend", BACKENDS)
class TestRemoveObstacleEdgeCases:
    def test_missing_oid_is_noop(self, backend):
        __, obstacles, points = _scene(3)
        graph = VisibilityGraph.build(points, obstacles, method=backend)
        revision = graph.obstacle_revision
        edges = _edge_set(graph)
        assert not graph.remove_obstacle(10_000)
        assert graph.obstacle_revision == revision
        assert _edge_set(graph) == edges

    def test_remove_all_obstacles_leaves_complete_graph(self, backend):
        __, obstacles, points = _scene(4, n_obstacles=4, n_free=4)
        graph = VisibilityGraph.build(points, obstacles, method=backend)
        for obs in obstacles:
            assert graph.remove_obstacle(obs.oid)
        # No obstacles left: every pair of free points sees each other.
        n = len(points)
        assert set(graph.nodes()) == set(points)
        assert graph.edge_count == n * (n - 1) // 2

    def test_remove_then_readd_roundtrips(self, backend):
        rng, obstacles, points = _scene(5)
        graph = VisibilityGraph.build(points, obstacles, method=backend)
        edges = _edge_set(graph)
        victim = obstacles[rng.randrange(len(obstacles))]
        graph.remove_obstacle(victim.oid)
        graph.add_obstacle(victim)
        assert _edge_set(graph) == edges

    def test_shared_vertex_survives_neighbours_removal(self, backend):
        from tests.conftest import rect_obstacle

        # Two rectangles sharing the corner (5, 5).
        left = rect_obstacle(0, 1, 1, 5, 5)
        right = rect_obstacle(1, 5, 5, 9, 9)
        probe = [Point(0, 8), Point(8, 0)]
        graph = VisibilityGraph.build(probe, [left, right], method=backend)
        assert graph.remove_obstacle(left.oid)
        rebuilt = VisibilityGraph.build(probe, [right], method=backend)
        assert set(graph.nodes()) == set(rebuilt.nodes())
        assert Point(5, 5) in set(graph.nodes())
        assert _edge_set(graph) == _edge_set(rebuilt)

    def test_promoted_free_point_survives_removal(self, backend):
        """Regression: a free point promoted to an obstacle vertex
        (coinciding coordinates, either registration order) must be
        demoted back — not deleted — when the owning obstacle goes."""
        from tests.conftest import rect_obstacle

        q = Point(5, 5)
        far = rect_obstacle(0, 20, 20, 24, 24)
        cornered = rect_obstacle(1, 5, 5, 9, 9)  # vertex exactly at q

        # Order A: free point first, obstacle second (promotion).
        graph = VisibilityGraph.build([q, Point(0, 0)], [far], method=backend)
        graph.add_obstacle(cornered)
        assert graph.remove_obstacle(cornered.oid)
        assert graph.has_node(q)
        assert q in graph.free_points()
        rebuilt = VisibilityGraph.build(
            [q, Point(0, 0)], [far], method=backend
        )
        assert _edge_set(graph) == _edge_set(rebuilt)
        # Demoted: deletable as an entity again.
        assert graph.delete_entity(q)

        # Order B: obstacle first, free point second.
        graph = VisibilityGraph.build(
            [q, Point(0, 0)], [far, cornered], method=backend
        )
        assert graph.remove_obstacle(cornered.oid)
        assert graph.has_node(q)
        assert q in graph.free_points()
        assert _edge_set(graph) == _edge_set(rebuilt)

    def test_packed_scene_compaction(self, backend):
        pytest.importorskip("numpy")
        rng, obstacles, points = _scene(6, n_obstacles=6)
        graph = VisibilityGraph.build(points, obstacles, method=backend)
        packed = graph.packed_scene()
        before_verts = packed.vertex_count
        victim = obstacles[rng.randrange(len(obstacles))]
        graph.remove_obstacle(victim.oid)
        assert packed.edge_count == sum(
            len(o.polygon.edges()) for o in obstacles if o.oid != victim.oid
        )
        assert packed.vertex_count == before_verts - len(
            victim.polygon.vertices
        )
        # Packed arrays still mirror the graph: endpoint indices map
        # back to the surviving vertex points.
        ea, eb = packed.edge_endpoints()
        events = packed.event_points()
        for i in range(packed.edge_count):
            assert events[int(ea[i])] in set(graph.nodes())
            assert events[int(eb[i])] in set(graph.nodes())
