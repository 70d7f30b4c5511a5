"""Property tests for ``VisibilityGraph.remove_obstacle`` and
``add_obstacles``.

The acceptance contract of the delete-repair path: across randomized
scenes and every visibility backend, a graph repaired by
``remove_obstacle`` is *identical* to a from-scratch rebuild over the
surviving obstacle set — same nodes, same visible sets (edges), same
shortest-path distances.  And of the growth step: ``add_obstacles(S)``
leaves what ``add_obstacle`` folded over any order of ``S`` leaves.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.model import Obstacle
from repro.visibility import VisibilityGraph
from tests.conftest import random_disjoint_rects, random_free_points
from tests.reference_field import graph_distance

BACKENDS = ["naive", "numpy-kernel"]


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
                assert graph_distance(graph, a, b) == graph_distance(
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
        before = graph.node_count
        victim = obstacles[rng.randrange(len(obstacles))]
        graph.remove_obstacle(victim.oid)
        assert packed.edge_count == sum(
            len(o.polygon.edges()) for o in obstacles if o.oid != victim.oid
        )
        assert graph.node_count == before - len(victim.polygon.vertices)
        # Packed arrays still mirror the graph: endpoint ids name the
        # surviving obstacles' edges, in polygon order.
        ea, eb = packed.edge_endpoints()
        nodes = list(graph.nodes())
        assert [(nodes[a], nodes[b]) for a, b in zip(ea.tolist(), eb.tolist())] == [
            edge for o in graph.scene_obstacles() for edge in o.polygon.edges()
        ]
        xy, __ = packed.node_arrays()
        assert xy.T.tolist() == [[p.x, p.y] for p in nodes]


# ------------------------------------------------- add_obstacles == the fold
@st.composite
def growth_steps(draw):
    """A lattice scene (``test_exact``'s rectangles: touching,
    vertex-sharing, T-junctions, collinear runs; interiors disjoint), cut
    into the obstacles a graph holds and those a growth step adds, with
    free points on lattice corners, on boundaries and off them."""
    from tests.visibility.test_exact import lattice, lattice_rects

    kept = []
    for poly in draw(st.lists(lattice_rects(), min_size=1, max_size=6)):
        inner = poly.mbr
        if not any(
            inner.minx < o.mbr.maxx
            and o.mbr.minx < inner.maxx
            and inner.miny < o.mbr.maxy
            and o.mbr.miny < inner.maxy
            for o in kept
        ):
            kept.append(Obstacle(len(kept), poly))
    held = draw(st.integers(0, len(kept) - 1))
    half = st.sampled_from([0.0, 0.5])
    points = draw(
        st.lists(
            st.builds(Point, st.builds(float.__add__, lattice, half), lattice),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    assume(not any(o.polygon.contains(p) for o in kept for p in points))
    return kept[:held], kept[held:], points


def _state(graph):
    return (
        set(graph.nodes()),
        {
            frozenset((u, v)): w
            for u in graph.nodes()
            for v, w in graph.neighbors(u).items()
        },
        dict(graph._vertices),
        set(graph._promoted),
        graph.free_points(),
        graph.obstacle_ids(),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(step=growth_steps(), data=st.data())
def test_add_obstacles_equals_add_obstacle_folded_in_any_order(backend, step, data):
    held, added, points = step
    batch = VisibilityGraph.build(points, held, method=backend)
    # The set as a retrieval hands it over: with obstacles the graph
    # already holds, and repeats.
    again = data.draw(st.lists(st.sampled_from(held + added), max_size=3))
    assert batch.add_obstacles(added + again) == len(added)
    assert not batch.pending
    fold = VisibilityGraph.build(points, held, method=backend)
    for obs in data.draw(st.permutations(added)):
        assert fold.add_obstacle(obs)
    assert _state(batch) == _state(fold)
    assert batch.add_obstacles(added) == 0
