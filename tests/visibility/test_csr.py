"""Frozen CSR views: freeze correctness and bit-parity of the
int-indexed Dijkstra — rooted at a node or at seeds — against the
dict-path oracle, and of the probed last leg against the swept one."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.model import Obstacle
from repro.visibility import VisibilityGraph, bounded_dijkstra, dijkstra
from repro.visibility import csr as csr_module
from repro.visibility.csr import CSRGraph, frozen
from tests.conftest import rect_obstacle
from tests.strategies import disjoint_rect_obstacles, free_points
from tests.visibility.test_exact import endpoints, lattice_rects


def _grid_graph(seed: int = 0, n: int = 18, obstacles: int = 4):
    rng = np.random.default_rng(seed)
    points = [
        Point(float(x), float(y))
        for x, y in rng.uniform(-20, 20, size=(n, 2)).round(3)
    ]
    obs = []
    for i in range(obstacles):
        cx, cy = rng.uniform(-14, 14, size=2)
        w, h = rng.uniform(1, 5, size=2)
        obs.append(rect_obstacle(i, cx, cy, cx + w, cy + h))
    return VisibilityGraph.build(points, obs, method="naive")


class TestFreeze:
    def test_arrays_mirror_adjacency(self):
        g = _grid_graph(seed=1)
        csr = CSRGraph.freeze(g)
        assert csr.node_count == g.node_count
        assert csr.edge_count == g.edge_count
        for p in csr.points:
            i = csr.index[p]
            assert (csr.xs[i], csr.ys[i]) == (p.x, p.y)
            lo, hi = int(csr.indptr[i]), int(csr.indptr[i + 1])
            row = {
                csr.points[int(j)]: float(w)
                for j, w in zip(csr.indices[lo:hi], csr.weights[lo:hi])
            }
            assert row == g._adj[p]

    def test_frozen_caches_per_revision(self):
        g = _grid_graph(seed=2)
        csr = frozen(g)
        assert frozen(g) is csr
        g.add_entity(Point(100.0, 100.0))
        csr2 = frozen(g)
        assert csr2 is not csr
        assert csr2.node_count == csr.node_count + 1

    def test_structure_revision_moves_on_topology_change(self):
        g = _grid_graph(seed=3)
        r0 = g.structure_revision
        g.add_entity(Point(50.0, 50.0))
        r1 = g.structure_revision
        assert r1 > r0
        g.delete_entity(Point(50.0, 50.0))
        assert g.structure_revision > r1


class TestDijkstraParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_expansion_bit_identical(self, seed):
        g = _grid_graph(seed=seed)
        csr = CSRGraph.freeze(g)
        source = csr.points[0]
        oracle = dijkstra(g, source)
        dist, settled = csr.dijkstra(csr.index[source])
        for p in csr.points:
            i = csr.index[p]
            if p in oracle:
                assert settled[i]
                assert dist[i] == oracle[p]  # bitwise
            else:
                assert not settled[i]
                assert math.isinf(dist[i])

    @pytest.mark.parametrize("seed", range(3))
    def test_bounded_bit_identical(self, seed):
        g = _grid_graph(seed=seed)
        csr = CSRGraph.freeze(g)
        source = csr.points[0]
        full = dijkstra(g, source)
        bound = float(np.median([d for d in full.values() if d < math.inf]))
        oracle = bounded_dijkstra(g, source, bound)
        dist, settled = csr.dijkstra(csr.index[source], bound=bound)
        got = {
            csr.points[i]: float(dist[i])
            for i in range(csr.node_count)
            if settled[i]
        }
        assert got == oracle

    def test_targets_early_exit_settles_targets(self):
        g = _grid_graph(seed=4)
        csr = CSRGraph.freeze(g)
        source = csr.points[0]
        oracle = dijkstra(g, source)
        reachable = [p for p in csr.points[1:] if p in oracle]
        target = max(reachable, key=oracle.__getitem__)
        near = min(reachable, key=oracle.__getitem__)
        dist, settled = csr.dijkstra(
            csr.index[source], targets=[csr.index[near]]
        )
        assert settled[csr.index[near]]
        assert dist[csr.index[near]] == oracle[near]
        # The far target need not have settled after the early exit.
        full_dist, full_settled = csr.dijkstra(csr.index[source])
        assert full_settled.sum() >= settled.sum()
        assert full_dist[csr.index[target]] == oracle[target]

    def test_field_cache_reuses_array(self):
        g = _grid_graph(seed=5)
        csr = CSRGraph.freeze(g)
        a = csr.field(csr.points[0], g)
        assert csr.field(csr.points[0], g) is a
        assert (a == csr.dijkstra(0)[0]).all()
        b = csr.field(csr.points[1], g)
        assert b is not a

    @pytest.mark.parametrize("seed", range(5))
    def test_field_rooted_off_the_graph_equals_the_root_inserted(self, seed):
        """A field rooted at an off-graph point's anchors holds, at
        every node, what Dijkstra from the point holds once it is
        inserted — and leaves the graph alone."""
        g = _grid_graph(seed=seed)
        csr = frozen(g)
        revision = g.structure_revision
        root = Point(0.123 + seed, -0.456)
        assert not g.has_node(root)
        dist = csr.field(root, g)
        assert g.structure_revision == revision and frozen(g) is csr
        g.add_entity(root)
        oracle = dijkstra(g, root)
        for i, p in enumerate(csr.points):
            assert dist[i] == oracle.get(p, math.inf)  # bitwise


class TestSeededDijkstraParity:
    """Seeds ``(id, start)`` are a virtual source wired to those nodes:
    the oracle is the dict Dijkstra from a stand-in node whose edges
    are set by hand, with the start distances as weights."""

    @staticmethod
    def _setup(seed):
        g = _grid_graph(seed=seed)
        csr = CSRGraph.freeze(g)
        rng = np.random.default_rng(100 + seed)
        ids = rng.choice(csr.node_count, size=4, replace=False).tolist()
        seeds = [(i, float(s)) for i, s in zip(ids, rng.uniform(0.5, 9, 4))]
        virtual = Point(1000.0, 1000.0)
        g._adj[virtual] = {}
        for i, start in seeds:
            g._adj[virtual][csr.points[i]] = start
            g._adj[csr.points[i]][virtual] = start
        return g, csr, seeds, virtual

    @staticmethod
    def _settled(csr, dist, settled):
        return {
            csr.points[i]: float(dist[i])
            for i in range(csr.node_count)
            if settled[i]
        }

    @pytest.mark.parametrize("seed", range(5))
    def test_full_expansion_bit_identical(self, seed):
        g, csr, seeds, virtual = self._setup(seed)
        oracle = dijkstra(g, virtual)
        del oracle[virtual]
        assert self._settled(csr, *csr.dijkstra(seeds)) == oracle

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_includes_nodes_at_exactly_the_bound(self, seed):
        g, csr, seeds, virtual = self._setup(seed)
        full = dijkstra(g, virtual)
        del full[virtual]
        bound = sorted(full.values())[len(full) // 2]
        oracle = bounded_dijkstra(g, virtual, bound)
        del oracle[virtual]
        dist, settled = csr.dijkstra(seeds, bound=bound)
        got = self._settled(csr, dist, settled)
        assert got == oracle
        assert bound in got.values()  # inclusion at exactly the bound
        assert settled.sum() < csr.node_count

    @pytest.mark.parametrize("seed", range(5))
    def test_targets_early_exit(self, seed):
        g, csr, seeds, virtual = self._setup(seed)
        full = dijkstra(g, virtual)
        near = sorted(
            (p for p in full if p != virtual), key=full.__getitem__
        )[:3]
        oracle = dijkstra(g, virtual, targets=near)
        dist, settled = csr.dijkstra(
            seeds, targets=[csr.index[p] for p in near]
        )
        got = self._settled(csr, dist, settled)
        for p in near:
            assert got[p] == oracle[p] == full[p]
        assert all(full[p] == d for p, d in got.items())
        assert settled.sum() < csr.node_count

    @pytest.mark.parametrize("seed", range(5))
    def test_legs_stop_once_the_goal_distance_is_final(self, seed):
        g, csr, seeds, virtual = self._setup(seed)
        full, __ = csr.dijkstra(seeds)
        rng = np.random.default_rng(200 + seed)
        targets = rng.choice(csr.node_count, size=6, replace=False)
        legs = rng.uniform(0.0, 6.0, size=6)
        dist, settled = csr.dijkstra(
            seeds, targets=targets.tolist(), legs=legs.tolist()
        )
        assert (dist[targets] + legs).min() == (full[targets] + legs).min()
        assert (dist[settled] == full[settled]).all()
        assert settled.sum() < csr.node_count

    def test_duplicate_seeds_keep_the_smaller_start(self):
        g = _grid_graph(seed=6)
        csr = CSRGraph.freeze(g)
        a, __ = csr.dijkstra([(0, 3.0), (0, 1.0), (2, 0.5)])
        b, __ = csr.dijkstra([(0, 1.0), (2, 0.5)])
        assert (a == b).all()
        assert a[0] <= 1.0

    def test_node_source_is_a_zero_seed(self):
        g = _grid_graph(seed=7)
        csr = CSRGraph.freeze(g)
        a, sa = csr.dijkstra(3)
        b, sb = csr.dijkstra([(3, 0.0)])
        assert (a == b).all() and (sa == sb).all()


#: Wider than any graph here: every node may be tested.
UNCAPPED = 10**9


@pytest.fixture(params=[csr_module.LAST_LEG_PROBES, UNCAPPED], ids=["capped", "uncapped"])
def probe_cap(request, monkeypatch):
    monkeypatch.setattr(csr_module, "LAST_LEG_PROBES", request.param)
    return request.param


def _probed_and_swept(graph, root, goal):
    """``goal``'s last leg from the field rooted at ``root``: probed
    with the exact oracle, then swept (the sweep memoizes the goal, so
    it goes second)."""
    csr = frozen(graph)
    assert goal not in csr.index and goal not in csr.anchors
    dist = csr.field(root, graph)
    probed = csr.probe_last_leg(dist, goal, graph)
    return probed, csr.last_leg(dist, goal, graph)


def _assert_probe_agrees(probed, swept, cap):
    if cap == UNCAPPED:
        assert probed == swept  # ==, not approx
    else:
        assert probed is None or probed == swept


@st.composite
def _lattice_scenes(draw):
    """Touching, vertex-sharing, T-junction and overlapping lattice
    rectangles; root and goal free, on a vertex or a hair off it, on an
    edge or on its line beyond it, or inside an obstacle; the root a
    graph node (a cached graph's centre) or off the graph."""
    polys = draw(st.lists(lattice_rects(), min_size=1, max_size=5))
    obstacles = [Obstacle(i, poly) for i, poly in enumerate(polys)]
    root, goal = draw(endpoints(polys)), draw(endpoints(polys))
    return obstacles, root, goal, draw(st.booleans())


PROBE_SETTINGS = settings(
    deadline=None, max_examples=150, suppress_health_check=list(HealthCheck)
)


class TestProbedLastLeg:
    """``probe_last_leg`` is ``last_leg`` after a full sweep of the goal,
    to the bit — or ``None`` once the cap of hidden nodes is spent."""

    @PROBE_SETTINGS
    @given(scene=_lattice_scenes())
    def test_lattice_scenes_on_the_oracle_backend(self, probe_cap, scene):
        obstacles, root, goal, root_is_node = scene
        graph = VisibilityGraph.build(
            [root] if root_is_node else [], obstacles, method="naive"
        )
        if goal in frozen(graph).index:
            return  # a node is its own anchor: no last leg to probe
        probed, swept = _probed_and_swept(graph, root, goal)
        _assert_probe_agrees(probed, swept, probe_cap)

    # Generated deterministically: free points may land one ulp off an
    # obstacle vertex, where the kernel's visible set is known to differ
    # from the oracle's (ROADMAP item 1(c)).
    @settings(PROBE_SETTINGS, derandomize=True)
    @given(data=st.data())
    def test_random_scenes_on_both_backends(self, probe_cap, data):
        obstacles = data.draw(disjoint_rect_obstacles())
        root, goal = data.draw(free_points(obstacles, min_count=2, max_count=2))
        root_is_node = data.draw(st.booleans())
        for method in ("numpy-kernel", "naive"):
            graph = VisibilityGraph.build(
                [root] if root_is_node else [], obstacles, method=method
            )
            probed, swept = _probed_and_swept(graph, root, goal)
            _assert_probe_agrees(probed, swept, probe_cap)

    @pytest.mark.parametrize("method", ["numpy-kernel", "naive"])
    @pytest.mark.parametrize(
        "goal, sealed",
        [
            (Point(1.5, 1.5), False),  # inside the pocket
            (Point(0.5, 3.0), False),  # on the top rectangle's edge
            (Point(-2.0, 3.0), False),  # on that edge's line, beyond it
            (Point(5.0, 1.0), False),  # collinear with a grid line
            (Point(2.5, 0.5), True),  # inside an obstacle
        ],
    )
    def test_pocket_edges_and_sealed_goals(self, probe_cap, method, goal, sealed):
        """A pocket walled in by four touching rectangles (each one's
        corner on the next one's edge)."""
        obstacles = [
            rect_obstacle(0, 0.0, 0.0, 3.0, 1.0),
            rect_obstacle(1, 2.0, 1.0, 3.0, 3.0),
            rect_obstacle(2, 0.0, 2.0, 2.0, 3.0),
            rect_obstacle(3, 0.0, 1.0, 1.0, 2.0),
        ]
        root = Point(-4.0, -3.0)
        graph = VisibilityGraph.build([root], obstacles, method=method)
        probed, swept = _probed_and_swept(graph, root, goal)
        _assert_probe_agrees(probed, swept, probe_cap)
        assert (swept == math.inf) == sealed

    def test_a_goal_behind_a_row_of_nodes_falls_back_to_the_sweep(self):
        """Nine nodes just across a wall from the goal come first in
        lower-bound order and all are hidden from it: the capped probe
        gives up, and the sweep answers through the wall's end."""
        wall = [rect_obstacle(0, -10.0, 1.0, 10.0, 2.0)]
        root = Point(0.0, 50.0)
        row = [Point(float(x), 2.5) for x in range(-4, 5)]
        graph = VisibilityGraph.build([root, *row], wall, method="numpy-kernel")
        probed, swept = _probed_and_swept(graph, root, Point(0.0, 0.0))
        assert csr_module.LAST_LEG_PROBES < len(row)
        assert probed is None
        assert 50.0 < swept < math.inf
