"""Frozen CSR views: freeze correctness and bit-parity of the
int-indexed Dijkstra — rooted at a node or at seeds — against the
dict-adjacency oracle ``reference_dijkstra``, its early exits and heap
traffic, and the probed last leg against the swept one."""

import heapq
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.distance import SourceDistanceField
from repro.geometry.point import Point
from repro.model import Obstacle
from repro.runtime.stats import RuntimeStats
from repro.visibility import VisibilityGraph
from repro.visibility import csr as csr_module
from repro.visibility.csr import CSRGraph, frozen
from repro.visibility.naive import is_visible as oracle
from tests.conftest import rect_obstacle
from tests.reference_field import reference_dijkstra, reference_freeze
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
            assert list(row.items()) == list(g.neighbors(p).items())

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


#: The graph operations a history draws from.
_STEPS = (
    "add_obstacles",
    "remove_obstacle",
    "add_entity",
    "delete_entity",
    "rebuild",
    "restore",
)


@st.composite
def _histories(draw):
    """A scene, the part of it a graph is built over, and the steps that
    follow: each a kind and a number that picks its argument.  Some
    entities sit on obstacle corners, so they are promoted to vertices
    and demoted back."""
    obstacles = draw(disjoint_rect_obstacles(max_count=8))
    corners = [v for obs in obstacles for v in obs.polygon.vertices]
    entities = draw(free_points(obstacles, max_count=6))
    entities += draw(st.lists(st.sampled_from(corners), max_size=2))
    held = draw(st.integers(0, 2 ** len(obstacles) - 1))
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(_STEPS), st.integers(0, 2**16)), max_size=8
        )
    )
    return obstacles, entities, held, steps


def _picked(items, bits):
    return [item for k, item in enumerate(items) if bits >> k & 1]


def _step(graph, method, obstacles, entities, kind, r):
    """Apply one history step to ``graph``; returns the graph after it."""
    held = graph.obstacle_ids()
    if kind == "add_obstacles":
        graph.add_obstacles(_picked([o for o in obstacles if o.oid not in held], r))
    elif kind == "remove_obstacle" and held:
        graph.remove_obstacle(sorted(held)[r % len(held)])
    elif kind == "add_entity":
        graph.add_entity(entities[r % len(entities)])
    elif kind == "delete_entity" and graph.free_points():
        free = sorted(graph.free_points())
        graph.delete_entity(free[r % len(free)])
    elif kind == "rebuild":
        graph.rebuild(_picked(obstacles, r))
    elif kind == "restore":
        graph = VisibilityGraph.restore(*graph.snapshot_parts(), method=method)
    return graph


def _adjacency(graph):
    return {p: dict(graph.neighbors(p)) for p in graph.nodes()}


def _assert_ids_dense_and_freeze_exact(graph):
    nodes = list(graph.nodes())
    assert [graph.node_id(p) for p in nodes] == list(range(len(nodes)))
    csr = CSRGraph.freeze(graph)
    want = reference_freeze(_adjacency(graph))
    assert csr.points == want.points
    assert csr.index == {p: i for i, p in enumerate(nodes)}
    for name in ("xs", "ys", "indptr", "indices", "weights"):
        assert getattr(csr, name).tolist() == getattr(want, name).tolist(), name


def _assert_order_kept(before, after):
    """What a dict keyed by points keeps: surviving nodes in their old
    order ahead of new ones, and each row's surviving neighbours in
    their old order."""
    kept = [p for p in before if p in after]
    assert list(after)[: len(kept)] == kept
    for p in kept:
        old, new = before[p], after[p]
        assert [v for v in new if v in old] == [v for v in old if v in new]


@pytest.mark.parametrize("method", ["numpy-kernel", "naive"])
@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(history=_histories())
def test_freeze_equals_the_reference_after_every_step(method, history):
    """Node ids are ``0 .. n-1`` in ``nodes()`` order whatever built,
    grew, repaired, rebuilt or restored the graph; a step other than a
    rebuild or a restore keeps the node and row order a ``Point``-keyed
    dict would; and the freeze read off the id rows equals the
    reference flattening — node order, row order and weights."""
    obstacles, entities, held, steps = history
    graph = VisibilityGraph.build(
        entities[: len(entities) // 2], _picked(obstacles, held), method=method
    )
    _assert_ids_dense_and_freeze_exact(graph)
    for kind, r in steps:
        before = _adjacency(graph)
        graph = _step(graph, method, obstacles, entities, kind, r)
        if kind not in ("rebuild", "restore"):
            _assert_order_kept(before, _adjacency(graph))
        _assert_ids_dense_and_freeze_exact(graph)


class TestDijkstraParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_expansion_bit_identical(self, seed):
        g = _grid_graph(seed=seed)
        csr = CSRGraph.freeze(g)
        source = csr.points[0]
        oracle = reference_dijkstra(g, source)
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
        full = reference_dijkstra(g, source)
        bound = float(np.median([d for d in full.values() if d < math.inf]))
        oracle = reference_dijkstra(g, source, bound=bound)
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
        oracle = reference_dijkstra(g, source)
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
        """A field rooted at a free node is its Dijkstra; at an obstacle
        vertex, the search from every node the vertex sees."""
        g = _grid_graph(seed=5)
        csr = CSRGraph.freeze(g)
        free = csr.index[next(iter(g.free_points()))]
        a = csr.field(csr.points[free], g)
        assert csr.field(csr.points[free], g) is a
        assert (a == csr.dijkstra(free)[0]).all()
        corner = csr.points[0]
        b = csr.field(corner, g)
        assert b is not a
        ids, legs = csr.anchors_for(corner, g)
        assert ids[0] == 0 and legs[0] == 0.0 and len(ids) > 1
        assert (b == csr.dijkstra(list(zip(ids.tolist(), legs.tolist())))[0]).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_field_rooted_off_the_graph_equals_the_root_inserted(self, seed):
        """A field rooted at an off-graph point's anchors holds, at
        every free node, what Dijkstra from the point holds once it is
        inserted — and leaves the graph alone.  At an obstacle vertex
        the anchors (every node the point sees) may reach it where the
        inserted point's tangent edges do not: never farther."""
        g = _grid_graph(seed=seed)
        csr = frozen(g)
        revision = g.structure_revision
        root = Point(0.123 + seed, -0.456)
        assert not g.has_node(root)
        dist = csr.field(root, g)
        assert g.structure_revision == revision and frozen(g) is csr
        g.add_entity(root)
        oracle = reference_dijkstra(g, root)
        free = g.free_points()
        for i, p in enumerate(csr.points):
            if p in free:
                assert dist[i] == oracle.get(p, math.inf)  # bitwise
            else:
                assert dist[i] <= oracle.get(p, math.inf)


class _Adjacency:
    """A ``Point``-keyed adjacency with the three reads
    ``reference_dijkstra`` makes of a graph."""

    def __init__(self, adj, free):
        self.adj = adj
        self.free = free

    def has_node(self, p):
        return p in self.adj

    def neighbors(self, p):
        return self.adj[p]

    def free_points(self):
        return self.free


class TestSeededDijkstraParity:
    """Seeds ``(id, start)`` are a virtual source wired to those nodes:
    the oracle is the dict Dijkstra over the graph's adjacency plus a
    stand-in node whose edges are set by hand, with the start distances
    as weights.  The stand-in has no free-point information of its own:
    it is handed the CSR's free set, so both searches pass through no
    free seed (every start here is positive, so no seed is a root)."""

    @staticmethod
    def _setup(seed):
        g = _grid_graph(seed=seed)
        csr = CSRGraph.freeze(g)
        rng = np.random.default_rng(100 + seed)
        ids = rng.choice(csr.node_count, size=4, replace=False).tolist()
        seeds = [(i, float(s)) for i, s in zip(ids, rng.uniform(0.5, 9, 4))]
        virtual = Point(1000.0, 1000.0)
        adj = {p: dict(g.neighbors(p)) for p in g.nodes()}
        adj[virtual] = {}
        for i, start in seeds:
            adj[virtual][csr.points[i]] = start
            adj[csr.points[i]][virtual] = start
        free = {csr.points[i] for i in csr.free}
        return _Adjacency(adj, free), csr, seeds, virtual

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
        oracle = reference_dijkstra(g, virtual)
        del oracle[virtual]
        assert self._settled(csr, *csr.dijkstra(seeds)) == oracle

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_includes_nodes_at_exactly_the_bound(self, seed):
        g, csr, seeds, virtual = self._setup(seed)
        full = reference_dijkstra(g, virtual)
        del full[virtual]
        bound = sorted(full.values())[len(full) // 2]
        oracle = reference_dijkstra(g, virtual, bound=bound)
        del oracle[virtual]
        dist, settled = csr.dijkstra(seeds, bound=bound)
        got = self._settled(csr, dist, settled)
        assert got == oracle
        assert bound in got.values()  # inclusion at exactly the bound
        assert settled.sum() < csr.node_count

    @pytest.mark.parametrize("seed", range(5))
    def test_targets_early_exit(self, seed):
        g, csr, seeds, virtual = self._setup(seed)
        full = reference_dijkstra(g, virtual)
        near = sorted(
            (p for p in full if p != virtual), key=full.__getitem__
        )[:3]
        oracle = reference_dijkstra(g, virtual, targets=near)
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


def _chain(n):
    """``n`` collinear integer points and no obstacles: a complete
    graph where node ``i`` sits at exactly distance ``i`` from node 0
    (every relaxation ``i + (j - i)`` is exact)."""
    return CSRGraph.freeze(
        VisibilityGraph.build([Point(float(i), 0.0) for i in range(n)], [])
    )


class TestDijkstraEdgeCases:
    def test_bound_includes_a_node_at_exactly_the_bound(self):
        csr = _chain(8)
        dist, settled = csr.dijkstra(0, bound=5.0)
        assert dist[5] == 5.0 and settled[5]
        assert not settled[6:].any() and math.isinf(dist[6])

    def test_a_settled_target_stops_the_chain(self):
        csr = _chain(30)
        dist, settled = csr.dijkstra(0, targets=[1])
        assert dist[1] == 1.0
        assert settled.sum() < csr.node_count

    def test_a_free_point_is_never_passed_through(self):
        """``q`` sees ``p``, so ``d(q, p) == |qp|``; the sum through
        the free point ``c`` is an ulp shorter, and no search may take
        it — not from ``q``, and not from seeds off the graph."""
        q, c, p = Point(69, 25), Point(54, 31), Point(34, 39)
        assert q.distance(c) + c.distance(p) < q.distance(p) == 37.69615364994153
        g = VisibilityGraph.build([q, c, p], [])
        csr = CSRGraph.freeze(g)
        dist, __ = csr.dijkstra(csr.index[q])
        assert dist[csr.index[p]] == q.distance(p)
        assert reference_dijkstra(g, q)[p] == q.distance(p)
        assert csr.field(q, g)[csr.index[p]] == q.distance(p)
        seeds = [(csr.index[q], 0.0), (csr.index[c], q.distance(c))]
        assert csr.dijkstra(seeds)[0][csr.index[p]] == q.distance(p)

    def test_sealed_target_terminates(self):
        """A target in a separate component: the heap drains and the
        call returns (no bound needed to terminate)."""
        walls = [
            rect_obstacle(0, -10, -10, 10, -7),
            rect_obstacle(1, -10, 7, 10, 10),
            rect_obstacle(2, -10, -9, -7, 9),
            rect_obstacle(3, 7, -9, 10, 9),
        ]
        a, b = Point(0, 0), Point(50, 50)
        csr = CSRGraph.freeze(VisibilityGraph.build([a, b], walls, method="naive"))
        dist, settled = csr.dijkstra(csr.index[a], targets=[csr.index[b]])
        assert not settled[csr.index[b]] and math.isinf(dist[csr.index[b]])

    def test_unknown_source_settles_nothing(self):
        """A point that sees no node (here, one inside an obstacle)
        roots a search without seeds."""
        g = VisibilityGraph.build([Point(0, 0)], [rect_obstacle(0, 4, 4, 6, 6)])
        csr = frozen(g)
        ids, __ = csr.anchors_for(Point(5, 5), g)
        assert len(ids) == 0
        dist, settled = csr.dijkstra([])
        assert not settled.any() and np.isinf(dist).all()
        assert np.isinf(csr.field(Point(5, 5), g)).all()

    def test_dense_graph_pops_once_per_node(self, monkeypatch):
        """The stale-pop / dominated-push guard: on the complete chain
        graph the heap pops one entry per node, not one per
        relaxation (~n^2/2 = 800 here)."""
        n = 40
        csr = _chain(n)
        counts = {"pops": 0, "pushes": 0}

        def heappop(heap):
            counts["pops"] += 1
            return heapq.heappop(heap)

        def heappush(heap, item):
            counts["pushes"] += 1
            return heapq.heappush(heap, item)

        monkeypatch.setattr(csr_module, "heappop", heappop)
        monkeypatch.setattr(csr_module, "heappush", heappush)
        dist, settled = csr.dijkstra(0)
        assert settled.all() and dist.tolist() == [float(i) for i in range(n)]
        assert counts["pops"] == n
        # The source enters via the initial heap literal.
        assert counts["pushes"] == n - 1


#: Wider than any graph here: every node may be tested.
UNCAPPED = 10**9


@pytest.fixture(params=[csr_module.LAST_LEG_PROBES, UNCAPPED], ids=["capped", "uncapped"])
def probe_cap(request, monkeypatch):
    monkeypatch.setattr(csr_module, "LAST_LEG_PROBES", request.param)
    return request.param


def _probed_and_swept(graph, root, goal):
    """``goal``'s last leg from the field rooted at ``root``: by the
    rule (a probe, a sweep on a give-up), then off a sweep of the goal
    (which reads the memo a give-up leaves) — and whether the probe
    gave up."""
    csr = frozen(graph)
    assert goal not in csr.index and goal not in csr.anchors
    dist = csr.field(root, graph)
    memoized = goal in csr.anchors  # the off-graph root itself
    stats = RuntimeStats()
    probed = csr.last_leg(dist, goal, graph, stats=stats)
    gave_up = stats.last_leg_fallbacks == 1
    assert stats.last_leg_probes == (not memoized)
    assert gave_up == (goal in csr.anchors and not memoized)
    csr.anchors_for(goal, graph)
    return probed, csr.last_leg(dist, goal, graph), gave_up


def _assert_probe_agrees(probed, swept, gave_up, cap):
    assert probed == swept  # ==, not approx
    assert not (gave_up and cap == UNCAPPED)


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
    """``last_leg``'s probe is ``last_leg`` after a full sweep of the
    goal, to the bit; once the cap of hidden nodes is spent the goal is
    swept and memoized, and below a finite ``bound`` the probe stops
    untested."""

    @PROBE_SETTINGS
    @given(scene=_lattice_scenes())
    def test_lattice_scenes_on_the_oracle_backend(self, probe_cap, scene):
        obstacles, root, goal, root_is_node = scene
        graph = VisibilityGraph.build(
            [root] if root_is_node else [], obstacles, method="naive"
        )
        if goal in frozen(graph).index:
            return  # a node is its own anchor: no last leg to probe
        _assert_probe_agrees(*_probed_and_swept(graph, root, goal), probe_cap)

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
            _assert_probe_agrees(*_probed_and_swept(graph, root, goal), probe_cap)

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
        probed, swept, gave_up = _probed_and_swept(graph, root, goal)
        _assert_probe_agrees(probed, swept, gave_up, probe_cap)
        assert (swept == math.inf) == sealed

    def test_a_goal_behind_a_row_of_nodes_falls_back_to_the_sweep(self):
        """Nine nodes just across a wall from the goal come first in
        lower-bound order and all are hidden from it: the capped probe
        gives up, sweeps the goal alone and memoizes it, and the sweep
        answers through the wall's end."""
        wall = [rect_obstacle(0, -10.0, 1.0, 10.0, 2.0)]
        root = Point(0.0, 50.0)
        row = [Point(float(x), 2.5) for x in range(-4, 5)]
        graph = VisibilityGraph.build([root, *row], wall, method="numpy-kernel")
        probed, swept, gave_up = _probed_and_swept(graph, root, Point(0.0, 0.0))
        assert csr_module.LAST_LEG_PROBES < len(row)
        assert gave_up
        assert 50.0 < probed == swept < math.inf

    def test_the_bound_cuts_the_probe_short(self, monkeypatch):
        """The nodes whose lower bound is at most ``bound`` are tested
        (here the root and a row across a wall, all hidden from the
        goal); the next lower bound, above ``bound``, is returned
        untested, the goal is neither swept nor memoized, and the cut
        value lies between ``bound`` and the swept one."""
        wall = [rect_obstacle(0, -10.0, 1.0, 10.0, 2.0)]
        root = Point(0.0, 50.0)
        goal = Point(0.0, 0.0)
        row = [Point(float(x), 2.5) for x in range(-1, 2)]
        graph = VisibilityGraph.build([root, *row], wall, method="numpy-kernel")
        csr = frozen(graph)
        dist = csr.field(root, graph)
        dx, dy = csr.xs - goal.x, csr.ys - goal.y
        lows = sorted((dist + np.sqrt(dx * dx + dy * dy)).tolist())
        tested = []

        def is_visible(a, b, obstacles):
            tested.append(b)
            return oracle(a, b, obstacles)

        monkeypatch.setattr(csr_module, "is_visible", is_visible)
        stats = RuntimeStats()
        bound = (lows[3] + lows[4]) / 2.0
        cut = csr.last_leg(dist, goal, graph, bound=bound, stats=stats)
        assert sorted(tested) == sorted([root, *row])
        assert not any(map(partial(oracle, goal, obstacles=wall), tested))
        assert goal not in csr.anchors
        assert (stats.last_leg_probes, stats.last_leg_fallbacks) == (1, 0)
        tested.clear()
        assert csr.last_leg(dist, goal, graph, bound=0.0) == lows[0] > 0.0
        assert not tested
        ids, legs = graph.visible_ids([goal])[0]
        assert bound < cut == lows[4] <= float((dist[ids] + np.array(legs)).min())

    @pytest.mark.parametrize("method", ["numpy-kernel", "naive"])
    @PROBE_SETTINGS
    @given(scene=_lattice_scenes(), data=st.data())
    def test_batch_eval_is_the_swept_last_leg(self, probe_cap, method, scene, data):
        """A field's ``batch_eval`` against the same candidates read off
        a field whose candidates were all swept first: every value at
        most ``bound`` is identical, every cut one lies above ``bound``
        and at most the swept one (``bound = inf``: all identical)."""
        obstacles, root, goal, root_is_node = scene
        polys = [o.polygon for o in obstacles]
        candidates = [goal, *data.draw(st.lists(endpoints(polys), max_size=5))]
        bound = data.draw(st.sampled_from([math.inf, 0.5, 2.0, 5.0, 9.0]))

        def field(sweep_first):
            graph = VisibilityGraph.build(
                [root] if root_is_node else [], obstacles, method=method
            )
            if sweep_first:
                csr = frozen(graph)
                for c in candidates:
                    csr.anchors_for(c, graph)
            return SourceDistanceField(graph, root, grow=lambda r: False)

        probing = field(False)
        got = probing.batch_eval(candidates, bound=bound)
        swept = field(True).batch_eval(candidates)
        for c, d, want in zip(candidates, got, swept):
            assert _anchors_are_the_oracles(probing.graph, c)
            if d <= bound:
                assert d == want  # ==, not approx
            else:
                assert bound < d <= want


def _anchors_are_the_oracles(graph, p):
    """Whether ``graph``'s backend reports from ``p`` exactly the nodes
    the exact oracle sees, in id order: every backend decides each pair
    with the oracle's own predicate, so a probed last leg and an
    anchored one read the same nodes."""
    ids, __ = graph.visible_ids([p])[0]
    obstacles = graph.scene_obstacles()
    seen = [
        i for i, v in enumerate(graph.nodes()) if v != p and oracle(p, v, obstacles)
    ]
    return ids == seen
