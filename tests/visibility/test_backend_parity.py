"""Backend parity: the vectorized kernel must return *identical*
visible sets to the python sweep — on random scenes, on degenerate
collinear/touching scenes, and through every dynamic update — and
both must match the exact pairwise oracle."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon, Rect
from repro.model import Obstacle
from repro.visibility import (
    VisibilityGraph,
    available_backends,
    is_visible,
    resolve_backend,
)
from repro.visibility.csr import frozen
from tests.conftest import random_disjoint_rects, random_free_points, rect_obstacle
from tests.reference_field import FullGraph, reference_dijkstra
from tests.strategies import disjoint_rect_obstacles, free_points

pytest.importorskip("numpy")

PY = "python-sweep"
NP = "numpy-kernel"


def _visible_sets(points, obstacles, method):
    g = VisibilityGraph.build(points, obstacles, method=method)
    backend = resolve_backend(method)
    return {u: frozenset(backend.visible_from(u, g)) for u in g.nodes()}


def _assert_backend_parity(points, obstacles, tag=""):
    py = _visible_sets(points, obstacles, PY)
    np_ = _visible_sets(points, obstacles, NP)
    assert set(py) == set(np_)
    for u in py:
        assert py[u] == np_[u], f"{tag}: backends diverge at {u}"
    # ... and both match the pairwise oracle.
    nodes = list(py)
    for u in nodes:
        want = frozenset(
            v for v in nodes if v != u and is_visible(u, v, obstacles)
        )
        assert py[u] == want, f"{tag}: python-sweep vs oracle at {u}"
        assert np_[u] == want, f"{tag}: numpy-kernel vs oracle at {u}"


class TestRegistry:
    def test_all_backends_listed(self):
        assert available_backends() == ["naive", "numpy-kernel", "python-sweep"]

    def test_unknown_backend_rejected(self):
        from repro.errors import QueryError

        for name in ("fortran-kernel", "sweep"):  # no aliases: one name each
            with pytest.raises(QueryError):
                resolve_backend(name)

    def test_graph_records_backend_name(self):
        g = VisibilityGraph(method=NP)
        assert g.method == NP

    def test_auto_pick_is_the_numpy_kernel(self):
        assert resolve_backend(None).name == NP


class TestRandomScenes:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_rect_scenes(self, seed):
        rng = random.Random(seed * 131 + 17)
        obstacles = random_disjoint_rects(rng, rng.randint(1, 10))
        points = random_free_points(rng, 6, obstacles)
        _assert_backend_parity(points, obstacles, f"seed {seed}")

    @pytest.mark.parametrize("seed", range(6))
    def test_polygon_scenes(self, seed):
        """Non-rectangular obstacles: L-shapes exercise reflex vertices."""
        rng = random.Random(seed * 59 + 11)
        obstacles = []
        for oid, x0 in enumerate(range(0, 90, 30)):
            y0 = rng.choice((0, 40))
            s = rng.uniform(8, 14)
            obstacles.append(
                Obstacle(
                    oid,
                    Polygon(
                        [
                            Point(x0, y0),
                            Point(x0 + s, y0),
                            Point(x0 + s, y0 + s / 3),
                            Point(x0 + s / 3, y0 + s / 3),
                            Point(x0 + s / 3, y0 + s),
                            Point(x0, y0 + s),
                        ]
                    ),
                )
            )
        points = random_free_points(rng, 5, obstacles)
        _assert_backend_parity(points, obstacles, f"L-seed {seed}")


class TestDegenerateScenes:
    def test_collinear_row_of_boxes(self):
        obstacles = [
            rect_obstacle(0, 0, 0, 10, 10),
            rect_obstacle(1, 20, 0, 30, 10),
            rect_obstacle(2, 40, 0, 50, 10),
        ]
        points = [
            Point(15, 0),   # on the shared bottom edge line, between boxes
            Point(35, 10),  # on the shared top edge line
            Point(-5, 0),
            Point(55, 0),
            Point(5, 0),    # on a boundary edge
            Point(25, 10),  # on a boundary edge
        ]
        _assert_backend_parity(points, obstacles, "collinear row")

    def test_vertex_touching_diagonal(self):
        """Boxes touching corner-to-corner: rays through shared vertices."""
        obstacles = [
            rect_obstacle(0, 0, 0, 10, 10),
            rect_obstacle(1, 10, 10, 20, 20),
        ]
        points = [Point(5, 15), Point(15, 5), Point(-1, -1), Point(21, 21)]
        _assert_backend_parity(points, obstacles, "corner touch")

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_aligned_with_boundary_entities(self, seed):
        rng = random.Random(seed * 17 + 3)
        obstacles, occupied = [], []
        for y in (10, 10, 30, 50):
            x0 = rng.choice((0, 20, 40, 60))
            rect = Rect(x0, y, x0 + rng.choice((10, 15)), y + 4)
            if any(rect.intersects(o) for o in occupied):
                continue
            occupied.append(rect)
            obstacles.append(
                rect_obstacle(
                    len(obstacles), rect.minx, rect.miny, rect.maxx, rect.maxy
                )
            )
        points = [o.polygon.boundary_point_at(rng.random()) for o in obstacles]
        points += [Point(-5, 10), Point(100, 10), Point(-5, 14)]
        points = [
            p for p in points if not any(o.polygon.contains(p) for o in obstacles)
        ]
        _assert_backend_parity(points, obstacles, f"grid {seed}")


    @pytest.mark.parametrize("method", [PY, NP, "naive"])
    def test_t_junction_corner_sees_through_no_edge(self, method):
        """A corner lying inside another obstacle's edge: the segment
        from it into that obstacle leaves through the interior, so no
        backend may see across it — whichever polygon owns the corner."""
        obstacles = [
            rect_obstacle(0, 10, 20, 20, 30),
            rect_obstacle(1, 0, 28, 10, 40),
        ]
        corner, across = Point(10, 28), Point(15, 30)
        assert not is_visible(corner, across, obstacles)
        g = VisibilityGraph.build([across], obstacles, method=method)
        seen = resolve_backend(method).visible_from(corner, g)
        assert across not in seen
        assert set(seen) == {
            v for v in g.nodes() if v != corner and is_visible(corner, v, obstacles)
        }


class TestOutOfContractInputs:
    """Valid scenes never place points inside obstacles, but the
    backends must stay oracle-identical even on such inputs: a center
    strictly inside an obstacle sees nothing."""

    @pytest.mark.parametrize("method", [PY, NP, "naive"])
    def test_interior_center_sees_nothing(self, method):
        obstacles = [rect_obstacle(0, 1, 9, 3, 12)]
        inside = Point(2, 11)
        boundary = Point(3, 10)
        g = VisibilityGraph.build([inside, boundary], obstacles, method=method)
        assert resolve_backend(method).visible_from(inside, g) == []
        assert dict(g.neighbors(inside)) == {}

    def test_interior_query_distance_agrees_across_backends(self):
        from math import isinf

        from repro.core.engine import ObstacleDatabase
        from repro.geometry import Rect

        results = set()
        for method in (PY, NP, "naive"):
            db = ObstacleDatabase([Rect(1, 9, 3, 12)], backend=method)
            d = db.obstructed_distance((2, 11), (3, 10))
            results.add(d)
        assert len(results) == 1
        assert isinf(results.pop())


class TestDynamicParity:
    """Both backends stay identical through incremental maintenance —
    the packed scene must track add_obstacle / add_entity /
    delete_entity exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_updates_converge(self, seed):
        rng = random.Random(seed * 7 + 1)
        obstacles = random_disjoint_rects(rng, 8)
        points = random_free_points(rng, 4, obstacles)
        half = len(obstacles) // 2
        gp = VisibilityGraph.build(points, obstacles[:half], method=PY)
        gn = VisibilityGraph.build(points, obstacles[:half], method=NP)
        gn.packed_scene()  # force the packed mirror before the updates
        for obs in obstacles[half:]:
            gp.add_obstacle(obs)
            gn.add_obstacle(obs)
        extra = random_free_points(rng, 4, obstacles)
        for p in extra:
            gp.add_entity(p)
            gn.add_entity(p)
        for p in extra[:2]:
            gp.delete_entity(p)
            gn.delete_entity(p)
        for p in random_free_points(rng, 2, obstacles):
            gp.add_entity(p)  # exercises swap-remove slot reuse
            gn.add_entity(p)
        assert {u: dict(gp.neighbors(u)) for u in gp.nodes()} == {
            u: dict(gn.neighbors(u)) for u in gn.nodes()
        }

    @pytest.mark.parametrize("method", [PY, NP])
    def test_entity_promoted_to_obstacle_vertex_survives_delete(self, method):
        """An entity coinciding with a later obstacle's vertex becomes
        that vertex: delete_entity must refuse to tear it out of the
        graph, and the packed scene must not keep a stale free copy."""
        g = VisibilityGraph(method=method)
        corner = Point(4, 4)
        assert g.add_entity(corner)
        if method == NP:
            g.packed_scene()
        g.add_obstacle(rect_obstacle(99, 4, 4, 6, 6))
        assert not g.delete_entity(corner)
        assert g.has_node(corner)
        # Along the square's bottom side: tangent at the corner.
        assert g.add_entity(Point(3, 4))  # connects again; must not crash
        assert corner in g.neighbors(Point(3, 4))
        if method == NP:
            packed = g.packed_scene()
            assert g.free_points() == {Point(3, 4)}
            assert g.node_id(corner) in packed.edge_endpoints()[0].tolist()

    @pytest.mark.parametrize("method", [PY, NP])
    def test_build_with_vertex_coincident_point_is_not_deletable(self, method):
        """Same invariant through the other registration order: build()
        registers obstacles first, so a point list containing an
        obstacle-vertex coordinate must not make that vertex an
        entity."""
        corner = Point(4, 4)
        g = VisibilityGraph.build(
            [corner, Point(0, 0)], [rect_obstacle(0, 4, 4, 6, 6)], method=method
        )
        assert corner not in g.free_points()
        assert not g.delete_entity(corner)
        assert g.has_node(corner)
        assert g.add_entity(Point(3, 4))  # must not crash on stale nodes
        assert corner in g.neighbors(Point(3, 4))

    def test_rebuild_resets_packed_scene(self):
        obstacles = [rect_obstacle(0, 0, 0, 10, 10)]
        g = VisibilityGraph.build([Point(-5, -5)], obstacles, method=NP)
        packed = g.packed_scene()
        assert packed.edge_count == 4
        g.rebuild([rect_obstacle(1, 20, 20, 30, 30), rect_obstacle(2, 40, 0, 45, 5)])
        fresh = g.packed_scene()
        assert fresh is not packed
        assert fresh.edge_count == 8
        assert fresh.sweep_arrays()[0].shape == (2, 9)


class TestResidualInteriorCheck:
    """The vectorized residual `crosses_interior` check: sweep centers
    on obstacle boundaries whose rays dive straight through their own
    polygon's interior generate no crossing candidates and are decided
    by the (now batched) midpoint containment."""

    def test_interior_diagonals_blocked(self):
        """Opposite rectangle corners see each other only around the
        outside, never through the diagonal."""
        obstacles = [rect_obstacle(0, 10, 10, 20, 18)]
        for method in (PY, NP):
            g = VisibilityGraph.build([], obstacles, method=method)
            corners = obstacles[0].polygon.vertices
            for u in corners:
                nbrs = set(resolve_backend(method).visible_from(u, g))
                # Adjacent corners visible, opposite corner is not.
                assert len(nbrs & set(corners)) == 2, method

    def test_concave_polygon_pocket(self):
        """A U-shaped polygon: vertices across the pocket see each
        other (segment through free space), vertices across an arm do
        not — both via the residual check, no blocking candidates."""
        u_shape = Obstacle(
            0,
            Polygon(
                [
                    Point(0, 0), Point(30, 0), Point(30, 20), Point(20, 20),
                    Point(20, 6), Point(10, 6), Point(10, 20), Point(0, 20),
                ]
            ),
        )
        points = [Point(15, 25), Point(-5, 10), Point(35, 10)]
        _assert_backend_parity(points, [u_shape], "U pocket")

    def test_entity_on_edge_interior(self):
        """Entities sitting on (not at a vertex of) obstacle edges:
        the residual midpoint falls on/near the boundary and must be
        settled exactly, on both sides of the edge."""
        obstacles = [rect_obstacle(0, 10, 10, 20, 18)]
        points = [
            Point(15, 10),  # bottom edge midpoint
            Point(15, 18),  # top edge midpoint
            Point(20, 14),  # right edge midpoint
            Point(15, 5),
            Point(15, 25),
        ]
        _assert_backend_parity(points, obstacles, "edge entities")

    def test_collinear_run_along_boundary(self):
        """A target collinear with a boundary edge through the center:
        the grazing run must not read as an interior departure."""
        obstacles = [rect_obstacle(0, 10, 10, 20, 18)]
        points = [Point(5, 10), Point(25, 10), Point(30, 10)]
        _assert_backend_parity(points, obstacles, "boundary graze")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(disjoint_rect_obstacles())
def test_property_backends_agree_on_random_scenes(obstacles):
    py = _visible_sets([], obstacles, PY)
    np_ = _visible_sets([], obstacles, NP)
    assert py == np_
    nodes = list(py)
    for u in nodes[: min(len(nodes), 8)]:
        want = frozenset(
            v for v in nodes if v != u and is_visible(u, v, obstacles)
        )
        assert np_[u] == want


# ------------------------------------------------------- batch equals loop
@st.composite
def grid_aligned_obstacles(draw):
    """Rectangles snapped to a coarse grid, each side either flush with
    its cell or inset: neighbours touch along whole edges, share
    corners, and line their edges up in collinear runs."""
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    inset = st.sampled_from((0.0, 2.0))
    obstacles = []
    for oid, (i, j) in enumerate(cells):
        x0, y0 = 10.0 * i, 10.0 * j
        obstacles.append(
            rect_obstacle(
                oid,
                x0 + draw(inset),
                y0 + draw(inset),
                x0 + 10.0 - draw(inset),
                y0 + 10.0 - draw(inset),
            )
        )
    return obstacles


@st.composite
def scene_and_sources(draw):
    """A scene (random-disjoint or grid-aligned) with in-graph free
    points, and a source list mixing every kind of sweep center."""
    obstacles = draw(st.one_of(disjoint_rect_obstacles(), grid_aligned_obstacles()))
    in_graph = draw(free_points(obstacles, min_count=1, max_count=4))
    off_graph = draw(free_points(obstacles, min_count=1, max_count=4))
    vertices = [v for o in obstacles for v in o.polygon.vertices]
    on_edges = [
        o.polygon.boundary_point_at(draw(st.floats(0.0, 0.999)))
        for o in obstacles[:3]
    ]
    interior = [o.polygon.centroid() for o in obstacles[:2]]
    pool = vertices + in_graph + off_graph + on_edges + interior
    sources = draw(st.lists(st.sampled_from(pool), max_size=12))
    return obstacles, in_graph, sources


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("method", [PY, NP, "naive"])
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(scene_and_sources())
def test_property_batch_equals_loop(method, budget, monkeypatch, case):
    """``visible_from_many(S)`` is ``[visible_from(s) for s in S]``,
    order included, for obstacle vertices, in-graph and off-graph free
    points, points on edges, strictly interior points, duplicates and
    ``[]`` — whether the kernel takes the sources in one pass or (pair
    budget 1) one source per pass."""
    from repro.visibility.kernel import numpy_sweep

    if budget is not None:
        monkeypatch.setattr(numpy_sweep, "_PAIR_BUDGET", budget)
    obstacles, in_graph, sources = case
    g = VisibilityGraph.build(in_graph, obstacles, method=method)
    backend = resolve_backend(method)
    assert backend.visible_from_many(sources, g) == [
        backend.visible_from(s, g) for s in sources
    ]
    assert backend.visible_from_many([], g) == []


def _assert_kernel_matches_oracle(obstacles, in_graph, sources):
    g = VisibilityGraph.build(in_graph, obstacles, method=NP)
    seen = resolve_backend(NP).visible_from_many(sources, g)
    for s, visible in zip(sources, seen):
        want = {v for v in g.nodes() if v != s and is_visible(s, v, obstacles)}
        assert set(visible) == want, f"kernel vs oracle at {s}"


# Derandomized while ROADMAP defect 1(c) is open: a random draw can hit
# the case pinned below, and tier-1 must not go red at random.
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)
@given(scene_and_sources())
def test_property_batched_kernel_matches_oracle(case):
    """Every kind of source, swept in one kernel call, sees exactly
    what the pairwise oracle sees."""
    _assert_kernel_matches_oracle(*case)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1, defect (c)")
def test_known_kernel_vs_oracle_counterexample():
    """The falsifying example hypothesis found for the property above
    (``@seed(68)``, 60 examples), shrunk to two obstacles: a source on
    an obstacle's edge one ulp below its corner does not see the facing
    corner of the obstacle above, which ``is_visible`` says it sees.
    Fixing the defect means deleting this marker."""
    top = 15.30497557054006
    _assert_kernel_matches_oracle(
        [rect_obstacle(0, 25, 5, 35, top), rect_obstacle(1, 25, 25, 35, 35)],
        [Point(0, 0)],
        [Point(35, 15.304975570540059)],
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1, defect (e)")
@pytest.mark.parametrize("backend", [PY, "naive", NP])
def test_known_eps_band_counterexample(backend):
    """A falsifying example of ``test_tangent.py::
    test_every_graph_is_the_tangent_graph``: a free point 1e-9 inside
    the left edge of the square ``[0, 1] x [6, 7]``, in the EPS band of
    the scalar predicates.  Built with no obstacle, then given the
    square, the graph leaves it unreachable from ``(0, 0)``, where the
    full graph's pairwise oracle reaches it at 6.5.  Fixing the defect
    means deleting this marker."""
    square = rect_obstacle(0, 0, 6, 1, 7)
    a, b = Point(0, 0), Point(1e-09, 6.5)
    graph = VisibilityGraph.build([b, a], [], method=backend)
    graph.add_obstacles([square])
    csr = frozen(graph)
    want = reference_dijkstra(FullGraph(graph.nodes(), [square]), a)[b]
    assert want == 6.5
    assert csr.field(a, graph)[csr.index[b]] == want


# ------------------------------------------------ scenes equal their loop
@st.composite
def small_scene_and_sources(draw):
    """One small scene — no obstacle at all up to four, random-disjoint
    or grid-aligned — and sources on its vertices, on its boundaries,
    strictly inside an obstacle, on and off the graph."""
    obstacles = draw(
        st.one_of(
            st.just([]),
            disjoint_rect_obstacles(max_count=4),
            grid_aligned_obstacles().map(lambda many: many[:4]),
        )
    )
    in_graph = draw(free_points(obstacles, min_count=1, max_count=2))
    pool = in_graph + draw(free_points(obstacles, min_count=1, max_count=3))
    for obs in obstacles:
        pool += obs.polygon.vertices
        pool.append(obs.polygon.boundary_point_at(draw(st.floats(0.0, 0.999))))
        pool.append(obs.polygon.centroid())
    return obstacles, in_graph, draw(st.lists(st.sampled_from(pool), max_size=6))


@pytest.mark.parametrize("budget", [1, 64, float("inf")])
@pytest.mark.parametrize("method", [PY, NP, "naive"])
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    cases=st.lists(small_scene_and_sources(), min_size=1, max_size=8),
    data=st.data(),
)
def test_property_scenes_equal_their_loop(method, budget, monkeypatch, cases, data):
    """``visible_from_scenes`` is ``[visible_from_many(sources, graph)
    for ...]``, list for list and order included, however the scenes
    are ordered in the call and wherever the kernel's pair budget cuts
    it: passes that cut a scene's sources in two (1), passes that hold
    a scene or a few (64), one pass for all."""
    from repro.visibility.kernel import numpy_sweep

    monkeypatch.setattr(numpy_sweep, "_PAIR_BUDGET", budget)
    backend = resolve_backend(method)
    scenes = [
        (sources, VisibilityGraph.build(in_graph, obstacles, method=method))
        for obstacles, in_graph, sources in cases
    ]
    want = [backend.visible_from_many(sources, graph) for sources, graph in scenes]
    assert backend.visible_from_scenes(scenes) == want
    order = data.draw(st.permutations(range(len(scenes))))
    assert backend.visible_from_scenes([scenes[k] for k in order]) == [
        want[k] for k in order
    ]
    assert backend.visible_from_scenes([]) == []


@pytest.mark.parametrize("method", [PY, "naive"])
def test_reference_backends_never_enter_the_kernel(method, monkeypatch):
    """The looping scenes entry of ``naive`` / ``python-sweep`` — a
    graph build, a growth step, a many-graph connect — stays a
    reference that never touches the arrays."""
    from repro.visibility.kernel import numpy_sweep

    def broken(*args, **kwargs):
        raise AssertionError("a reference backend reached the numpy kernel")

    for name in ("kernel_visible_from_scenes", "_sweep_scenes", "_lay_out"):
        monkeypatch.setattr(numpy_sweep, name, broken)
    obstacles = [rect_obstacle(k, 10 * k, 0, 10 * k + 6, 6) for k in range(4)]
    graphs = [
        VisibilityGraph.registered([Point(-3, 8 + k)], obstacles[:2], method=method)
        for k in range(3)
    ]
    VisibilityGraph.connect(graphs)
    assert graphs[0].add_obstacles(obstacles) == 2
    built = VisibilityGraph.build([Point(-3, 8)], obstacles, method=method)
    assert {u: dict(graphs[0].neighbors(u)) for u in graphs[0].nodes()} == {
        u: dict(built.neighbors(u)) for u in built.nodes()
    }
    with pytest.raises(AssertionError, match="reached the numpy kernel"):
        VisibilityGraph.build([], obstacles, method=NP)
