"""Anchors equal the oracle, one fixed case per (scene, kind of source,
decision path).

"Which nodes does ``p`` see" is decided pair by pair
(:func:`repro.visibility.kernel.exact.kernel_visible_ids`): every
``(p, v)``, ``v`` a node other than ``p``, goes to ``hidden_many``.
That call decides its pairs one of several ways — the scalar loop for
a handful, the array pass over one scene's segments x obstacles grid,
the same pass cut into cell-budget blocks, and the pass over every
(segment, obstacle of its scene) pair when scenes are laid end to end.
The hypothesis properties in ``test_backend_parity.py`` draw scenes
and sources at random; here every path is pinned on the same scenes
and on every kind of source: obstacle vertices, free points on and off
the graph, points on edges, strictly interior points, duplicates, and
points on an edge's line past its corner.  Each must see exactly what
``is_visible`` decides, in id order, at ``Point.distance`` bit for bit.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.geometry import Point, Polygon
from repro.model import Obstacle
from repro.visibility import VisibilityGraph, is_visible, resolve_backend
from repro.visibility.kernel import exact
from tests.conftest import random_disjoint_rects, random_free_points, rect_obstacle

pytest.importorskip("numpy")

P = Point


def _poly(oid, *xy):
    return Obstacle(oid, Polygon([P(x, y) for x, y in zip(xy[::2], xy[1::2])]))


def _random_rects():
    rng = random.Random(2024)
    obstacles = random_disjoint_rects(rng, 6)
    return (
        obstacles,
        random_free_points(rng, 3, obstacles),
        random_free_points(rng, 3, obstacles),
    )


def _street_grid():
    """Blocks sharing whole edges and corners, their sides lined up in
    collinear runs, and free points on the street lines."""
    obstacles = [
        rect_obstacle(0, 0, 0, 10, 4),
        rect_obstacle(1, 10, 0, 20, 4),
        rect_obstacle(2, 0, 10, 10, 14),
        rect_obstacle(3, 20, 10, 30, 14),
        rect_obstacle(4, 30, 14, 40, 18),
    ]
    return (
        obstacles,
        [P(-5, 4), P(45, 4), P(15, 7)],
        [P(25, 0), P(-5, 14), P(30, 7)],
    )


def _corner_touch():
    obstacles = [
        rect_obstacle(0, 0, 0, 10, 10),
        rect_obstacle(1, 10, 10, 20, 20),
        rect_obstacle(2, 20, 0, 30, 10),
    ]
    return obstacles, [P(5, 15), P(15, 5)], [P(-1, -1), P(21, 21), P(25, 15)]


def _t_junction():
    """A corner lying inside another obstacle's edge."""
    obstacles = [
        rect_obstacle(0, 10, 20, 20, 30),
        rect_obstacle(1, 0, 28, 10, 40),
        rect_obstacle(2, 20, 24, 26, 34),
    ]
    return obstacles, [P(15, 35), P(5, 20)], [P(-2, 28), P(30, 20), P(15, 10)]


def _non_convex():
    """Reflex vertices: an L, a U courtyard and a spiral pocket."""
    obstacles = [
        _poly(0, 0, 0, 6, 0, 6, 2, 2, 2, 2, 6, 0, 6),
        _poly(1, 10, 0, 40, 0, 40, 30, 30, 30, 30, 10, 20, 10, 20, 30, 10, 30),
        _poly(
            2, 50, 0, 90, 0, 90, 40, 60, 40, 60, 20, 70, 20, 70, 30, 80, 30,
            80, 10, 50, 10,
        ),
    ]
    return obstacles, [P(4, 4), P(25, 20), P(75, 25)], [P(-5, 3), P(25, 40), P(65, 25)]


def _convex_polygons():
    obstacles = [
        Obstacle(0, Polygon.regular(P(0, 0), 10, 8)),
        Obstacle(1, Polygon([P(20, -10), P(30, -10), P(25, -2)])),
        Obstacle(2, Polygon.regular(P(40, 10), 6, 6)),
        Obstacle(3, Polygon.regular(P(15, 20), 4, 5)),
    ]
    return obstacles, [P(-30, 0), P(25, 5)], [P(50, -5), P(0, 30), P(25, -20)]


#: Scenes: ``(obstacles, free points of the graph, points off it)``.
SCENES = {
    "random rectangles": _random_rects,
    "street grid": _street_grid,
    "corner touch": _corner_touch,
    "T junction": _t_junction,
    "non-convex": _non_convex,
    "convex polygons": _convex_polygons,
}


def _vertices(obstacles, in_graph, off):
    return [v for o in obstacles for v in o.polygon.vertices]


def _on_graph(obstacles, in_graph, off):
    return list(in_graph)


def _off_graph(obstacles, in_graph, off):
    return list(off)


def _on_edges(obstacles, in_graph, off):
    return [
        o.polygon.boundary_point_at(s) for o in obstacles for s in (0.125, 0.4, 0.7)
    ]


def _interior(obstacles, in_graph, off):
    """Per obstacle, its centroid and a point just left of (inside, the
    polygon being CCW) each edge's midpoint — those strictly inside."""
    points = []
    for o in obstacles:
        points.append(o.polygon.centroid())
        for a, b in o.polygon.edges():
            dx, dy = b.x - a.x, b.y - a.y
            points.append(P((a.x + b.x) / 2 - 0.01 * dy, (a.y + b.y) / 2 + 0.01 * dx))
    return [p for p in points if any(o.polygon.contains(p) for o in obstacles)]


def _duplicates(obstacles, in_graph, off):
    vertex = obstacles[0].polygon.vertices[0]
    return [in_graph[0], vertex, in_graph[0], off[0], vertex, off[0], off[0]]


def _edge_lines(obstacles, in_graph, off):
    """Points on an edge's line, a quarter of its length past its end:
    free, on another obstacle's boundary or inside one."""
    return [
        P(b.x + (b.x - a.x) / 4, b.y + (b.y - a.y) / 4)
        for o in obstacles
        for a, b in o.polygon.edges()
    ]


#: Kinds of source, each drawn from a scene.
KINDS = {
    "vertices": _vertices,
    "free points on the graph": _on_graph,
    "free points off the graph": _off_graph,
    "points on edges": _on_edges,
    "strictly interior points": _interior,
    "duplicates": _duplicates,
    "edge lines past the corners": _edge_lines,
}

#: How ``hidden_many`` decides the pairs: ``(_MIN_ARRAY_PAIRS,
#: _PAIR_CELLS, lay another scene first)``.
PATHS = {
    "scalar loop": (math.inf, None, False),
    "array pass": (0, None, False),
    "one segment per call": (0, 1, False),
    "behind another scene": (0, None, True),
}


def _oracle(sources, graph, obstacles):
    nodes = list(graph.nodes())
    out = []
    for s in sources:
        ids = [i for i, v in enumerate(nodes) if v != s and is_visible(s, v, obstacles)]
        out.append((ids, [s.distance(nodes[i]) for i in ids]))
    return out


def _decoy():
    """An unrelated scene and sources, laid before the one under test."""
    rng = random.Random(7)
    obstacles = random_disjoint_rects(rng, 5)
    graph = VisibilityGraph.build(
        random_free_points(rng, 2, obstacles), obstacles, method="numpy-kernel"
    )
    sources = _vertices(obstacles, (), ())[:6] + random_free_points(rng, 2, obstacles)
    return (sources, graph), _oracle(sources, graph, obstacles)


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("scene", list(SCENES))
def test_anchors_are_the_oracle(scene, kind, path, monkeypatch):
    obstacles, in_graph, off = SCENES[scene]()
    sources = KINDS[kind](obstacles, in_graph, off)
    assert sources
    min_pairs, cells, behind = PATHS[path]
    monkeypatch.setattr(exact, "_MIN_ARRAY_PAIRS", min_pairs)
    if cells is not None:
        monkeypatch.setattr(exact, "_PAIR_CELLS", cells)
    graph = VisibilityGraph.build(in_graph, obstacles, method="numpy-kernel")
    want = _oracle(sources, graph, obstacles)
    backend = resolve_backend("numpy-kernel")
    if behind:
        decoy, decoy_want = _decoy()
        assert backend.visible_ids([decoy, (sources, graph)]) == [decoy_want, want]
    else:
        assert backend.visible_ids([(sources, graph)]) == [want]
