"""Tangent visibility graphs for convex obstacles [PV95].

The paper notes (Sec. 2.3) that when all obstacles are convex it
suffices to consider the *tangent* visibility graph, which keeps only
edges tangent to the obstacles at both endpoints: a shortest path never
bends around a vertex from the non-tangent side, so pruning the other
edges preserves all shortest-path distances while shrinking the graph
substantially.

An edge is tangent at an obstacle vertex when both of the vertex's
polygon neighbours lie on the same side of (or on) the edge's
supporting line.  Free points (query points, entities) impose no
constraint.
"""

from __future__ import annotations

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.segment import COLLINEAR, ccw
from repro.model import Obstacle
from repro.visibility.graph import VisibilityGraph


def is_tangent_at(vertex: Point, other: Point, obstacle: Obstacle) -> bool:
    """True when segment ``vertex -> other`` is tangent to ``obstacle``
    at ``vertex`` (both boundary neighbours on one side of the line)."""
    vertices = obstacle.polygon.vertices
    try:
        i = vertices.index(vertex)
    except ValueError:
        raise GeometryError(f"{vertex!r} is not a vertex of {obstacle!r}") from None
    n = len(vertices)
    prev_v = vertices[(i - 1) % n]
    next_v = vertices[(i + 1) % n]
    s_prev = ccw(vertex, other, prev_v)
    s_next = ccw(vertex, other, next_v)
    if s_prev == COLLINEAR or s_next == COLLINEAR:
        return True
    return s_prev == s_next


def prune_to_tangent(graph: VisibilityGraph) -> int:
    """Remove all non-tangent edges from ``graph`` in place.

    Requires every obstacle in the graph to be convex (raises
    :class:`GeometryError` otherwise — the tangent property does not
    hold around reflex vertices).  Returns the number of undirected
    edges removed.  Shortest-path distances between the remaining nodes
    are preserved, which the test suite verifies against the unpruned
    graph.
    """
    for obs in graph.scene_obstacles():
        if not obs.polygon.is_convex():
            raise GeometryError(
                f"tangent pruning requires convex obstacles; {obs!r} is not"
            )
    points = list(graph.nodes())
    cut = [
        (u, v)
        for u, v in graph.edge_ids()
        if not _edge_is_tangent(graph, points[u], points[v])
    ]
    graph._remove_edges(cut)
    return len(cut)


def _edge_is_tangent(graph: VisibilityGraph, u: Point, v: Point) -> bool:
    for point, other in ((u, v), (v, u)):
        for obs in graph.boundary_obstacles(point):
            if point in obs.polygon.vertices:
                if not is_tangent_at(point, other, obs):
                    return False
    return True
