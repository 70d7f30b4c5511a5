"""Rotational plane sweep for visible-vertex computation [SS84].

For a sweep center ``p``, events (all obstacle vertices plus any free
points in the scene) are processed in increasing polar angle; a set of
*open edges* — obstacle edges straddling the current ray, ordered by
intersection distance — decides whether each event point is visible.
Each sweep costs ``O(n log n)`` for ``n`` events, giving the
``O(n^2 log n)`` graph construction the paper reports.

Degenerate contacts (rays through vertices, collinear boundary runs,
entities lying exactly on obstacle edges) are resolved by delegating
the single affected decision to the exact oracle
(:func:`repro.visibility.naive.is_visible`), so the sweep is fast in
general position and exact everywhere.
"""

from __future__ import annotations

from typing import Protocol, Iterable, Sequence

from repro.geometry.constants import EPS
from repro.geometry.point import Point
from repro.geometry.segment import CCW, CW, ccw, segment_intersection_params
from repro.model import Obstacle
from repro.visibility.edges import BoundaryEdge, OpenEdges
from repro.visibility.ordering import sort_events

#: Blocking classification for the closest open edge.
_CLEAR = 0
_BLOCKED = 1
_AMBIGUOUS = 2


class SweepScene(Protocol):
    """What the sweep needs to know about the world.

    :class:`repro.visibility.graph.VisibilityGraph` implements this
    protocol; tests provide lightweight fakes.
    """

    def sweep_points(self) -> Iterable[Point]:
        """Every event point: obstacle vertices and free points."""

    def incident_edges(self, v: Point) -> Sequence[BoundaryEdge]:
        """Obstacle boundary edges having ``v`` as an endpoint."""

    def boundary_edges(self) -> Iterable[BoundaryEdge]:
        """All obstacle boundary edges in the scene."""

    def scene_obstacles(self) -> Sequence[Obstacle]:
        """All obstacles in the scene (for the exact fallback)."""


def visible_from(p: Point, scene: SweepScene) -> list[Point]:
    """All scene points visible from ``p``, via one rotational sweep."""
    events = [w for w in scene.sweep_points() if w != p]
    if not events:
        return []
    obstacles = scene.scene_obstacles()
    # A center strictly inside an obstacle sees nothing: every segment
    # leaves through the interior — a vertex of one obstacle included,
    # when it lies inside an overlapping one.  (The sweep must agree
    # with the exact oracle, and the other backends, on such inputs.)
    # Every obstacle whose boundary holds the center counts, not only
    # the polygon it is a vertex of: a corner lying on another
    # obstacle's edge (a T-junction) must not see through that one.
    p_boundary: list[Obstacle] = []
    for obs in obstacles:
        if obs.polygon.contains(p):
            return []
        if obs.polygon.on_boundary(p):
            p_boundary.append(obs)
    events = sort_events(p, events)
    open_edges = OpenEdges(p)
    _load_initial_edges(p, scene, open_edges)
    visible: list[Point] = []
    for w in events:
        incident = scene.incident_edges(w)
        # Close edges ending at w on the already-swept (clockwise) side.
        for edge in incident:
            if edge.has_endpoint(p):
                continue
            if ccw(p, w, edge.other(w)) == CW:
                open_edges.delete(w, edge)
        if _is_visible(p, w, open_edges, obstacles, p_boundary):
            visible.append(w)
        # Open edges starting at w on the yet-to-sweep side.
        for edge in incident:
            if edge.has_endpoint(p):
                continue
            if ccw(p, w, edge.other(w)) == CCW:
                open_edges.insert(w, edge)
    return visible


def _is_visible(
    p: Point,
    w: Point,
    open_edges: OpenEdges,
    obstacles: Sequence[Obstacle],
    p_boundary: Sequence[Obstacle],
) -> bool:
    if open_edges:
        status = _blocking_status(p, w, open_edges.smallest())
        if status == _BLOCKED:
            return False
        if status == _AMBIGUOUS:
            return _exact_visible(p, w, obstacles)
    # No open edge blocks the segment.  The remaining hazard is a
    # segment that leaves ``p`` straight through the interior of an
    # obstacle whose boundary contains ``p`` (an interior diagonal of
    # p's own polygon, or p being an entity on an obstacle edge): such
    # a segment generates no crossing events at all.
    for obs in p_boundary:
        if obs.polygon.crosses_interior(p, w):
            return False
    return True


def _blocking_status(p: Point, w: Point, edge: BoundaryEdge) -> int:
    """Classify how the closest open edge relates to segment ``p-w``.

    ``_BLOCKED``  — proper interior crossing: definitely invisible.
    ``_CLEAR``    — no contact before ``w``: this edge cannot block, and
                    since it is the closest, nothing does.
    ``_AMBIGUOUS``— grazing contact (through a vertex, collinear run,
                    contact at an endpoint): delegate to the oracle.
    """
    params = segment_intersection_params(p, w, edge.p1, edge.p2)
    if not params:
        return _CLEAR
    t0 = params[0]
    t1 = params[-1]
    seg_len = p.distance(w)
    tol = EPS * (seg_len + 1.0) / (seg_len + EPS)
    if t0 >= 1.0 - tol:
        return _CLEAR  # touches only at (or beyond) w
    # Contact strictly before w.  Proper transversal crossing?
    d1 = ccw(edge.p1, edge.p2, p)
    d2 = ccw(edge.p1, edge.p2, w)
    d3 = ccw(p, w, edge.p1)
    d4 = ccw(p, w, edge.p2)
    if d1 * d2 < 0 and d3 * d4 < 0 and t0 > tol and t1 < 1.0 - tol:
        return _BLOCKED
    return _AMBIGUOUS


def _exact_visible(p: Point, w: Point, obstacles: Sequence[Obstacle]) -> bool:
    from repro.visibility.naive import is_visible

    return is_visible(p, w, obstacles)


def _load_initial_edges(
    p: Point, scene: SweepScene, open_edges: OpenEdges
) -> None:
    """Open every edge properly crossing the initial ray (angle 0, +x).

    Edges merely touching the ray at an endpoint are skipped: they are
    opened/closed when the sweep reaches that endpoint's event.
    """
    w0 = Point(p.x + 1.0, p.y)
    for edge in scene.boundary_edges():
        if edge.has_endpoint(p):
            continue
        a, b = edge.p1, edge.p2
        # Strict straddle of the horizontal line through p.
        if (a.y - p.y) * (b.y - p.y) >= 0.0:
            continue
        # Intersection with the line y == p.y must be strictly right of p.
        t = (p.y - a.y) / (b.y - a.y)
        x_cross = a.x + t * (b.x - a.x)
        if x_cross > p.x + EPS * (abs(p.x) + 1.0):
            open_edges.insert(w0, edge)
