"""The clear radius: coverage grows without a retrieval exactly when no
obstacle the graph lacks can be in reach.

Every retrieval reports two bounds (``repro.euclidean.range.Retrieval``):
``clear_sq``, the least squared MINDIST among the R-tree entries its
filter pruned, and ``clear_d``, the least polygon distance among the
MBR hits its refinement rejected.  ``QueryContext._expand`` makes no
retrieval while ``r * r < clear_sq and r < clear_d``.  The property
below holds a cached entry to a fresh retrieval after every growth step
on the lattice scenes of ``tests/visibility/test_exact.py`` (touching
sides, shared corners, T-junctions, collinear runs and star-shaped
polygons), over one obstacle set and over two; radii are drawn on the
scene's own boundary values, where ``<`` and ``<=`` part.  The other
tests pin the upkeep: a routed insert lowers the bounds, a write behind
the feed still rebuilds, and a composite takes its members' least
bounds.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon, Rect
from tests.conftest import rect_obstacle, split_database
from tests.visibility.test_exact import fine, lattice, lattice_rects, star_polygons

#: The ``clear-radius`` profile (``tests/conftest.py``) at 100 examples,
#: or at the profile's own 500 when it is loaded
#: (``--hypothesis-profile clear-radius``).
CLEAR_RADIUS = settings(
    settings.get_profile("clear-radius"),
    max_examples=settings.default.max_examples,
)


@st.composite
def clear_scenes(draw: st.DrawFn) -> tuple[list[Polygon], Point]:
    """Up to 12 lattice rectangles and star polygons (deep trees at a
    fanout of 4) and a centre on the lattice, free, or on a vertex."""
    polys = draw(
        st.lists(st.one_of(lattice_rects(), star_polygons()), min_size=1, max_size=12)
    )
    vertices = [v for poly in polys for v in poly.vertices]
    center = draw(
        st.one_of(
            st.builds(Point, lattice, lattice),
            st.builds(Point, fine, fine),
            st.sampled_from(vertices),
        )
    )
    return polys, center


def _marks(polys: list[Polygon], center: Point) -> list[float]:
    """The radii where a retrieval around ``center`` changes: each
    obstacle's polygon and MBR distance, and the floats either side."""
    marks = []
    for poly in polys:
        for d in (poly.distance_to_point(center), math.sqrt(poly.mbr.mindist_point_sq(center))):
            marks += [d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)]
    return [m for m in marks if m > 0.0]


def _counted(source) -> tuple[list[float], object]:
    """Count ``source``'s retrievals; returns the radii log and the
    unwrapped retrieval (the oracle)."""
    original = source.obstacles_in_range
    calls: list[float] = []

    def spy(center, radius):
        calls.append(radius)
        return original(center, radius)

    source.obstacles_in_range = spy
    return calls, original


def _oids(found) -> set[int]:
    return {o.oid for o in found}


@pytest.mark.parametrize("sets", [1, 2])
@CLEAR_RADIUS
@given(scene=clear_scenes(), data=st.data())
def test_every_growth_step_holds_a_fresh_retrievals_obstacles(sets, scene, data):
    polys, center = scene
    db = split_database(polys, sets=sets, max_entries=4, min_entries=2)
    ctx = db.context
    calls, retrieve = _counted(db.obstacle_index)
    marks = _marks(polys, center)
    radius = st.one_of(st.sampled_from(marks), st.floats(0.0, 16.0)) if marks else st.floats(0.0, 16.0)
    first = data.draw(st.one_of(st.sampled_from(marks), st.floats(0.25, 8.0)) if marks else st.floats(0.25, 8.0))
    radii = sorted(data.draw(st.lists(radius, min_size=1, max_size=8)))

    entry = ctx.entry_for(center, first)
    assert entry.graph.obstacle_ids() == _oids(retrieve(center, first))

    # One step inside the clear radius: no retrieval, same obstacles.
    limit = min(math.sqrt(entry.clear_sq), entry.clear_d, entry.covered + 1.0)
    inside = (entry.covered + limit) / 2.0
    assume(entry.covered < inside and inside * inside < entry.clear_sq and inside < entry.clear_d)
    made, skips = len(calls), ctx.stats.clear_radius_skips
    ctx.cover(entry, center, inside)
    assert (len(calls), ctx.stats.clear_radius_skips) == (made, skips + 1)
    assert entry.covered == inside
    assert entry.graph.obstacle_ids() == _oids(retrieve(center, inside))

    for r in radii:
        ctx.cover(entry, center, r)
        assert entry.covered == max(entry.covered, r)
        assert entry.graph.obstacle_ids() == _oids(retrieve(center, entry.covered))
    db.close()


def _far_scene():
    """A wall beside the centre and one obstacle 48 away: a retrieval
    of radius 5 at the origin holds the wall and is clear to 48."""
    return [
        rect_obstacle(0, 2, -1, 3, 1),
        rect_obstacle(1, 48, -1, 49, 1),
    ]


def test_a_routed_insert_inside_the_clear_radius_is_found_by_the_next_growth():
    db = split_database([o.polygon for o in _far_scene()], max_entries=4, min_entries=2)
    ctx, origin = db.context, Point(0, 0)
    entry = ctx.entry_for(origin, 5.0)
    assert (entry.clear_sq, entry.clear_d) == (48.0 * 48.0, math.inf)
    # Lands between the coverage (5) and the clear radius (48): outside
    # the coverage disk, so the repair leaves it out of the graph.
    added = db.insert_obstacle(Polygon.from_rect(Rect(10, -1, 11, 1))).oid
    assert not entry.graph.has_obstacle(added)
    assert entry.clear_d == 10.0
    ctx.cover(entry, origin, 20.0)
    assert entry.graph.has_obstacle(added)
    assert ctx.stats.clear_radius_skips == 0
    # A growth that stays short of the new obstacle still skips.
    ctx.cover(entry, origin, 25.0)
    assert ctx.stats.clear_radius_skips == 1
    db.close()


def test_a_direct_tree_insert_behind_the_feed_still_rebuilds():
    db = split_database([o.polygon for o in _far_scene()], max_entries=4, min_entries=2)
    ctx, origin = db.context, Point(0, 0)
    entry = ctx.entry_for(origin, 5.0)
    behind = rect_obstacle(99, 10, -1, 11, 1)
    db.obstacle_index.tree.insert(behind, behind.mbr)
    ctx.cover(entry, origin, 20.0)
    assert ctx.stats.graph_rebuilds == 1
    assert ctx.stats.clear_radius_skips == 0
    assert entry.graph.has_obstacle(99)
    db.close()


def test_a_composite_takes_its_members_least_bounds():
    # Set one gets the rectangles, set two the triangle, whose MBR the
    # disk of radius 4.5 meets and whose polygon it does not.
    triangle = Polygon([Point(6, 3), Point(6, 6), Point(3, 6)])
    polys = [
        Polygon.from_rect(Rect(2, -1, 3, 1)),
        triangle,
        Polygon.from_rect(Rect(20, -1, 21, 1)),
        Polygon.from_rect(Rect(-30, -1, -29, 1)),
    ]
    db = split_database(polys, sets=2, max_entries=4, min_entries=2)
    composite, origin = db.obstacle_index, Point(0, 0)
    found = composite.obstacles_in_range(origin, 4.5)
    members = [index.obstacles_in_range(origin, 4.5) for index in composite.indexes]
    assert [(m.clear_sq, m.clear_d) for m in members] == [
        (20.0 * 20.0, math.inf),
        (29.0 * 29.0, triangle.distance_to_point(origin)),
    ]
    assert (found.clear_sq, found.clear_d) == (20.0 * 20.0, triangle.distance_to_point(origin))
    assert _oids(found) == _oids(members[0]) | _oids(members[1])
    db.close()


def test_the_skips_show_in_the_runtime_stats_and_the_metrics():
    # A source behind the wall: each distance bends, so its Fig. 8 loop
    # grows the graph at (5, 0) past |pq|, well inside the clear radius.
    db = split_database([o.polygon for o in _far_scene()], max_entries=4, min_entries=2)
    for x in (0.0, 0.5, 1.0):
        assert db.obstructed_distance(Point(x, 0.0), Point(5, 0)) > 5.0 - x
    stats = db.runtime_stats()
    assert stats["clear_radius_skips"] == stats["coverage_expansions"] > 0
    assert db.metrics().snapshot()["runtime"]["clear_radius_skips"] == stats["clear_radius_skips"]
    db.close()
