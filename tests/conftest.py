"""Shared fixtures and oracles for the repro test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

from repro.geometry import Point, Polygon, Rect
from repro.index import RStarTree
from repro.model import Obstacle
from repro.visibility import VisibilityGraph
from tests.reference_field import graph_distance


#: The sign filters' property (``tests/visibility/test_exact.py``), whole:
#: ``--hypothesis-profile sign-filter`` runs it at 2,000 examples.
settings.register_profile(
    "sign-filter",
    max_examples=2_000,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)

#: Anchors against the pairwise oracle
#: (``tests/visibility/test_backend_parity.py``):
#: ``--hypothesis-profile visibility-oracle`` runs it at 500 examples.
settings.register_profile(
    "visibility-oracle",
    max_examples=500,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)

#: The closest-pair stream against the one-side traversal
#: (``tests/euclidean/test_array_parity.py``):
#: ``--hypothesis-profile closest-pairs`` runs it at 1,000 examples.
settings.register_profile(
    "closest-pairs",
    max_examples=1_000,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


def rect_obstacle(oid: int, x0: float, y0: float, x1: float, y1: float) -> Obstacle:
    """Convenience: a rectangular obstacle."""
    return Obstacle(oid, Polygon.from_rect(Rect(x0, y0, x1, y1)))


def random_disjoint_rects(
    rng: random.Random,
    count: int,
    universe: float = 100.0,
    min_size: float = 2.0,
    max_size: float = 15.0,
    gap: float = 0.5,
) -> list[Obstacle]:
    """Up to ``count`` disjoint rectangle obstacles via rejection sampling."""
    placed: list[Rect] = []
    obstacles: list[Obstacle] = []
    for __ in range(count):
        for __attempt in range(50):
            x0 = rng.uniform(0, universe * 0.8)
            y0 = rng.uniform(0, universe * 0.8)
            w = rng.uniform(min_size, max_size)
            h = rng.uniform(min_size, max_size)
            rect = Rect(x0, y0, x0 + w, y0 + h)
            if all(not rect.expanded(gap).intersects(p) for p in placed):
                placed.append(rect)
                obstacles.append(rect_obstacle(len(obstacles), x0, y0, x0 + w, y0 + h))
                break
    return obstacles


def random_free_points(
    rng: random.Random,
    count: int,
    obstacles: list[Obstacle],
    universe: float = 100.0,
) -> list[Point]:
    """Points outside every obstacle's closed region."""
    points: list[Point] = []
    while len(points) < count:
        p = Point(rng.uniform(-5, universe + 5), rng.uniform(-5, universe + 5))
        if not any(o.polygon.contains_or_boundary(p) for o in obstacles):
            points.append(p)
    return points


def static_version(center: Point, radius: float) -> tuple[int, ...]:
    """``version_for`` of an obstacle source that never changes."""
    return ()


def oracle_distance(a: Point, b: Point, obstacles: list[Obstacle]) -> float:
    """Ground-truth obstructed distance via a *global* visibility graph
    (an endpoint on an obstacle vertex joined to every node it sees)."""
    graph = VisibilityGraph.build([a, b], obstacles)
    return graph_distance(graph, a, b)


def small_tree(points: list[Point], *, max_entries: int = 8) -> RStarTree:
    """An R*-tree with tiny fanout (deep trees from few points)."""
    tree = RStarTree(max_entries=max_entries, min_entries=max(2, max_entries // 3))
    for p in points:
        tree.insert(p, Rect.from_point(p))
    return tree


@pytest.fixture
def paper_scene() -> tuple[list[Obstacle], list[Point]]:
    """A hand-checked scene in the spirit of the paper's Fig. 4.

    Universe roughly 20 x 20; three rectangular obstacles around the
    origin-side query point, entities sprinkled on both sides.
    """
    obstacles = [
        rect_obstacle(0, 4.0, 2.0, 6.0, 8.0),
        rect_obstacle(1, 8.0, 5.0, 14.0, 7.0),
        rect_obstacle(2, 3.0, 11.0, 9.0, 13.0),
    ]
    entities = [
        Point(2.0, 5.0),
        Point(7.0, 3.0),
        Point(7.0, 9.5),
        Point(10.0, 4.0),
        Point(12.0, 8.0),
        Point(5.0, 14.0),
        Point(16.0, 6.0),
    ]
    return obstacles, entities


@pytest.fixture
def dense_scene() -> tuple[list[Obstacle], list[Point]]:
    """A larger randomized-but-deterministic scene for integration tests."""
    rng = random.Random(20040314)  # EDBT 2004 conference date
    obstacles = random_disjoint_rects(rng, 25)
    entities = random_free_points(rng, 40, obstacles)
    return obstacles, entities
