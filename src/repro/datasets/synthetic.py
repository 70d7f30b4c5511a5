"""Synthetic workload generators.

`street_grid_obstacles` substitutes for the paper's LA street-MBR
dataset: thin, elongated, axis-aligned rectangles arranged on a
jittered street grid, with optional density hotspots so the spatial
distribution is non-uniform (like a real city).  Disjointness is
guaranteed by construction: street segments live strictly between grid
crossings, with margins wider than any street.

Entity and query-point samplers follow the obstacle distribution, as
the paper's experiments require: a random obstacle is chosen, then a
point on (or just off) its boundary; points never fall in any obstacle
interior.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.model import Obstacle

#: Default data universe, matching the benchmarks' coordinate scale.
DEFAULT_UNIVERSE = Rect(0.0, 0.0, 10_000.0, 10_000.0)


def street_grid_obstacles(
    n: int,
    *,
    universe: Rect = DEFAULT_UNIVERSE,
    seed: int = 0,
    street_width: tuple[float, float] | None = None,
    hotspots: int = 3,
    hotspot_bias: float = 3.0,
) -> list[Obstacle]:
    """Generate ``n`` street-like rectangle obstacles, nearly all
    disjoint.

    The universe is covered by a jittered grid; every cell contributes
    one horizontal and one vertical street-segment candidate, and ``n``
    candidates are kept with probability proportional to a hotspot
    density mixture (``hotspot_bias`` > 1 concentrates streets around
    ``hotspots`` random centers, mimicking a city core).  A street ends
    the widest street's width short of the grid lines it runs between,
    but the ±0.2·w jitter of the one along a line can reach past that:
    wide streets of one cell corner may overlap (294 pairs among the
    131,461 streets of the paper-scale set).  The output is pinned by
    ``benchmarks/e2e/pinned.json``, overlaps included.
    """
    if n < 1:
        raise DatasetError(f"need n >= 1 obstacles, got {n}")
    rng = random.Random(seed)
    side_cells = max(2, math.ceil(math.sqrt(n / 2.0)) + 1)
    pitch_x = universe.width / side_cells
    pitch_y = universe.height / side_cells
    if street_width is None:
        w_min = 0.04 * min(pitch_x, pitch_y)
        w_max = 0.12 * min(pitch_x, pitch_y)
    else:
        w_min, w_max = street_width
    margin = w_max  # the widest street: the jitter below can exceed it
    xs = [universe.minx + i * pitch_x for i in range(side_cells + 1)]
    ys = [universe.miny + j * pitch_y for j in range(side_cells + 1)]

    centers = [
        Point(
            rng.uniform(universe.minx, universe.maxx),
            rng.uniform(universe.miny, universe.maxy),
        )
        for __ in range(max(0, hotspots))
    ]
    scale = 0.25 * math.hypot(universe.width, universe.height)

    def weight(px: float, py: float) -> float:
        if not centers:
            return 1.0
        best = min(math.hypot(px - c.x, py - c.y) for c in centers)
        return 1.0 + (hotspot_bias - 1.0) * math.exp(-((best / scale) ** 2))

    candidates: list[tuple[float, Rect]] = []
    for i in range(side_cells):
        for j in range(side_cells):
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = ys[j], ys[j + 1]
            w = rng.uniform(w_min, w_max)
            # Horizontal street along the cell's bottom line.
            hx0, hx1 = x0 + margin, x1 - margin
            if hx1 - hx0 > w:
                ly = y0 + rng.uniform(-0.2, 0.2) * w
                rect = Rect(hx0, ly, hx1 - rng.uniform(0, 0.3) * (hx1 - hx0), ly + w)
                rect = _clamp_into(rect, universe)
                candidates.append((weight(*rect.center().as_tuple()), rect))
            w = rng.uniform(w_min, w_max)
            # Vertical street along the cell's left line.
            vy0, vy1 = y0 + margin, y1 - margin
            if vy1 - vy0 > w:
                lx = x0 + rng.uniform(-0.2, 0.2) * w
                rect = Rect(lx, vy0, lx + w, vy1 - rng.uniform(0, 0.3) * (vy1 - vy0))
                rect = _clamp_into(rect, universe)
                candidates.append((weight(*rect.center().as_tuple()), rect))
    if len(candidates) < n:
        raise DatasetError(
            f"grid produced only {len(candidates)} candidate streets; "
            f"need {n} (universe too small for the requested density)"
        )
    # Weighted sample without replacement (exponential-sort trick).
    keyed = sorted(
        candidates, key=lambda wr: rng.expovariate(1.0) / wr[0]
    )
    chosen = [rect for __, rect in keyed[:n]]
    return [Obstacle(i, Polygon.from_rect(r)) for i, r in enumerate(chosen)]


def _clamp_into(rect: Rect, universe: Rect) -> Rect:
    """Shift a rect (unchanged size) so it lies inside the universe.

    Only jitter-sized displacements occur, which cannot re-introduce
    overlaps: streets are shifted back *toward* their grid line.
    """
    dx = dy = 0.0
    if rect.minx < universe.minx:
        dx = universe.minx - rect.minx
    elif rect.maxx > universe.maxx:
        dx = universe.maxx - rect.maxx
    if rect.miny < universe.miny:
        dy = universe.miny - rect.miny
    elif rect.maxy > universe.maxy:
        dy = universe.maxy - rect.maxy
    if dx == 0.0 and dy == 0.0:
        return rect
    return Rect(rect.minx + dx, rect.miny + dy, rect.maxx + dx, rect.maxy + dy)


def uniform_obstacles(
    n: int,
    *,
    universe: Rect = DEFAULT_UNIVERSE,
    seed: int = 0,
    size_range: tuple[float, float] | None = None,
    max_attempts_factor: int = 200,
) -> list[Obstacle]:
    """``n`` disjoint axis-aligned rectangles, uniformly placed.

    Uses rejection sampling with a coarse occupancy grid; raises
    :class:`DatasetError` if the requested density is unachievable.
    """
    if n < 1:
        raise DatasetError(f"need n >= 1 obstacles, got {n}")
    rng = random.Random(seed)
    if size_range is None:
        cell = math.sqrt(universe.area() / max(n, 1))
        size_range = (0.1 * cell, 0.5 * cell)
    lo, hi = size_range
    grid = _OccupancyGrid(universe, expected=n)
    rects: list[Rect] = []
    attempts = 0
    limit = max_attempts_factor * n
    gap = 0.05 * lo
    while len(rects) < n:
        attempts += 1
        if attempts > limit:
            raise DatasetError(
                f"placed only {len(rects)}/{n} disjoint rectangles after "
                f"{limit} attempts; lower the density"
            )
        w = rng.uniform(lo, hi)
        h = rng.uniform(lo, hi)
        x = rng.uniform(universe.minx, universe.maxx - w)
        y = rng.uniform(universe.miny, universe.maxy - h)
        rect = Rect(x, y, x + w, y + h)
        if not grid.intersects_any(rect.expanded(gap)):
            grid.add(rect)
            rects.append(rect)
    return [Obstacle(i, Polygon.from_rect(r)) for i, r in enumerate(rects)]


def clustered_obstacles(
    n: int,
    *,
    universe: Rect = DEFAULT_UNIVERSE,
    seed: int = 0,
    clusters: int = 5,
    spread: float = 0.08,
) -> list[Obstacle]:
    """``n`` disjoint rectangles around ``clusters`` Gaussian centers."""
    if n < 1:
        raise DatasetError(f"need n >= 1 obstacles, got {n}")
    if clusters < 1:
        raise DatasetError(f"need clusters >= 1, got {clusters}")
    rng = random.Random(seed)
    centers = [
        (
            rng.uniform(universe.minx, universe.maxx),
            rng.uniform(universe.miny, universe.maxy),
        )
        for __ in range(clusters)
    ]
    sigma_x = spread * universe.width
    sigma_y = spread * universe.height
    cell = math.sqrt(universe.area() / max(n, 1))
    lo, hi = 0.08 * cell, 0.35 * cell
    grid = _OccupancyGrid(universe, expected=n)
    rects: list[Rect] = []
    attempts = 0
    limit = 400 * n
    while len(rects) < n:
        attempts += 1
        if attempts > limit:
            raise DatasetError(
                f"placed only {len(rects)}/{n} clustered rectangles; "
                f"lower the density or spread"
            )
        cx, cy = centers[rng.randrange(clusters)]
        w = rng.uniform(lo, hi)
        h = rng.uniform(lo, hi)
        x = rng.gauss(cx, sigma_x) - w / 2.0
        y = rng.gauss(cy, sigma_y) - h / 2.0
        if x < universe.minx or y < universe.miny:
            continue
        if x + w > universe.maxx or y + h > universe.maxy:
            continue
        rect = Rect(x, y, x + w, y + h)
        if not grid.intersects_any(rect.expanded(0.05 * lo)):
            grid.add(rect)
            rects.append(rect)
    return [Obstacle(i, Polygon.from_rect(r)) for i, r in enumerate(rects)]


def entities_following_obstacles(
    n: int,
    obstacles: Sequence[Obstacle],
    *,
    seed: int = 0,
    on_boundary_fraction: float = 0.3,
    offset_fraction: float = 0.35,
) -> list[Point]:
    """``n`` entity points following the obstacle distribution.

    Each point is sampled on a random obstacle's boundary and, with
    probability ``1 - on_boundary_fraction``, pushed outward by up to
    ``offset_fraction`` of the obstacle's size.  Points inside any
    obstacle interior are rejected and re-drawn — matching the paper's
    setup where entities may lie on obstacle boundaries but never
    inside.
    """
    if n < 0:
        raise DatasetError(f"need n >= 0 entities, got {n}")
    if not obstacles:
        raise DatasetError("entity sampler needs at least one obstacle")
    rng = random.Random(seed)
    universe = Rect.union_all([o.mbr for o in obstacles]).expanded(1.0)
    grid = _OccupancyGrid(universe, expected=len(obstacles))
    for i, obs in enumerate(obstacles):
        grid.add(obs.mbr, payload=i)
    points: list[Point] = []
    while len(points) < n:
        obs = obstacles[rng.randrange(len(obstacles))]
        base = obs.polygon.boundary_point_at(rng.random())
        if rng.random() < on_boundary_fraction:
            candidate = base
        else:
            c = obs.polygon.centroid()
            dx, dy = base.x - c.x, base.y - c.y
            norm = math.hypot(dx, dy)
            if norm == 0.0:
                continue
            size = max(obs.mbr.width, obs.mbr.height)
            push = rng.uniform(0.0, offset_fraction) * size
            candidate = Point(base.x + dx / norm * push, base.y + dy / norm * push)
        if _inside_any(candidate, grid, obstacles):
            continue
        points.append(candidate)
    return points


def query_points(
    n: int,
    obstacles: Sequence[Obstacle],
    *,
    seed: int = 1,
) -> list[Point]:
    """``n`` query points following the obstacle distribution."""
    return entities_following_obstacles(
        n, obstacles, seed=seed, on_boundary_fraction=0.0, offset_fraction=0.5
    )


@dataclass
class Workload:
    """A complete experiment workload: obstacles, entity sets, queries."""

    obstacles: list[Obstacle]
    entity_sets: dict[str, list[Point]] = field(default_factory=dict)
    queries: list[Point] = field(default_factory=list)

    @property
    def universe(self) -> Rect:
        """MBR of the obstacle dataset."""
        return Rect.union_all([o.mbr for o in self.obstacles])


def make_workload(
    n_obstacles: int,
    entity_counts: dict[str, int],
    n_queries: int,
    *,
    seed: int = 0,
    universe: Rect = DEFAULT_UNIVERSE,
) -> Workload:
    """One-call workload builder used by the benchmarks.

    Obstacles use the street-grid generator; each entity set and the
    query workload follow the obstacle distribution with distinct
    per-set seeds derived from ``seed``.
    """
    obstacles = street_grid_obstacles(n_obstacles, universe=universe, seed=seed)
    entity_sets = {}
    for i, (name, count) in enumerate(sorted(entity_counts.items())):
        entity_sets[name] = entities_following_obstacles(
            count, obstacles, seed=seed * 1_000_003 + 17 * i + 1
        )
    queries = query_points(n_queries, obstacles, seed=seed * 999_983 + 7)
    return Workload(obstacles=obstacles, entity_sets=entity_sets, queries=queries)


def _inside_any(
    p: Point, grid: "_OccupancyGrid", obstacles: Sequence[Obstacle]
) -> bool:
    for idx in grid.candidates_at(p):
        if obstacles[idx].polygon.contains(p):
            return True
    return False


class _OccupancyGrid:
    """A coarse uniform grid over rectangle MBRs for overlap/containment
    rejection tests during generation."""

    def __init__(self, universe: Rect, expected: int) -> None:
        self._universe = universe
        side = max(1, int(math.sqrt(max(expected, 1))))
        self._nx = side
        self._ny = side
        self._cw = universe.width / side or 1.0
        self._ch = universe.height / side or 1.0
        self._cells: dict[tuple[int, int], list[tuple[Rect, int]]] = {}
        self._count = 0

    def _cell_span(self, rect: Rect) -> tuple[int, int, int, int]:
        i0 = int((rect.minx - self._universe.minx) / self._cw)
        i1 = int((rect.maxx - self._universe.minx) / self._cw)
        j0 = int((rect.miny - self._universe.miny) / self._ch)
        j1 = int((rect.maxy - self._universe.miny) / self._ch)
        clamp = lambda v, hi: max(0, min(hi - 1, v))  # noqa: E731
        return (
            clamp(i0, self._nx),
            clamp(i1, self._nx),
            clamp(j0, self._ny),
            clamp(j1, self._ny),
        )

    def add(self, rect: Rect, payload: int | None = None) -> None:
        tag = payload if payload is not None else self._count
        self._count += 1
        i0, i1, j0, j1 = self._cell_span(rect)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                self._cells.setdefault((i, j), []).append((rect, tag))

    def intersects_any(self, rect: Rect) -> bool:
        i0, i1, j0, j1 = self._cell_span(rect)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                for other, __ in self._cells.get((i, j), ()):
                    if rect.intersects(other):
                        return True
        return False

    def candidates_at(self, p: Point) -> list[int]:
        i0, i1, j0, j1 = self._cell_span(Rect.from_point(p))
        out = []
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                for rect, tag in self._cells.get((i, j), ()):
                    if rect.contains_point(p):
                        out.append(tag)
        return out
