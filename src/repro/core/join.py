"""Obstacle e-distance join — ODJ (paper Sec. 5, Fig. 10).

An R-tree distance join produces the candidate pairs.  Rather than one
obstructed-distance evaluation per pair, the side with fewer *distinct*
points provides "seeds": for each seed, all its partners are filtered
with a single OR-style expansion over one shared visibility graph.
Seeds are processed in Hilbert order so consecutive obstacle range
retrievals touch nearby pages, maximising buffer locality.

Every seed is handed to :meth:`QueryContext.refine_many
<repro.runtime.context.QueryContext.refine_many>` at once, which
sweeps the graphs of a run of seeds together; with a shared context,
per-seed graphs persist in the LRU cache across join invocations.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.distance import ObstacleSource
from repro.errors import QueryError
from repro.euclidean.join import distance_join
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.hilbert import hilbert_key
from repro.index.rstar import RStarTree
from repro.runtime.context import QueryContext


def obstacle_distance_join(
    tree_s: RStarTree,
    tree_t: RStarTree,
    obstacle_source: ObstacleSource,
    e: float,
    *,
    hilbert_order_seeds: bool = True,
    universe: Rect | None = None,
    context: QueryContext | None = None,
) -> list[tuple[Point, Point, float]]:
    """All pairs ``(s, t)`` with obstructed distance <= ``e``.

    Returns ``(s, t, d_O)`` triples.  ``hilbert_order_seeds=False``
    disables the seed-locality optimisation (used by the ablation
    benchmark).
    """
    if e < 0:
        raise QueryError(f"negative join distance: {e}")
    context = context or QueryContext(obstacle_source)
    s_partners: dict[Point, list[Point]] = defaultdict(list)
    t_partners: dict[Point, list[Point]] = defaultdict(list)
    for s, t, __ in distance_join(tree_s, tree_t, e):
        s_partners[s].append(t)
        t_partners[t].append(s)
    if not s_partners:
        return []

    # Seed the side with fewer distinct points (paper's observation:
    # five pairs over two distinct s-values need only two graphs).
    seed_from_s = len(s_partners) <= len(t_partners)
    partners = s_partners if seed_from_s else t_partners
    seeds = list(partners)
    if hilbert_order_seeds:
        if universe is None:
            universe = Rect.from_points(seeds)
        seeds.sort(key=lambda p: hilbert_key(p, universe))

    refined = context.refine_many(seeds, e, [partners[seed] for seed in seeds])
    return [
        (seed, mate, d) if seed_from_s else (mate, seed, d)
        for seed, found in zip(seeds, refined)
        for mate, d in found
    ]
