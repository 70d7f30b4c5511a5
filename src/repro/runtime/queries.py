"""Metric-parameterized query skeletons.

Each function here is one of the paper's query shapes with the metric
abstracted behind :class:`~repro.runtime.metric.DistanceOracle`:

* :func:`metric_range` — Fig. 5 (OR) / trivial Euclidean range;
* :func:`metric_nearest`, :func:`iter_metric_nearest` — Fig. 9 (ONN)
  and the incremental variant;
* :func:`metric_distance_join` — Fig. 10 (ODJ) with seed reuse and
  Hilbert-ordered seeds;
* :func:`metric_closest_pairs`, :func:`iter_metric_closest_pairs` —
  Figs. 11-12 (OCP / iOCP);
* :func:`metric_semijoin` — the distance semi-join of Sec. 2.1.

Passing :class:`~repro.runtime.metric.EuclideanMetric` degenerates
every skeleton to its classical counterpart (the lower bound is tight,
so refinement terminates immediately); passing
:class:`~repro.runtime.metric.ObstructedMetric` yields the paper's
algorithms, with all graph work flowing through one shared
:class:`~repro.runtime.context.QueryContext`.

The structure of every skeleton is the paper's: an incremental
Euclidean stream supplies candidates in ascending lower-bound order, a
shrinking threshold (the current k-th metric distance) bounds how far
the stream must be drained, and losing candidates abort their exact
evaluation early via the ``bound`` parameter.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from math import inf
from typing import Iterator

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.hilbert import hilbert_key
from repro.index.rstar import RStarTree
from repro.runtime.metric import DistanceOracle
from repro.runtime.skeletons import emit_in_metric_order

# The Euclidean candidate generators are imported lazily inside each
# skeleton: the euclidean iterators are themselves parameterizations of
# repro.runtime.skeletons, so a module-level import here would close an
# import cycle (euclidean -> runtime -> euclidean).


def metric_range(
    tree: RStarTree, metric: DistanceOracle, q: Point, e: float
) -> list[tuple[Point, float]]:
    """Entities within metric distance ``e`` of ``q`` (paper Fig. 5).

    The Euclidean filter produces the candidate superset; the metric's
    own refinement eliminates false hits.  Results are ``(entity, d)``
    pairs in ascending metric distance.
    """
    from repro.euclidean.range import entities_in_range

    if e < 0:
        raise QueryError(f"negative range: {e}")
    candidates = entities_in_range(tree, q, e)
    if not candidates:
        return []
    result = metric.range_refine(q, e, candidates)
    result.sort(key=lambda pair: pair[1])
    return result


def metric_nearest(
    tree: RStarTree,
    metric: DistanceOracle,
    q: Point,
    k: int,
    *,
    prune_bound: bool = True,
) -> list[tuple[Point, float]]:
    """The ``k`` entities with smallest metric distance from ``q``
    (paper Fig. 9).

    Returns ``(entity, d)`` pairs sorted by metric distance; fewer than
    ``k`` when the dataset is smaller.  Unreachable entities have
    distance ``inf`` and lose to any reachable one.
    ``prune_bound=False`` disables the early-exit optimisation (every
    candidate's distance is evaluated exactly, as in the paper's
    verbatim Fig. 9).
    """
    from repro.euclidean.nearest import IncrementalNearestNeighbors

    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    stream = IncrementalNearestNeighbors(tree, q)
    seeds: list[tuple[Point, float]] = []
    for p, d_e in stream:
        seeds.append((p, d_e))
        if len(seeds) == k:
            break
    if not seeds:
        return []
    # Initial field: the metric may pre-load state for the k-th
    # Euclidean radius (the obstructed metric builds its local graph
    # from the obstacles within it, paper Fig. 9).
    field = metric.field(q, radius=seeds[-1][1])
    result: list[tuple[float, Point]] = []
    # One batched evaluation for the whole seed set: the field
    # amortizes its revalidation and provisional Dijkstra across the
    # seeds (and the CSR engine vectorizes the last-leg minimisation).
    # Fields predating the batch protocol degrade to the scalar loop.
    seed_points = [p for p, __ in seeds]
    batch = getattr(field, "batch_eval", None)
    dists = (
        batch(seed_points)
        if batch is not None
        else [field.distance_to(p) for p in seed_points]
    )
    for p, d in zip(seed_points, dists):
        insort(result, (d, p))
    d_emax = result[k - 1][0] if len(result) >= k else inf
    for p, d_e in stream:
        if d_e > d_emax:
            break
        bound = d_emax if prune_bound else inf
        d = field.distance_to(p, bound=bound)
        if d < result[k - 1][0]:
            result.pop()
            insort(result, (d, p))
            d_emax = result[k - 1][0]
    return [(p, d) for d, p in result[:k]]


def iter_metric_nearest(
    tree: RStarTree, metric: DistanceOracle, q: Point
) -> Iterator[tuple[Point, float]]:
    """Incremental NN: ``(entity, d)`` in ascending metric distance,
    without a predefined ``k``.

    An entity whose metric distance is <= the lower bound of the most
    recently retrieved Euclidean neighbour can be emitted immediately:
    later neighbours have larger lower bounds — hence larger metric
    distances (the iOCP methodology of paper Sec. 6 applied to ONN).
    """
    from repro.euclidean.nearest import IncrementalNearestNeighbors

    stream = IncrementalNearestNeighbors(tree, q)
    field: list = []  # lazily bound on the first candidate

    def evaluate(p: Point, d_e: float) -> float:
        if not field:
            field.append(metric.field(q, radius=d_e))
        return field[0].distance_to(p)

    return emit_in_metric_order(stream, evaluate)


def metric_distance_join(
    tree_s: RStarTree,
    tree_t: RStarTree,
    metric: DistanceOracle,
    e: float,
    *,
    hilbert_order_seeds: bool = True,
    universe: Rect | None = None,
) -> list[tuple[Point, Point, float]]:
    """All pairs ``(s, t)`` with metric distance <= ``e`` (Fig. 10).

    An R-tree distance join produces the candidate pairs; the side
    with fewer distinct points provides "seeds", each refined with a
    single range refinement over its partners — all handed to the
    metric at once (:meth:`DistanceOracle.range_refine_many`).  Seeds
    are processed in Hilbert order so consecutive obstacle retrievals
    touch nearby pages (``hilbert_order_seeds=False`` disables this,
    for the ablation benchmark).
    """
    from repro.euclidean.join import distance_join

    if e < 0:
        raise QueryError(f"negative join distance: {e}")
    candidate_pairs = distance_join(tree_s, tree_t, e)
    if not candidate_pairs:
        return []

    s_partners: dict[Point, list[Point]] = defaultdict(list)
    t_partners: dict[Point, list[Point]] = defaultdict(list)
    for s, t, __ in candidate_pairs:
        s_partners[s].append(t)
        t_partners[t].append(s)

    # Seed the side with fewer distinct points (paper's observation:
    # five pairs over two distinct s-values need only two graphs).
    seed_from_s = len(s_partners) <= len(t_partners)
    partners = s_partners if seed_from_s else t_partners
    seeds = list(partners)

    if hilbert_order_seeds:
        if universe is None:
            universe = Rect.from_points(seeds)
        seeds.sort(key=lambda p: hilbert_key(p, universe))

    result: list[tuple[Point, Point, float]] = []
    for seed, refined in zip(seeds, metric.range_refine_many(seeds, e, partners)):
        for mate, d in refined:
            if seed_from_s:
                result.append((seed, mate, d))
            else:
                result.append((mate, seed, d))
    return result


def metric_closest_pairs(
    tree_s: RStarTree,
    tree_t: RStarTree,
    metric: DistanceOracle,
    k: int,
) -> list[tuple[Point, Point, float]]:
    """The ``k`` pairs with smallest metric distance (Fig. 11).

    Returns ``(s, t, d)`` sorted by metric distance; fewer than ``k``
    when ``|S| * |T| < k``.  Exact evaluations are centred on the
    ``s`` side, so the metric's per-centre state (the obstructed
    metric's cached graphs) is reused across pairs sharing their
    first element.
    """
    from repro.euclidean.closest import IncrementalClosestPairs

    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    stream = IncrementalClosestPairs(tree_s, tree_t)
    result: list[tuple[float, Point, Point]] = []
    seeded = 0
    for s, t, __ in stream:
        d = metric.distance(t, s)
        insort(result, (d, s, t))
        seeded += 1
        if seeded == k:
            break
    if not result:
        return []
    d_emax = result[k - 1][0] if len(result) >= k else inf
    for s, t, d_e in stream:
        if d_e > d_emax:
            break
        d = metric.distance(t, s, bound=d_emax)
        if d < result[k - 1][0]:
            result.pop()
            insort(result, (d, s, t))
            d_emax = result[k - 1][0]
    return [(s, t, d) for d, s, t in result[:k]]


def iter_metric_closest_pairs(
    tree_s: RStarTree,
    tree_t: RStarTree,
    metric: DistanceOracle,
) -> Iterator[tuple[Point, Point, float]]:
    """Incremental closest pairs (paper Fig. 12): pairs in ascending
    metric distance, no ``k`` parameter — consume as many as needed.
    """
    from repro.euclidean.closest import IncrementalClosestPairs

    candidates = (
        ((s, t), d_e) for s, t, d_e in IncrementalClosestPairs(tree_s, tree_t)
    )
    evaluated = emit_in_metric_order(
        candidates, lambda pair, __: metric.distance(pair[1], pair[0])
    )
    return ((s, t, d) for (s, t), d in evaluated)


def metric_semijoin(
    tree_s: RStarTree,
    tree_t: RStarTree,
    metric: DistanceOracle,
    *,
    strategy: str = "cp",
) -> dict[Point, tuple[Point, float]]:
    """For each ``s`` in S, its metric nearest neighbour in T
    (Sec. 2.1's distance semi-join).

    ``strategy="nn"`` runs one NN query per ``s`` (all sharing the
    metric's context, so repeated source points hit the graph cache);
    ``strategy="cp"`` consumes the incremental closest-pair stream and
    keeps the first pair seen for each ``s``.
    """
    if strategy not in ("nn", "cp"):
        raise QueryError(f"unknown semijoin strategy {strategy!r}")
    if len(tree_s) == 0 or len(tree_t) == 0:
        return {}
    result: dict[Point, tuple[Point, float]] = {}
    if strategy == "nn":
        for s, __ in tree_s.items():
            if s in result:
                continue
            nn = metric_nearest(tree_t, metric, s, 1)
            if nn:
                result[s] = nn[0]
        return result
    remaining = {s for s, __ in tree_s.items()}
    for s, t, d in iter_metric_closest_pairs(tree_s, tree_t, metric):
        if s in remaining:
            remaining.discard(s)
            result[s] = (t, d)
            if not remaining:
                break
    return result
