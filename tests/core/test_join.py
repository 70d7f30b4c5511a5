"""Tests for the obstacle e-distance join ODJ (paper Fig. 10)."""

import random

import pytest

from repro.core import obstacle_distance_join
from repro.core.source import build_obstacle_index
from repro.errors import QueryError
from repro.geometry import Point, Rect
from repro.index import RStarTree, str_pack
from tests.conftest import (
    oracle_distance,
    random_disjoint_rects,
    random_free_points,
    rect_obstacle,
)


def _tree(points):
    tree = RStarTree(max_entries=8, min_entries=3)
    str_pack(tree, [(p, Rect.from_point(p)) for p in points])
    return tree


def _setup(seed, n_obs=12, n_s=15, n_t=12):
    rng = random.Random(seed)
    obstacles = random_disjoint_rects(rng, n_obs)
    s = random_free_points(rng, n_s, obstacles)
    t = random_free_points(rng, n_t, obstacles)
    idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
    return obstacles, s, t, _tree(s), _tree(t), idx


class TestObstacleDistanceJoin:
    def test_negative_distance_rejected(self):
        __, __, __, ts, tt, idx = _setup(1)
        with pytest.raises(QueryError):
            obstacle_distance_join(ts, tt, idx, -5.0)

    def test_empty_result_when_far_apart(self):
        obstacles = [rect_obstacle(0, 40, 40, 50, 50)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        ts = _tree([Point(0, 0)])
        tt = _tree([Point(100, 100)])
        assert obstacle_distance_join(ts, tt, idx, 5.0) == []

    def test_matches_oracle(self):
        obstacles, s, t, ts, tt, idx = _setup(7)
        e = 30.0
        got = {(a, b): d for a, b, d in obstacle_distance_join(ts, tt, idx, e)}
        want = {}
        for a in s:
            for b in t:
                if a.distance(b) <= e:
                    d = oracle_distance(a, b, obstacles)
                    if d <= e:
                        want[(a, b)] = d
        assert set(got) == set(want)
        for pair, d in got.items():
            assert d == pytest.approx(want[pair])

    def test_orientation_preserved(self):
        # results must be (s, t) even when T provides the seeds
        obstacles = [rect_obstacle(0, 500, 500, 510, 510)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        s = [Point(i, 0) for i in range(10)]          # many distinct s
        t = [Point(0, 1)]                             # single t -> seed side
        got = obstacle_distance_join(_tree(s), _tree(t), idx, 5.0)
        assert got
        for a, b, __ in got:
            assert a in s and b in t

    def test_hilbert_off_same_result(self):
        obstacles, s, t, ts, tt, idx = _setup(13)
        e = 25.0
        with_h = {(a, b) for a, b, __ in obstacle_distance_join(ts, tt, idx, e)}
        without = {
            (a, b)
            for a, b, __ in obstacle_distance_join(
                ts, tt, idx, e, hilbert_order_seeds=False
            )
        }
        assert with_h == without

    def test_pairs_within_euclidean_bound(self):
        __, __, __, ts, tt, idx = _setup(21)
        e = 20.0
        for a, b, d in obstacle_distance_join(ts, tt, idx, e):
            assert a.distance(b) <= e + 1e-9
            assert a.distance(b) - 1e-9 <= d <= e + 1e-9

    def test_zero_distance_join(self):
        shared = Point(5, 5)
        obstacles = [rect_obstacle(0, 50, 50, 60, 60)]
        idx = build_obstacle_index(obstacles, max_entries=8, min_entries=3)
        ts = _tree([shared, Point(1, 1)])
        tt = _tree([shared, Point(9, 9)])
        got = obstacle_distance_join(ts, tt, idx, 0.0)
        assert got == [(shared, shared, 0.0)]


# ------------------------------------------- batched seeds equal the seed loop
def _per_seed(self, centers, radius, candidates):
    """ODJ's refinement as it was before the seeds were batched: one
    field, one batch evaluation, one seed at a time."""
    out = []
    for q, points in zip(centers, candidates):
        uniq = list(dict.fromkeys(points))
        field = self.field_for(q, radius) if uniq else None
        dists = field.batch_eval(uniq, bound=radius) if uniq else []
        out.append([(p, d) for p, d in zip(uniq, dists) if d <= radius])
    return out


#: Unchanged by construction: the cache sees the seed loop's calls.
_CACHE_COUNTS = (
    "graph_builds",
    "graph_cache_hits",
    "graph_cache_misses",
    "graph_cache_evictions",
    "graph_cache_promotions",
    "coverage_expansions",
    "obstacles_added",
)


@pytest.mark.parametrize("backend", ["numpy-kernel", "python-sweep", "naive"])
@pytest.mark.parametrize("snap", [0.0, 30.0])
@pytest.mark.parametrize("cache_size", [1, 2, 64])
def test_batched_seeds_equal_the_seed_loop(cache_size, snap, backend, monkeypatch):
    """Same list — order and floats — and same cache history as the
    per-seed loop, on a cold cache and again at twice the range (every
    graph the first join left is topped up), whatever the capacity
    that cuts the seeds into runs; with spatial keys (30 units: seeds
    share entries) a graph two seeds of a run reach is swept and frozen
    once for both, so those two counts can only fall.  Candidates are
    swept apart: the seed loop probes them and sweeps exactly its
    give-ups, one point a call; a run of several seeds fetches every
    candidate's anchors ahead, so a single run probes none."""
    from repro.runtime.context import QueryContext

    __, __, targets, ts, tt, idx = _setup(5, n_obs=14, n_s=9, n_t=30)

    def joins(per_seed):
        if per_seed:
            monkeypatch.setattr(QueryContext, "refine_many", _per_seed)
        else:
            monkeypatch.undo()
        ctx = QueryContext(idx, cache_size=cache_size, snap=snap, backend=backend)
        calls = []
        sweep = ctx.backend.visible_ids

        def visible_ids(scenes):
            calls.append([p for sources, __ in scenes for p in sources])
            return sweep(scenes)

        ctx.backend.visible_ids = visible_ids
        found = [
            obstacle_distance_join(ts, tt, idx, e, context=ctx) for e in (12.0, 24.0)
        ]
        stats = ctx.stats.snapshot()
        swept = [p for call in calls for p in call]
        stats["candidate_sweeps"] = sum(p in targets for p in swept)
        stats["other_sweeps"] = len(swept) - stats["candidate_sweeps"]
        assert stats["sweeps_run"] == len(swept)
        return found, stats, calls

    want, reference, reference_calls = joins(per_seed=True)
    got, stats, __ = joins(per_seed=False)
    assert got == want
    assert len(want[1]) > len(want[0]) > 0
    assert reference["graph_builds"] > 1
    assert reference["coverage_expansions"] > 0 or cache_size < 64
    for name in _CACHE_COUNTS:
        assert stats[name] == reference[name], name
    for name in ("other_sweeps", "field_freezes"):
        if snap == 0.0 or cache_size == 1:
            assert stats[name] == reference[name], name
        else:
            assert stats[name] <= reference[name], name
    assert reference["last_leg_probes"] > 0
    assert reference["candidate_sweeps"] == reference["last_leg_fallbacks"]
    if cache_size == 1:
        assert stats["candidate_sweeps"] == stats["last_leg_fallbacks"]
    if cache_size == 64:
        assert stats["last_leg_probes"] == 0
    if backend == "numpy-kernel":  # its builds sweep nothing
        assert all(len(call) == 1 for call in reference_calls)
        assert reference["sweep_passes"] == len(reference_calls)


def test_failed_connect_leaves_no_unswept_graph_in_the_cache():
    """A backend that fails on the many-graph sweep: every entry whose
    graph was registered but not swept leaves the cache, and the next
    join answers as a cold database does."""
    from repro.runtime.context import QueryContext
    from repro.visibility.kernel.backend import NaiveBackend

    class Flaky(NaiveBackend):
        failing = False

        def visible_from_scenes(self, scenes):
            if self.failing and len(scenes) > 1:
                raise RuntimeError("sweep failed")
            return super().visible_from_scenes(scenes)

    __, __, __, ts, tt, idx = _setup(5, n_obs=14, n_s=9, n_t=30)
    flaky = Flaky()
    ctx = QueryContext(idx, backend=flaky)
    warm = obstacle_distance_join(ts, tt, idx, 6.0, context=ctx)
    assert len(ctx.cache) > 1  # graphs the failing join finds and tops up
    flaky.failing = True
    with pytest.raises(RuntimeError, match="sweep failed"):
        obstacle_distance_join(ts, tt, idx, 12.0, context=ctx)
    assert ctx.stats.graph_cache_invalidations > 0  # the unswept ones left
    assert all(not entry.graph.pending for entry in ctx.cache.entries())
    flaky.failing = False
    cold = QueryContext(idx, backend="naive")
    assert obstacle_distance_join(ts, tt, idx, 12.0, context=ctx) == (
        obstacle_distance_join(ts, tt, idx, 12.0, context=cold)
    )
    assert warm == obstacle_distance_join(ts, tt, idx, 6.0, context=cold)
