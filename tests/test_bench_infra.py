"""Tests for the benchmark infrastructure's pure functions.

The scaling laws are part of the reproduction's correctness story
(EXPERIMENTS.md relies on them), so they get their own tests.
"""

import math

from benchmarks.common import (
    BENCH_O,
    PAPER_OBSTACLES,
    queries_for,
    scale_factor,
    scaled_join_range,
    scaled_range,
)
from repro.datasets.synthetic import DEFAULT_UNIVERSE


class TestScaling:
    def test_scale_factor_definition(self):
        assert scale_factor() == math.sqrt(PAPER_OBSTACLES / BENCH_O)

    def test_scaled_range_preserves_per_disk_counts(self):
        # expected obstacles per disk: |O| * pi * e^2 / A must equal the
        # paper's |O_paper| * pi * e_paper^2 / A
        fraction = 0.001
        e = scaled_range(fraction)
        e_paper = fraction * DEFAULT_UNIVERSE.width
        ours = BENCH_O * e * e
        paper = PAPER_OBSTACLES * e_paper * e_paper
        assert math.isclose(ours, paper, rel_tol=1e-9)

    def test_scaled_join_range_preserves_pair_counts(self):
        # expected pairs: |S| * |T| * pi * e^2 / A; both cardinalities
        # shrink linearly with BENCH_O/PAPER_OBSTACLES
        fraction = 0.0001
        e = scaled_join_range(fraction)
        e_paper = fraction * DEFAULT_UNIVERSE.width
        shrink = BENCH_O / PAPER_OBSTACLES
        ours = (shrink * shrink) * e * e
        paper = e_paper * e_paper
        assert math.isclose(ours, paper, rel_tol=1e-9)

    def test_ranges_monotone_in_fraction(self):
        assert scaled_range(0.001) < scaled_range(0.01)
        assert scaled_join_range(0.0001) < scaled_join_range(0.001)


class TestE2ETraceContract:
    """The end-to-end benchmark's traced pass wraps production names by
    (owner, attribute): every one must still resolve, and tracing must
    come off again without a trace."""

    def test_wrap_points_resolve_and_install_round_trips(self):
        import repro.serve.pool
        from benchmarks.e2e import e2e_trace

        points = [(owner, attr) for owner, attr, __, __ in e2e_trace.WRAP_POINTS]
        points.append((repro.serve.pool, "_evaluate"))
        for owner, attr in points:
            if isinstance(owner, type):
                # Wrapped in place: defined on the class itself.
                assert attr in owner.__dict__, (owner.__name__, attr)
            else:
                assert hasattr(owner, attr), (owner.__name__, attr)

        def raw():
            return [
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner, attr in points
            ]

        before = raw()
        e2e_trace.install()
        try:
            assert e2e_trace.installed()
            assert all(a is not b for a, b in zip(raw(), before))
        finally:
            e2e_trace.uninstall()
        assert not e2e_trace.installed()
        assert all(a is b for a, b in zip(raw(), before))


class TestQueriesFor:
    def test_cost_classes_monotone(self):
        assert queries_for(1) >= queries_for(2) >= queries_for(4)

    def test_minimum_two(self):
        assert queries_for(1000) == 2
