"""Adaptive cache policy benchmark: learned knobs vs the best static.

Not a paper figure — this measures the claim behind
``cache_policy="adaptive"``: a policy that learns the snap
quantum, LRU capacity, and guest admission from the observed centre
stream beats any fixed knob setting across workload regimes, because
no fixed setting is right for all of them.

Each named workload profile (uniform scatter, Zipf hotspots, commuter
streams, a flash crowd, mutation churn) is generated as a
deterministic trace and replayed three times on identical scenes:
exact cache keys, the hand-tuned moving-query quantum, and the
adaptive policy.  "Best static" is chosen per profile after the fact
— the strongest opponent the policy can face.

Acceptance bar (CI-enforced): the adaptive policy **wins on >= 2 of
the 5 profiles** (>= 1.3x fewer graph builds or >= 1.3x higher hit
rate than the best static config) and **never needs more than 1.05x**
the best static config's graph builds on any profile.  Answers must
be **bit-identical** across all three replays — the coverage guard
makes every snap/capacity decision answer-preserving — and trace
generation must be byte-deterministic per seed.

All verdicts here are counter-based (no wall-clock), so the bar holds
on any runner.
"""

from __future__ import annotations

from functools import lru_cache

from benchmarks.common import (
    POLICY_LOSS_TOLERANCE,
    POLICY_PROFILES,
    POLICY_WIN_RATIO,
    adaptive_policy_comparison,
)


@lru_cache(maxsize=1)
def _comparison() -> dict:
    """One comparison shared by every assertion (15 trace replays)."""
    return adaptive_policy_comparison()


class TestAdaptivePolicy:
    def setup_method(self):
        self.metrics = _comparison()

    def test_answers_bit_identical_under_every_policy(self):
        for profile in POLICY_PROFILES:
            assert self.metrics[profile]["parity"], (
                f"{profile}: a cache policy changed query answers"
            )

    def test_trace_generation_deterministic(self):
        assert self.metrics["trace_deterministic"], (
            "generating a trace twice from one seed was not byte-identical"
        )

    def test_adaptive_wins_at_least_two_profiles(self):
        rows = {
            profile: self.metrics[profile]["build_ratio"]
            for profile in POLICY_PROFILES
        }
        assert self.metrics["wins"] >= 2, (
            f"adaptive won {self.metrics['wins']:.0f} of "
            f"{len(POLICY_PROFILES)} profiles (bar: 2 wins at "
            f">= {POLICY_WIN_RATIO}x); best-static/adaptive build "
            f"ratios: {rows}"
        )

    def test_adaptive_never_loses_beyond_tolerance(self):
        losers = [
            profile
            for profile in POLICY_PROFILES
            if self.metrics[profile]["loss"]
        ]
        assert not losers, (
            f"adaptive needed more than {POLICY_LOSS_TOLERANCE}x the best "
            f"static config's graph builds on: {losers}"
        )

    def test_policy_actually_adjusted(self):
        # A policy that never retunes anything "wins" vacuously when
        # the static configs stumble; require real adjustments on the
        # winning profiles.
        for profile in POLICY_PROFILES:
            row = self.metrics[profile]
            if row["win"]:
                assert row["adjustments"] >= 1, (
                    f"{profile}: adaptive won without a single applied "
                    "adjustment"
                )
