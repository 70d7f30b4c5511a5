"""Counters for the shared query runtime.

One :class:`RuntimeStats` instance travels with a
:class:`~repro.runtime.context.QueryContext`; every layer of the
runtime (graph cache, coverage growth, distance evaluations, the
visibility backend) ticks its counters, so a benchmark or test can ask
"how many visibility graphs were actually built?" or "how many points
were anchored, on which backend?" the same way the R-tree layer
already answers "how many pages were read?".
"""

from __future__ import annotations


class RuntimeStats:
    """Mutable counters describing runtime work since the last reset.

    All fields are integer counters except ``sweep_seconds`` (a float,
    the cumulative wall-clock time the visibility backend spent
    anchoring points: ``sweeps_run`` of them, ``sweep_events`` pairs)
    and ``backend`` (the name of the visibility backend ticking those
    counters — ``""`` until a context selects one; preserved across
    :meth:`reset` since it describes configuration, not work done).
    """

    __slots__ = (
        "graph_builds",
        "graph_rebuilds",
        "graph_cache_hits",
        "graph_cache_misses",
        "graph_cache_evictions",
        "graph_cache_invalidations",
        "graph_cache_repairs",
        "graph_cache_promotions",
        "coverage_expansions",
        "clear_radius_skips",
        "obstacles_added",
        "distance_calls",
        "straight_legs",
        "last_leg_probes",
        "last_leg_fallbacks",
        "field_builds",
        "field_freezes",
        "field_batch_evals",
        "batch_memo_hits",
        "parallel_batches",
        "pool_batches",
        "policy_adjustments",
        "policy_snap",
        "policy_capacity",
        "journal_appends",
        "journal_bytes",
        "compactions",
        "compaction_bytes",
        "sweeps_run",
        "sweep_events",
        "sweep_seconds",
        "exact_pairs",
        "exact_band_pairs",
        "backend",
    )

    def __init__(self) -> None:
        self.backend = ""
        self.reset()

    def reset(self) -> None:
        """Zero every counter (the ``backend`` label is kept)."""
        self.graph_builds = 0
        self.graph_rebuilds = 0
        self.graph_cache_hits = 0
        self.graph_cache_misses = 0
        self.graph_cache_evictions = 0
        self.graph_cache_invalidations = 0
        self.graph_cache_repairs = 0
        self.graph_cache_promotions = 0
        self.coverage_expansions = 0
        self.clear_radius_skips = 0
        self.obstacles_added = 0
        self.distance_calls = 0
        self.straight_legs = 0
        self.last_leg_probes = 0
        self.last_leg_fallbacks = 0
        self.field_builds = 0
        self.field_freezes = 0
        self.field_batch_evals = 0
        self.batch_memo_hits = 0
        self.parallel_batches = 0
        self.pool_batches = 0
        self.policy_adjustments = 0
        self.policy_snap = 0
        self.policy_capacity = 0
        self.journal_appends = 0
        self.journal_bytes = 0
        self.compactions = 0
        self.compaction_bytes = 0
        self.sweeps_run = 0
        self.sweep_events = 0
        self.sweep_seconds = 0.0
        self.exact_pairs = 0
        self.exact_band_pairs = 0

    def snapshot(self) -> dict[str, int | float | str]:
        """The current counter values as a plain dict."""
        return {name: getattr(self, name) for name in self.__slots__}

    def merge(self, other: "RuntimeStats | dict[str, int | float | str]") -> None:
        """Fold another instance's (or snapshot's) counters into this one.

        Every pool worker ships its counters back with each reply and
        the parent merges them here on join, so the parent context's
        counters account all work regardless of worker count.  The
        ``backend`` label is configuration, not work, and is left
        untouched.

        A dict snapshot must carry *every* counter: a missing key
        raises instead of silently dropping that counter's worker-side
        work (worker replies always ship full snapshots; a partial
        dict means a producer forgot a counter added later).
        """
        snapshot = other.snapshot() if isinstance(other, RuntimeStats) else other
        missing = [
            name
            for name in self.__slots__
            if name != "backend" and name not in snapshot
        ]
        if missing:
            raise ValueError(
                f"incomplete RuntimeStats snapshot: missing counter(s) "
                f"{', '.join(missing)} — every merge source must report "
                f"all of __slots__"
            )
        for name in self.__slots__:
            if name == "backend":
                continue
            value = snapshot[name]
            if value:
                setattr(self, name, getattr(self, name) + value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"RuntimeStats({inner})"
