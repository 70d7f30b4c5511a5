"""Adaptive cache policy: learn the cache knobs from the query stream.

Every cache knob of the runtime — the spatial-key quantum
(``graph_cache_snap``), the LRU capacity — is a constant that is only
right for the workload it was tuned on.  A commuter stream wants a
snap quantum a few steps wide; a Zipf hotspot wants cells the size of
the whole hot disk; a uniform scatter wants exact keys and a small
cache.  This module makes the knobs
*observed* instead of guessed: an :class:`AdaptiveCachePolicy` watches
the live centre stream plus the cache's own hit/miss/repair counters
(the same :class:`~repro.runtime.stats.RuntimeStats` the metrics
registry exports) and periodically retunes the cache through
:meth:`~repro.runtime.cache.VisibilityGraphCache.configure`.

Correctness is not the policy's problem by construction: spatial-key
reuse is guarded by the coverage disk (see
:meth:`~repro.runtime.context.QueryContext.entry_for`), so any snap
quantum — including a terrible one — yields bit-identical answers.
The policy only moves *performance*: which centres share a graph and
how many graphs are retained.

The estimator is deliberately small (windowed order statistics, no
training loop):

* **Snap quantum** — the median nearest-neighbour displacement over
  the most recent slice of the sliding window, scaled by
  ``snap_factor``.  A stream with spatial locality (commuters,
  hotspots, crowds) has a small median displacement and gets cells
  several displacements wide; a stream without locality (uniform
  scatter) has displacements on the order of the observed spread and
  gets exact keys (snap ``0``).  Deciding from the recent slice, not
  the full window, is what makes regime changes (a flash crowd
  forming) take effect within a handful of lookups instead of a full
  window turnover.
* **Capacity** — twice the number of distinct snapped cells in the
  window, clamped to ``[base capacity, max_capacity]``: enough room
  that the working set never self-evicts, never less than the
  configured floor.

Decisions are damped (a retune needs a >25 % relative change) so the
cache is not re-keyed on every estimator wobble, and every applied
change is booked in ``RuntimeStats``
(``policy_adjustments`` / ``policy_snap`` / ``policy_capacity``) and
traced (``policy.adjust`` spans) so a trace or metrics export shows
what the policy did and when.
"""

from __future__ import annotations

from math import inf, sqrt
from statistics import median
from typing import TYPE_CHECKING

from repro.errors import DatasetError
from repro.obs.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runtime.cache import VisibilityGraphCache
    from repro.runtime.stats import RuntimeStats


class CachePolicy:
    """The static (identity) policy: observe nothing, adjust nothing.

    This is the default — the cache keeps whatever ``snap`` / capacity
    it was constructed with.  It also defines the interface the runtime
    calls:

    * :meth:`attach` — wires the policy to one context's cache + stats
      (called once from ``QueryContext.__init__``);
    * :meth:`observe` — one lookup centre, called on every
      ``entry_for`` before the cache is consulted.

    A persistent pool worker resolves a fresh policy of the same kind
    by :attr:`name` (it adapts to the stream it serves; no estimator
    state is shipped); a forked child carries on with its copy.
    """

    name = "static"

    def attach(
        self, cache: "VisibilityGraphCache", stats: "RuntimeStats"
    ) -> None:
        """Wire the policy to one context's cache and stats."""
        self.cache = cache
        self.stats = stats

    def observe(self, center) -> None:
        """Feed one lookup centre to the estimator (no-op here)."""


class AdaptiveCachePolicy(CachePolicy):
    """Windowed-quantile tuner for the snap quantum and the capacity.

    Parameters
    ----------
    window:
        Sliding window length (recent lookup centres the estimator
        sees).
    adjust_every:
        Lookups between adjustment passes.
    snap_factor:
        Cell size as a multiple of the median nearest-neighbour
        displacement.
    locality_fraction:
        Minimum share of recent displacements that must fall inside a
        candidate cell for snapping to engage at all; below it the
        stream has no usable locality and exact keys win.
    max_capacity:
        Upper clamp for the learned LRU capacity.
    """

    name = "adaptive"

    def __init__(
        self,
        *,
        window: int = 48,
        adjust_every: int = 8,
        snap_factor: float = 12.0,
        locality_fraction: float = 0.6,
        max_capacity: int = 512,
    ) -> None:
        if window < 2:
            raise DatasetError(f"policy window must be >= 2, got {window}")
        if adjust_every < 1:
            raise DatasetError(
                f"adjust_every must be >= 1, got {adjust_every}"
            )
        self.window = window
        self.adjust_every = adjust_every
        self.snap_factor = snap_factor
        self.locality_fraction = locality_fraction
        self.max_capacity = max_capacity
        #: Ring buffer of recent centres, as parallel coordinate lists.
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._displacements: list[float] = []  # parallel ring buffer
        self._head = 0
        #: Long-run bounding box of every centre ever observed — the
        #: snap cap scales with the workload's full extent, not the
        #: current window's (a flash crowd collapses the window to the
        #: crowd's box; the cap must not collapse with it).
        self._bounds: list[float] | None = None  # [minx, miny, maxx, maxy]
        self._since_adjust = 0
        self._base_capacity: int | None = None

    def attach(
        self, cache: "VisibilityGraphCache", stats: "RuntimeStats"
    ) -> None:
        """Wire up the cache and remember its configured capacity as
        the floor the learned capacity never drops below."""
        super().attach(cache, stats)
        self._base_capacity = cache.capacity

    # ------------------------------------------------------------ observation
    def observe(self, center) -> None:
        """One lookup centre: update the displacement window and run
        an adjustment pass every ``adjust_every`` lookups."""
        # Nearest-neighbour displacement against the *current* window
        # (min over the window, not just the previous centre, so R
        # interleaved commuter clients still measure the per-client
        # step rather than the client-to-client hop).  The minimum is
        # taken over squares, then rooted once: sqrt is correctly
        # rounded and monotone, so this is ``min(center.distance(c))``
        # to the bit.
        x, y = center.x, center.y
        xs, ys = self._xs, self._ys
        if xs:
            best = inf
            for cx, cy in zip(xs, ys):
                dx = x - cx
                dy = y - cy
                s = dx * dx + dy * dy
                if s < best:
                    best = s
            d = sqrt(best)
        else:
            d = 0.0
        if len(xs) < self.window:
            xs.append(x)
            ys.append(y)
            self._displacements.append(d)
        else:
            xs[self._head] = x
            ys[self._head] = y
            self._displacements[self._head] = d
            self._head = (self._head + 1) % self.window
        if self._bounds is None:
            self._bounds = [x, y, x, y]
        else:
            b = self._bounds
            b[0] = min(b[0], x)
            b[1] = min(b[1], y)
            b[2] = max(b[2], x)
            b[3] = max(b[3], y)
        self._since_adjust += 1
        if self._since_adjust >= self.adjust_every:
            self._since_adjust = 0
            self._adjust()

    # ------------------------------------------------------------- adjustment
    def _spread(self) -> float:
        if self._bounds is None:
            return 0.0
        minx, miny, maxx, maxy = self._bounds
        return max(maxx - minx, maxy - miny)

    def _recent_displacements(self, k: int) -> list[float]:
        """The last ``k`` displacements, most recent first."""
        n = len(self._displacements)
        if n < self.window:
            return self._displacements[-k:]
        return [
            self._displacements[(self._head - 1 - j) % self.window]
            for j in range(min(k, n))
        ]

    def _candidate_snap(self) -> float:
        """The snap quantum the recent stream argues for (0 = exact).

        Decisions use the most recent third of the window (at least 8
        samples): the displacement distribution is what changes when
        the workload changes regime, and waiting for the full window
        to turn over would cost a window's worth of exact-key misses
        on every transition.
        """
        recent = self._recent_displacements(max(8, self.window // 3))
        nonzero = [d for d in recent if d > 0.0]
        if len(nonzero) < 6:
            return self.cache.snap  # too little signal: hold
        spread = self._spread()
        if spread <= 0.0:
            return self.cache.snap
        candidate = self.snap_factor * median(nonzero)
        # Cells are never wider than a small fraction of the long-run
        # spread — beyond that, "sharing" means covering most of the
        # universe from one centre.  (A capped cell can still win:
        # the locality test below decides.)
        candidate = min(candidate, 0.05 * spread)
        inside = sum(1 for d in recent if d <= candidate)
        if inside < self.locality_fraction * len(recent):
            return 0.0  # no locality: exact keys
        return candidate

    def _candidate_capacity(self) -> int:
        base = self._base_capacity or self.cache.capacity
        snap = self.cache.snap
        centers = zip(self._xs, self._ys)
        if snap > 0:
            cells = {(round(x / snap), round(y / snap)) for x, y in centers}
            distinct = len(cells)
        else:
            distinct = len(set(centers))
        return max(base, min(self.max_capacity, 2 * distinct))

    def _adjust(self) -> None:
        new_snap = self._candidate_snap()
        old_snap = self.cache.snap
        snap_arg = None
        if new_snap != old_snap:
            lo, hi = sorted((new_snap, old_snap))
            # Damping: re-keying the cache is not free, so a retune
            # needs either a zero/non-zero flip or a >25 % move.
            if lo == 0.0 or (hi - lo) / hi > 0.25:
                snap_arg = new_snap
        new_capacity = self._candidate_capacity()
        capacity_arg = (
            new_capacity if new_capacity != self.cache.capacity else None
        )
        if snap_arg is None and capacity_arg is None:
            return
        with TRACER.span(
            "policy.adjust",
            snap=snap_arg if snap_arg is not None else old_snap,
            capacity=(
                capacity_arg
                if capacity_arg is not None
                else self.cache.capacity
            ),
        ):
            self.cache.configure(snap=snap_arg, capacity=capacity_arg)
        self.stats.policy_adjustments += 1
        TRACER.count("policy.adjust")
        if snap_arg is not None:
            self.stats.policy_snap += 1
        if capacity_arg is not None:
            self.stats.policy_capacity += 1


_POLICIES = {
    "static": CachePolicy,
    "adaptive": AdaptiveCachePolicy,
}


def resolve_cache_policy(
    spec: "str | CachePolicy | None" = None,
) -> CachePolicy:
    """The policy instance ``spec`` names.

    ``None`` is the static policy; a string is looked up by name; a
    :class:`CachePolicy` instance passes through unchanged.  Unknown
    names raise :class:`~repro.errors.DatasetError` naming the valid
    choices — fail fast, not fall back.
    """
    if isinstance(spec, CachePolicy):
        return spec
    if spec is None:
        spec = "static"
    try:
        factory = _POLICIES[spec]
    except KeyError:
        raise DatasetError(
            f"unknown cache policy {spec!r}: expected one of "
            f"{', '.join(sorted(_POLICIES))}"
        ) from None
    return factory()
