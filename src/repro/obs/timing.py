"""Lightweight wall-clock timing helpers.

The one stopwatch primitive in the codebase — benchmarks accumulate
wall-clock through :class:`Timer`; everything finer-grained goes
through :mod:`repro.obs.trace` spans.
"""

from __future__ import annotations

import time

__all__ = ["Timer"]


class Timer:
    """A context-manager stopwatch accumulating elapsed seconds.

    Can be re-entered; ``elapsed`` accumulates across uses, which suits
    per-workload CPU-time accounting::

        timer = Timer()
        for q in workload:
            with timer:
                run_query(q)
        print(timer.elapsed_ms / len(workload))
    """

    __slots__ = ("elapsed", "_start")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed += time.perf_counter() - self._start
        self._start = None

    @property
    def elapsed_ms(self) -> float:
        """Accumulated time in milliseconds."""
        return self.elapsed * 1000.0

    def reset(self) -> None:
        """Zero the accumulated time."""
        self.elapsed = 0.0
