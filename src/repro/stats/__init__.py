"""Instrumentation: page-access counters.

The paper's I/O metric is the number of R-tree page accesses with an
LRU buffer sized at 10 % of each tree.  :class:`PageAccessCounter`
makes that metric a first-class, resettable observable on every index.
(Timers live in :mod:`repro.obs`.)
"""

from repro.stats.counters import PageAccessCounter

__all__ = ["PageAccessCounter"]
