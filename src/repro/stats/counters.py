"""Page-access accounting for simulated disk-resident indexes."""

from __future__ import annotations

from typing import Iterable, Mapping

#: ``(reads, misses, writes)`` of one tree, or a change in them.
PageCounts = tuple[int, int, int]


class PageAccessCounter:
    """Counts logical node reads, physical page accesses and writes.

    *Logical reads* count every node visit.  *Misses* count only the
    visits that the LRU buffer could not serve — this is the paper's
    "page accesses" metric.  *Writes* count node creations/updates
    during index construction and maintenance.
    """

    __slots__ = ("reads", "misses", "writes")

    def __init__(self) -> None:
        self.reads = 0
        self.misses = 0
        self.writes = 0

    def record_read(self, hit: bool) -> None:
        """Record one node visit; ``hit`` says whether the buffer had it."""
        self.reads += 1
        if not hit:
            self.misses += 1

    def record_write(self) -> None:
        """Record one node write."""
        self.writes += 1

    def reset(self) -> None:
        """Zero all counters (between queries / workloads)."""
        self.reads = 0
        self.misses = 0
        self.writes = 0

    def snapshot(self) -> dict[str, int]:
        """Current counts as a plain dict."""
        return {"reads": self.reads, "misses": self.misses, "writes": self.writes}

    def __repr__(self) -> str:
        return (
            f"PageAccessCounter(reads={self.reads}, misses={self.misses}, "
            f"writes={self.writes})"
        )


def page_counts(trees: Iterable) -> dict[str, PageCounts]:
    """The page counters of ``trees``, keyed by (unique) tree name."""
    return {
        tree.name: (tree.counter.reads, tree.counter.misses, tree.counter.writes)
        for tree in trees
    }


def add_page_counts(trees: Iterable, deltas: Mapping[str, PageCounts]) -> None:
    """Add ``deltas`` — counters ticked from zero on copies of
    ``trees`` in a worker process — onto the same-named trees.  A name
    none of ``trees`` carries is dropped: counters are reporting, never
    correctness."""
    for tree in trees:
        if tree.name in deltas:
            reads, misses, writes = deltas[tree.name]
            tree.counter.reads += reads
            tree.counter.misses += misses
            tree.counter.writes += writes
