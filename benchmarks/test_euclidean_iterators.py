"""Euclidean iterator benchmark: array-evaluated nodes vs the scalar oracle.

Not a paper figure — this measures the candidate generators of ODJ and
OCP (paper Figs. 10-11) on their own: the R-tree distance join and the
incremental closest-pair stream at the cardinalities of the end-to-end
benchmark's ``paper-join`` workload (|S| = 131, |T| = 13,146,
204-entry nodes).  ``src/`` evaluates a node in one numpy pass over its
packed MBRs and queues one entry per expanded node; the oracle in
``tests/euclidean/reference.py`` is the per-entry loop with an eager
queue.  The acceptance bars: the distance join at e = 0.1 % of the
universe side >= 8x faster, the first 64 closest pairs >= 6x faster,
and the same values in the same order from both.

Run standalone (pytest-benchmark)::

    PYTHONPATH=src python -m pytest benchmarks/test_euclidean_iterators.py

or as part of the CI smoke pass (``python benchmarks/run_all.py
--smoke``), which reports the same two rows.
"""

from __future__ import annotations

from benchmarks.common import euclidean_iterator_comparison


def test_array_traversals_acceptance(benchmark):
    rows = benchmark.pedantic(
        euclidean_iterator_comparison, rounds=1, iterations=1
    )
    for name, row in rows.items():
        benchmark.extra_info[f"{name}_speedup"] = row["speedup"]
        assert row["match"] == 1.0, f"{name}: differs from the scalar oracle"
        assert row["results"] > 0
        assert row["speedup"] >= row["target"], (
            f"{name}: {row['speedup']:.2f}x over the scalar oracle, "
            f"below the {row['target']:g}x acceptance bar"
        )
