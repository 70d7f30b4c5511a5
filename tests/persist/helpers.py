"""Shared helpers for the snapshot-store tests."""

from __future__ import annotations

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.visibility.kernel.backend import available_backends


def backend_params() -> list[str]:
    """Every visibility backend."""
    return available_backends()


def storage_params() -> list[int | None]:
    """Obstacle storage layouts: monolithic and sharded."""
    return [None, 8]


def warm_queries(
    db: ObstacleDatabase, probes: list[Point], *, set_name: str = "P", k: int = 2
) -> list[object]:
    """Run a deterministic mixed workload; returns its answers.

    One nearest and one range query per probe point — enough to
    populate the graph cache with coverage around every probe.
    """
    answers: list[object] = []
    for q in probes:
        answers.append(db.nearest(set_name, q, k))
        answers.append(db.range(set_name, q, 15.0))
    return answers


def runtime_counters(db: ObstacleDatabase) -> dict[str, object]:
    """Runtime stats minus wall-clock noise (``sweep_seconds``)."""
    return {
        k: v for k, v in db.runtime_stats().items() if k != "sweep_seconds"
    }


def cache_signature(db: ObstacleDatabase) -> list[tuple]:
    """A structural fingerprint of every cached graph, in LRU order:
    centre, coverage, node set, edge set, obstacle ids, free points."""
    signature = []
    for entry in db.context.cache.entries():
        graph = entry.graph
        edges = {
            (u, v) if u < v else (v, u)
            for u in graph.nodes()
            for v in graph.neighbors(u)
        }
        signature.append(
            (
                entry.center,
                entry.covered,
                frozenset(graph.nodes()),
                frozenset(edges),
                frozenset(graph.obstacle_ids()),
                frozenset(graph.free_points()),
            )
        )
    return signature
