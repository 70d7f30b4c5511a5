"""Per-layer metrics of the traced pass, by the names in BENCHMARK.json.

``*_ms_per_op`` is summed *self* time (span minus child spans) over
ops.  Counts come from ``db.stats()``, ``db.runtime_stats()``,
``server.stats`` or return values at the same boundaries.  A metric
that does not apply to a workload (``serve.*`` on a sequential one,
``persist.*`` without a journal) reads 0.

Span times are as measured; ``obs.slowness`` is the machine's slowness
around the traced pass (see ``SpeedReference``) to read them against.
The per-kind latencies and ``obs.trace_overhead_share`` are reported as
the end-to-end times are — at reference speed on the four sequential
workloads, raw on ``serve-stream`` — and ``obs.raw.*`` are the untraced
prefix's raw rate and median.
"""

from __future__ import annotations

import statistics

import numpy as np

from e2e_trace import merge_totals
from e2e_workloads import MUTATION_KINDS, RunResult, percentile

_KIND_METRICS = {
    "range": ("core.range", True),
    "nearest": ("core.nearest", True),
    "distance": ("core.distance", True),
    "distance_join": ("core.distance_join", False),
    "closest_pairs": ("core.closest_pairs", False),
    "insert": ("core.insert_obstacle", False),
    "delete": ("core.delete_obstacle", False),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _walk(span: dict):
    yield span
    for child in span.get("children", ()):
        yield from _walk(child)


def serve_summary(roots: list[dict]) -> dict:
    """What the program's own ``serve.batch`` trees say: queue waits,
    batch sizes, and — per pool batch — the slowest worker's span plus
    the layer totals the workers hung on theirs."""
    waits, sizes, slowest = [], [], []
    covered_s = 0.0
    worker_totals: dict[str, list[float]] = {}
    worker_counts: dict[str, float] = {}
    for root in roots:
        attrs = root.get("attrs", {})
        if "queue_wait_ms" in attrs:
            waits.append(attrs["queue_wait_ms"])
        sizes.append(attrs.get("n", 0))
        workers = [s for s in _walk(root) if s["name"] == "pool.worker"]
        if workers:
            slowest.append(max(w["duration_s"] for w in workers))
        # Every op of the batch waits for its slowest worker — or, when
        # the batch was too small for the pool, for the inline call.
        covered_s += attrs.get("n", 0) * (
            slowest[-1] if workers else root["duration_s"]
        )
        for w in workers:
            w_attrs = w.get("attrs", {})
            merge_totals(worker_totals, w_attrs.get("e2e_layers", {}))
            for key, value in w_attrs.get("e2e_counts", {}).items():
                worker_counts[key] = worker_counts.get(key, 0.0) + value
    return {
        "waits": waits,
        "sizes": sizes,
        "slowest": slowest,
        "covered_s": covered_s,
        "worker_totals": worker_totals,
        "worker_counts": worker_counts,
    }


def false_hit_ratio(result: RunResult, entity_sets: dict[str, np.ndarray]) -> float:
    """The paper's Figs. 15/18 measure over the pass's OR and ONN ops:
    Euclidean hits that are not obstructed hits, over the hits asked
    for.  The Euclidean answer is brute force over the coordinates —
    beside the run, touching no tree."""
    false_hits = 0.0
    wanted = 0.0
    for op, answer in zip(result.ops, result.answers):
        if op[0] not in ("range", "nearest") or answer is None:
            continue
        pts = entity_sets[op[1]]
        q = op[2]
        d = np.hypot(pts[:, 0] - q.x, pts[:, 1] - q.y)
        if op[0] == "range":
            false_hits += int((d <= op[3]).sum()) - len(answer)
            wanted += len(answer)
        else:
            k = min(op[3], len(d))
            nearest = np.argpartition(d, k - 1)[:k]
            euclid = {(float(pts[i, 0]), float(pts[i, 1])) for i in nearest}
            false_hits += len(euclid - {(p.x, p.y) for p, __ in answer})
            wanted += k
    return _ratio(false_hits, wanted)


def layer_metrics(
    names: list[str],
    *,
    totals: dict[str, list[float]],
    counts: dict[str, float],
    traced: RunResult,
    untraced: RunResult,
    pages: dict[str, int],
    reads: int,
    runtime: dict[str, float],
    parts: dict[str, float],
    serve: dict | None,
    op_span_s: float,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every one of ``names`` (``BENCHMARK.json``'s ``per_layer``) for
    one traced pass.

    ``totals``/``counts`` are the recorder's (workers' already merged
    in); ``pages``/``reads``/``runtime`` are deltas of ``db.stats()``
    and ``db.runtime_stats()`` over the pass; ``op_span_s`` is the
    summed duration of the op spans; ``extras`` carries what was
    measured beside the pass (false-hit ratio, recovery, probe, gen)."""
    n = len(traced.ops)
    mutations = sum(1 for op in traced.ops if op[0] in MUTATION_KINDS)
    m = dict.fromkeys(names, 0.0)

    def self_ms(name: str) -> float:
        return 1000.0 * totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[0]

    misses = sum(pages.values())
    m["index.read_node.self_ms_per_op"] = self_ms("index.read_node") / n
    m["index.page_reads_per_op"] = reads / n
    m["index.obstacle_misses_per_op"] = (
        sum(v for k, v in pages.items() if k.startswith("obstacles:")) / n
    )
    m["index.entity_misses_per_op"] = (
        sum(v for k, v in pages.items() if k.startswith("entities:")) / n
    )
    m["index.buffer_hit_rate"] = _ratio(reads - misses, reads)
    m["index.mutate.self_ms_per_op"] = self_ms("index.mutate") / n
    m["index.bulk_load_s"] = parts.get("bulk_load_s", 0.0)

    m["core.self_ms_per_op"] = (
        sum(1000.0 * v[1] for k, v in totals.items() if k.startswith("op.")) / n
    )
    m["core.retrieve.self_ms_per_op"] = self_ms("core.retrieve") / n
    m["core.retrieve.calls_per_op"] = calls("core.retrieve") / n
    m["core.false_hit_ratio"] = extras.get("false_hit_ratio", 0.0)
    for kind, (prefix, with_p95) in _KIND_METRICS.items():
        lat = untraced.latencies_ms(kind)
        m[f"{prefix}.p50_ms"] = percentile(lat, 50)
        if with_p95:
            m[f"{prefix}.p95_ms"] = percentile(lat, 95)

    builds = calls("visibility.build")
    m["visibility.build.self_ms_per_op"] = self_ms("visibility.build") / n
    m["visibility.build.calls_per_op"] = builds / n
    m["visibility.build.nodes_per_call"] = _ratio(counts.get("build.nodes", 0.0), builds)
    m["visibility.build.edges_per_call"] = _ratio(counts.get("build.edges", 0.0), builds)
    m["visibility.incremental.self_ms_per_op"] = self_ms("visibility.incremental") / n
    m["visibility.freeze.self_ms_per_op"] = self_ms("visibility.freeze") / n
    m["visibility.freeze.calls_per_op"] = calls("visibility.freeze") / n
    m["visibility.dijkstra.self_ms_per_op"] = self_ms("visibility.dijkstra") / n
    m["visibility.dijkstra.calls_per_op"] = calls("visibility.dijkstra") / n
    m["visibility.dijkstra.settled_share"] = _ratio(
        counts.get("dijkstra.settled", 0.0), counts.get("dijkstra.nodes", 0.0)
    )

    hits = runtime.get("graph_cache_hits", 0)
    m["runtime.cache.hit_rate"] = _ratio(
        hits, hits + runtime.get("graph_cache_misses", 0)
    )
    m["runtime.cache.promotions_per_op"] = runtime.get("graph_cache_promotions", 0) / n
    m["runtime.cache.evictions_per_op"] = runtime.get("graph_cache_evictions", 0) / n
    m["runtime.cache.repairs_per_mutation"] = _ratio(
        runtime.get("graph_cache_repairs", 0), mutations
    )
    m["runtime.cache.invalidations_per_mutation"] = _ratio(
        runtime.get("graph_cache_invalidations", 0), mutations
    )
    m["runtime.cache.self_ms_per_op"] = self_ms("runtime.cache") / n
    m["runtime.context.self_ms_per_op"] = self_ms("runtime.context") / n
    m["runtime.policy.self_ms_per_op"] = self_ms("runtime.policy") / n
    m["runtime.policy.adjustments_per_kop"] = (
        1000.0 * runtime.get("policy_adjustments", 0) / n
    )
    m["runtime.field.self_ms_per_op"] = self_ms("runtime.field") / n
    m["runtime.field.evals_per_op"] = counts.get("field.evals", 0.0) / n

    journal_bytes = runtime.get("journal_bytes", 0)
    compactions = runtime.get("compactions", 0)
    compaction_bytes = runtime.get("compaction_bytes", 0)
    m["persist.journal.self_ms_per_mutation"] = _ratio(
        self_ms("persist.journal"), mutations
    )
    m["persist.journal.bytes_per_mutation"] = _ratio(journal_bytes, mutations)
    m["persist.write_amplification"] = _ratio(
        journal_bytes + compaction_bytes, journal_bytes
    )
    m["persist.compact.ms_per_call"] = _ratio(
        1000.0 * totals.get("persist.compact", (0, 0.0, 0.0))[2], compactions
    )
    m["persist.compact.bytes_per_call"] = _ratio(compaction_bytes, compactions)
    m["persist.save_s"] = parts.get("save_s", 0.0)
    m["persist.snapshot_bytes"] = parts.get("snapshot_bytes", 0.0)
    m["persist.recover_s"] = extras.get("recover_s", 0.0)

    if serve is not None:
        pool_batches = len(serve["slowest"])
        dispatch_s = totals.get("serve.dispatch", (0, 0.0, 0.0))[2]
        m["serve.queue_wait.p50_ms"] = percentile(serve["waits"], 50)
        m["serve.queue_wait.p95_ms"] = percentile(serve["waits"], 95)
        m["serve.batch_size.mean"] = (
            statistics.fmean(serve["sizes"]) if serve["sizes"] else 0.0
        )
        m["serve.coalesced_share"] = extras.get("coalesced_share", 0.0)
        m["serve.pool.dispatch.self_ms_per_batch"] = _ratio(
            1000.0 * (dispatch_s - sum(serve["slowest"])), pool_batches
        )
        m["serve.pool.worker.ms_per_batch"] = _ratio(
            1000.0 * sum(serve["slowest"]), pool_batches
        )
        # Client-observed time that is not the batch's query work (its
        # slowest worker, or the inline call of a batch too small for
        # the pool): window, queue wait, dispatch, pickle, pipe.
        m["serve.overhead.ms_per_op"] = (
            sum(traced.latencies_ms()) - 1000.0 * serve["covered_s"]
        ) / n
        m["serve.pool.spawn_s"] = extras.get("spawn_s", 0.0)
        for mode in ("sequential", "fork", "persistent"):
            m[f"serve.probe.{mode}_ms_per_item"] = extras.get(f"probe_{mode}", 0.0)

    m["obs.trace_overhead_share"] = (
        traced.per_op_wall() / untraced.per_op_wall() - 1.0
    )
    m["obs.attributed_share"] = op_span_s / sum(traced.client_walls)
    m["obs.slowness"] = traced.machine_slowness
    m["obs.raw.ops_per_s"] = untraced.raw().ops_per_s()
    m["obs.raw.op_p50_ms"] = percentile(untraced.raw().latencies_ms(), 50)
    m["workloads.gen_s"] = extras.get("gen_s", 0.0)
    if len(m) != len(names):
        raise KeyError(f"not in BENCHMARK.json: {sorted(set(m) - set(names))}")
    return m
