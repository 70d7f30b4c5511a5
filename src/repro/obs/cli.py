"""``repro-obs`` — export metrics, pretty-print traces, watch a server.

Usage::

    repro-obs export (--snapshot scene.snap | --obstacles obstacles.txt
        [--entities NAME=FILE ...]) [--probe N] [--format json|prometheus]
        [--trace-out trace.json] [--sample RATE]
    repro-obs trace trace.json
    repro-obs top (--snapshot scene.snap | --obstacles obstacles.txt
        [--entities NAME=FILE ...]) [--ticks N] [--interval S]
        [--workers W] [--pool fork|persistent]

``export`` assembles a database (from a snapshot or plain-text dataset
files), optionally replays ``--probe N`` deterministic queries so the
counters show real work, and dumps the unified
:class:`~repro.obs.metrics.MetricsRegistry` snapshot as JSON or
Prometheus text exposition.  With ``--trace-out`` the probe run is
traced (``--sample`` sets the rate, default 1.0) and the last root
span tree is written as JSON — ready for ``repro-obs trace``.

``trace`` pretty-prints a span-tree JSON file (one written by
``--trace-out``, the slow-query log, or any
:meth:`~repro.obs.trace.Span.to_dict` dump): an indented tree with
durations, attributes and hot-layer counters.

``top`` serves a probe workload through an asyncio
:class:`~repro.serve.server.QueryServer` (and therefore through the
persistent worker pool when selected) and redraws a one-line stats
summary per tick — requests, batches, requests per batch, queue wait
(admission to dispatch start), latency percentiles, cache and page
counters.

Also runnable without installation as ``python -m repro.obs.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.errors import ReproError
from repro.persist.cli import entity_specs, probe_workload, run_probes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Export unified metrics, pretty-print query traces, and "
            "watch a serving database."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser(
        "export", help="dump the metrics registry as JSON or Prometheus text"
    )
    _add_source_args(export)
    export.add_argument(
        "--probe",
        type=int,
        default=0,
        metavar="N",
        help="replay N deterministic queries before exporting",
    )
    export.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="output format (default json)",
    )
    export.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="trace the probe run and write the last span tree as JSON",
    )
    export.add_argument(
        "--sample",
        type=float,
        default=1.0,
        help="trace sampling rate for --trace-out (default 1.0)",
    )

    trace = sub.add_parser("trace", help="pretty-print a span-tree JSON file")
    trace.add_argument("file", help="span-tree JSON file ('-' for stdin)")

    top = sub.add_parser(
        "top", help="serve a probe workload and print per-tick stats"
    )
    _add_source_args(top)
    top.add_argument(
        "--ticks",
        type=int,
        default=5,
        help="summary lines to print before exiting (default 5)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.0,
        help="seconds to sleep between ticks (default 0)",
    )
    top.add_argument(
        "--workers",
        type=int,
        default=0,
        help="batch workers per microbatch (default 0: sequential)",
    )
    top.add_argument(
        "--pool",
        choices=("fork", "persistent"),
        default="fork",
        help="batch pool kind (default fork)",
    )
    return parser


def _add_source_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--snapshot", default=None, help="load the database from a snapshot"
    )
    cmd.add_argument(
        "--obstacles",
        default=None,
        help="obstacle dataset file (one 'oid x1 y1 ...' per line)",
    )
    cmd.add_argument(
        "--entities",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="entity dataset as NAME=FILE (one 'x y' per line); repeatable",
    )


def _load_db(args: argparse.Namespace):
    """Assemble the database named by the source arguments."""
    from repro.core.engine import ObstacleDatabase
    from repro.datasets.io import load_obstacles, load_points

    if (args.snapshot is None) == (args.obstacles is None):
        print(
            "exactly one of --snapshot / --obstacles is required",
            file=sys.stderr,
        )
        return None
    if args.snapshot is not None:
        if args.entities:
            print("--entities needs --obstacles", file=sys.stderr)
            return None
        return ObstacleDatabase.load(args.snapshot)
    entity_sets = entity_specs(args.entities)
    if entity_sets is None:
        return None
    db = ObstacleDatabase(load_obstacles(args.obstacles))
    for name, file_path in entity_sets:
        db.add_entity_set(name, load_points(file_path))
    return db


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.obs.trace import TRACER

    db = _load_db(args)
    if db is None:
        return 2
    trace_doc = None
    if args.trace_out is not None:
        previous = TRACER.sample_rate
        TRACER.configure(args.sample)
        try:
            run_probes(db, max(args.probe, 1))
        finally:
            TRACER.configure(previous)
        root = TRACER.last_root
        if root is None:
            print(
                "no query was sampled; raise --sample or --probe",
                file=sys.stderr,
            )
            return 1
        trace_doc = root.to_dict()
    elif args.probe > 0:
        run_probes(db, args.probe)
    registry = db.metrics()
    if args.format == "prometheus":
        sys.stdout.write(registry.to_prometheus())
    else:
        print(registry.to_json())
    if trace_doc is not None:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh, indent=2, sort_keys=True)
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    return 0


def format_span_tree(doc: dict[str, Any]) -> str:
    """Render one :meth:`~repro.obs.trace.Span.to_dict` tree as an
    indented, human-readable listing."""
    lines: list[str] = []

    def render(node: dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        duration_ms = float(node.get("duration_s", 0.0)) * 1000.0
        lines.append(f"{indent}{node.get('name', '?')}  {duration_ms:.3f} ms")
        attrs = node.get("attrs") or {}
        for key in sorted(attrs):
            value = attrs[key]
            shown = f"{value:.3f}" if isinstance(value, float) else value
            lines.append(f"{indent}  · {key}={shown}")
        counters = node.get("counters") or {}
        for key in sorted(counters):
            lines.append(f"{indent}  # {key}={counters[key]}")
        if node.get("dropped"):
            lines.append(f"{indent}  ! {node['dropped']} child span(s) dropped")
        for child in node.get("children", []):
            render(child, depth + 1)

    render(doc, 0)
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.file == "-":
        raw = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        print(f"error: {args.file}: not JSON ({exc})", file=sys.stderr)
        return 1
    # Accept both a bare span tree and a slow-query-log entry list.
    if isinstance(doc, list):
        for i, entry in enumerate(doc):
            tree = entry.get("trace", entry) if isinstance(entry, dict) else {}
            if i:
                print()
            print(format_span_tree(tree))
        return 0
    if not isinstance(doc, dict):
        print(f"error: {args.file}: not a span tree", file=sys.stderr)
        return 1
    print(format_span_tree(doc.get("trace", doc) if "trace" in doc else doc))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    db = _load_db(args)
    if db is None:
        return 2
    if args.ticks < 1:
        print("--ticks must be >= 1", file=sys.stderr)
        return 2
    set_name, probes = probe_workload(db)
    if not probes:
        print("database is empty; nothing to serve", file=sys.stderr)
        return 1
    return asyncio.run(_top_loop(db, set_name, probes, args))


async def _top_loop(db, set_name, probes, args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import QueryServer

    async with QueryServer(
        db, workers=args.workers, pool=args.pool
    ) as server:
        registry = server.metrics()
        print(
            f"{'tick':>4}  {'reqs':>6}  {'batches':>7}  {'req/batch':>9}  "
            f"{'wait p50':>8}  {'p50 ms':>8}  {'p95 ms':>8}  "
            f"{'cache hit':>9}  {'cache miss':>10}  "
            f"{'pg reads':>8}  {'pg misses':>9}"
        )
        for tick in range(args.ticks):
            if set_name is not None:
                await asyncio.gather(
                    *(server.nearest(set_name, p, 1) for p in probes)
                )
            else:
                await asyncio.gather(
                    *(server.distance(a, b) for a, b in probes)
                )
            doc = registry.snapshot()
            serve = doc.get("serve", {})
            runtime = doc.get("runtime", {})
            latency = doc.get("serve_latency", {}).get("nearest") or doc.get(
                "serve_latency", {}
            ).get("distance", {})
            wait = serve.get("queue_wait", {})
            requests, batches = serve.get("requests", 0), serve.get("batches", 0)
            pages = doc.get("pages", {})
            reads = sum(tree.get("reads", 0) for tree in pages.values())
            misses = sum(tree.get("misses", 0) for tree in pages.values())
            print(
                f"{tick:>4}  {requests:>6}  {batches:>7}  "
                f"{requests / max(1, batches):>9.2f}  "
                f"{wait.get('p50_s', 0.0) * 1000.0:>8.2f}  "
                f"{latency.get('p50_s', 0.0) * 1000.0:>8.2f}  "
                f"{latency.get('p95_s', 0.0) * 1000.0:>8.2f}  "
                f"{runtime.get('graph_cache_hits', 0):>9}  "
                f"{runtime.get('graph_cache_misses', 0):>10}  "
                f"{reads:>8}  {misses:>9}"
            )
            if args.interval > 0 and tick + 1 < args.ticks:
                await asyncio.sleep(args.interval)
    db.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_top(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
