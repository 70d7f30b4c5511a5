"""``repro-workloads`` — generate, describe and replay workload traces.

Usage::

    repro-workloads list
    repro-workloads generate PROFILE -o trace.wtrc [--seed N]
        [--events N] [--obstacles N] [--entities N] [--set-name NAME]
    repro-workloads describe trace.wtrc [--json]
    repro-workloads replay trace.wtrc [--snap QUANTUM]
        [--policy static|adaptive] [--cache-size N] [--shards N]
        [--json]

``generate`` materialises a named profile (see ``list``) as a
versioned, checksummed trace file — byte-identical for identical
arguments, on any host.  ``describe`` prints a trace's recipe and
event mix without touching a database.  ``replay`` reconstructs the
scene from the recipe, drives a database through the event stream
under the requested cache configuration, and reports the
cache-behaviour metrics (graph builds, hit rate, policy adjustments).

Also runnable without installation as ``python -m repro.workloads.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.errors import ReproError
from repro.workloads.profiles import (
    PROFILES,
    generate_trace,
    profile_names,
)
from repro.workloads.replay import replay_trace
from repro.workloads.trace import read_trace, write_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-workloads",
        description="Generate, describe and replay workload traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available workload profiles")

    gen = sub.add_parser(
        "generate", help="generate a named profile as a trace file"
    )
    gen.add_argument("profile", choices=profile_names())
    gen.add_argument(
        "-o", "--out", required=True, metavar="FILE", help="trace file to write"
    )
    gen.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    gen.add_argument(
        "--events",
        type=int,
        default=None,
        metavar="N",
        help="event count (default: per-profile)",
    )
    gen.add_argument(
        "--obstacles", type=int, default=None, metavar="N",
        help="scene obstacle count",
    )
    gen.add_argument(
        "--entities", type=int, default=None, metavar="N",
        help="scene entity count",
    )
    gen.add_argument(
        "--set-name", default="P1", help="entity set name (default P1)"
    )

    desc = sub.add_parser(
        "describe", help="print a trace's recipe and event mix"
    )
    desc.add_argument("file", help="trace file")
    desc.add_argument("--json", action="store_true", help="machine-readable")

    rep = sub.add_parser(
        "replay", help="replay a trace and report cache metrics"
    )
    rep.add_argument("file", help="trace file")
    rep.add_argument(
        "--snap",
        type=float,
        default=0.0,
        help="graph-cache snap quantum (default 0: exact keys)",
    )
    rep.add_argument(
        "--policy",
        default="static",
        help="cache policy (static | adaptive; default static)",
    )
    rep.add_argument(
        "--cache-size", type=int, default=64, help="LRU capacity (default 64)"
    )
    rep.add_argument(
        "--shards", type=int, default=None, help="spatial shard fan-out"
    )
    rep.add_argument("--json", action="store_true", help="machine-readable")
    return parser


def _trace_summary(path: str) -> dict:
    trace = read_trace(path)
    return {
        "profile": trace.profile,
        "seed": trace.seed,
        "n_obstacles": trace.n_obstacles,
        "scene_seed": trace.scene_seed,
        "n_entities": trace.n_entities,
        "set_name": trace.set_name,
        "events": len(trace.events),
        "kinds": trace.kind_counts(),
    }


def _cmd_list(args: argparse.Namespace) -> int:
    for name, (builder, default_events) in PROFILES.items():
        doc = (builder.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:14} default events {default_events:4}  {summary}".rstrip())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.obstacles is not None:
        kwargs["n_obstacles"] = args.obstacles
    if args.entities is not None:
        kwargs["n_entities"] = args.entities
    trace = generate_trace(
        args.profile,
        seed=args.seed,
        n_events=args.events,
        set_name=args.set_name,
        **kwargs,
    )
    write_trace(args.out, trace)
    counts = ", ".join(
        f"{kind}={n}" for kind, n in trace.kind_counts().items() if n
    )
    print(
        f"wrote {args.out}: {args.profile} seed={args.seed} "
        f"{len(trace.events)} event(s) ({counts})"
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    summary = _trace_summary(args.file)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"{args.file}: profile {summary['profile']} seed {summary['seed']}")
    print(
        f"  scene: {summary['n_obstacles']} obstacle(s) seed "
        f"{summary['scene_seed']}, {summary['n_entities']} entities "
        f"in set {summary['set_name']!r}"
    )
    kinds = ", ".join(
        f"{kind}={n}" for kind, n in summary["kinds"].items() if n
    )
    print(f"  events: {summary['events']} ({kinds})")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = read_trace(args.file)
    answers, metrics = replay_trace(
        trace,
        graph_cache_snap=args.snap,
        cache_policy=args.policy,
        graph_cache_size=args.cache_size,
        shards=args.shards,
    )
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
        return 0
    print(
        f"replayed {args.file}: {int(metrics['events'])} event(s) in "
        f"{metrics['cpu_ms_total']:.1f} ms"
    )
    print(
        f"  graph builds {int(metrics['graph_builds'])}, hit rate "
        f"{metrics['hit_rate']:.2f} ({int(metrics['cache_hits'])} hits / "
        f"{int(metrics['cache_misses'])} misses), "
        f"{int(metrics['promotions'])} promotion(s), "
        f"{int(metrics['policy_adjustments'])} policy adjustment(s)"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "describe":
            return _cmd_describe(args)
        return _cmd_replay(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
