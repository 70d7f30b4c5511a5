"""``repro-snapshot`` — build, inspect and verify snapshot files.

Usage::

    repro-snapshot save --obstacles obstacles.txt \\
        [--entities cafes=cafes.txt ...] [--snap 2.0] \\
        [--warm 8] [--no-refs] --out scene.snap
    repro-snapshot info scene.snap
    repro-snapshot verify scene.snap

``save`` builds an :class:`~repro.core.engine.ObstacleDatabase` from
plain-text dataset files (:mod:`repro.datasets.io` formats), optionally
pre-warms the visibility-graph cache (``--warm N`` runs N deterministic
queries so the snapshot ships warm), records the dataset files by
content hash (disable with ``--no-refs``), and writes the snapshot.
``info`` prints the structural summary without assembling a database;
``verify`` performs a full restore plus R*-tree invariant checks.

Also runnable without installation as ``python -m repro.persist.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-snapshot",
        description="Build, inspect and verify obstacle-database snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    save = sub.add_parser(
        "save", help="build a database from dataset files and snapshot it"
    )
    save.add_argument(
        "--obstacles",
        required=True,
        help="obstacle dataset file (one 'oid x1 y1 x2 y2 ...' per line)",
    )
    save.add_argument(
        "--entities",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="entity dataset as NAME=FILE (one 'x y' per line); repeatable",
    )
    save.add_argument(
        "--snap",
        type=float,
        default=0.0,
        help="graph-cache spatial-key quantum (default 0: exact keys)",
    )
    save.add_argument(
        "--cache-size",
        type=int,
        default=64,
        help="graph-cache capacity (default 64)",
    )
    save.add_argument(
        "--warm",
        type=int,
        default=0,
        metavar="N",
        help="pre-warm the cache with N deterministic queries before saving",
    )
    save.add_argument(
        "--no-refs",
        action="store_true",
        help="do not record the dataset files by content hash",
    )
    save.add_argument("--out", required=True, help="snapshot file to write")

    info = sub.add_parser("info", help="print a snapshot's structure")
    info.add_argument("snapshot", help="snapshot file")

    verify = sub.add_parser(
        "verify", help="fully restore a snapshot and check tree invariants"
    )
    verify.add_argument("snapshot", help="snapshot file")
    return parser


def entity_specs(specs: Sequence[str]) -> list[tuple[str, str]] | None:
    """``--entities NAME=FILE`` values as ``(name, file)`` pairs;
    ``None`` (after a message on stderr) when one is malformed."""
    pairs = []
    for spec in specs:
        name, sep, file_path = spec.partition("=")
        if not sep or not name or not file_path:
            print(f"--entities needs NAME=FILE, got {spec!r}", file=sys.stderr)
            return None
        pairs.append((name, file_path))
    return pairs


def _cmd_save(args: argparse.Namespace) -> int:
    from repro.core.engine import ObstacleDatabase
    from repro.datasets.io import load_obstacles, load_points

    obstacles = load_obstacles(args.obstacles)
    entity_sets = entity_specs(args.entities)
    if entity_sets is None:
        return 2
    refs = {"obstacles": args.obstacles}
    refs.update((f"entities:{name}", path) for name, path in entity_sets)
    db = ObstacleDatabase(
        obstacles,
        graph_cache_snap=args.snap,
        graph_cache_size=args.cache_size,
    )
    for name, file_path in entity_sets:
        db.add_entity_set(name, load_points(file_path))
    run_probes(db, args.warm)
    db.save(args.out, dataset_refs=None if args.no_refs else refs)
    stats = db.runtime_stats()
    print(
        f"wrote {args.out}: {len(obstacles)} obstacle(s), "
        f"{len(entity_sets)} entity set(s), "
        f"{stats['graph_builds']} cached graph build(s)"
    )
    return 0


def probe_workload(db) -> tuple[str | None, list]:
    """The deterministic probe workload over ``db`` (``save --warm``,
    ``repro-obs export --probe`` and ``repro-obs top``): nearest queries
    anchored at the points of the entity set first by name when there
    is one, else obstructed distances along the universe diagonal.
    Returns ``(entity_set_name, probes)`` where probes are points
    (nearest) or point pairs (distance)."""
    from repro.geometry.point import Point

    names = sorted(db._entity_trees)
    if names:
        points = sorted(p for p, __ in db.entity_tree(names[0]).items())
        return names[0], points
    universe = db.universe()
    if universe is None:
        return None, []

    def along(t: float) -> Point:
        return Point(
            universe.minx + t * universe.width,
            universe.miny + t * universe.height,
        )

    return None, [(along((i + 1) / 10.0), along((i + 2) / 11.0)) for i in range(8)]


def run_probes(db, n: int) -> None:
    """Run the first ``n`` probes of :func:`probe_workload`, cycling."""
    if n <= 0:
        return
    set_name, probes = probe_workload(db)
    if not probes:
        return
    for i in range(n):
        probe = probes[i % len(probes)]
        if set_name is not None:
            db.nearest(set_name, probe, 1)
        else:
            db.obstructed_distance(*probe)


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.persist.store import snapshot_info

    info = snapshot_info(args.snapshot)
    print(f"{info['path']}: snapshot format v{info['format_version']}")
    print(
        f"  config: cache={info['graph_cache_size']}, snap={info['graph_cache_snap']:g}, "
        f"next_oid={info['next_oid']}"
    )
    print(f"  distinct obstacles: {info['distinct_obstacles']}")
    for entry in info["obstacle_sets"]:  # type: ignore[union-attr]
        print(
            f"  obstacle set {entry['name']!r}: "
            f"{entry['obstacles']} obstacle(s), {entry['pages']} page(s)"
        )
        print(
            f"    pages: {entry['reads']} read(s), {entry['misses']} "
            f"miss(es), {entry['writes']} write(s)"
        )
    for entry in info["entity_sets"]:  # type: ignore[union-attr]
        print(
            f"  entity set {entry['name']!r}: {entry['points']} point(s), "
            f"{entry['pages']} page(s)"
        )
        print(
            f"    pages: {entry['reads']} read(s), {entry['misses']} "
            f"miss(es), {entry['writes']} write(s)"
        )
    print(f"  cached visibility graphs: {info['cached_graphs']}")
    for i, entry in enumerate(info["cache_entries"]):  # type: ignore[union-attr]
        cx, cy = entry["center"]
        print(
            f"    graph {i}: center=({cx:g}, {cy:g}), "
            f"covered={entry['covered']:g}, "
            f"{entry['obstacles']} obstacle(s), {entry['free']} free point(s), "
            f"stamp of {entry['stamp']} version(s)"
        )
    stats = info["runtime_stats"]
    if stats:  # type: ignore[truthy-bool]
        ticked = {
            k: v for k, v in stats.items() if v and k != "backend"  # type: ignore[union-attr]
        }
        backend = stats.get("backend", "")  # type: ignore[union-attr]
        label = f" (backend {backend})" if backend else ""
        if ticked:
            inner = ", ".join(
                f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(ticked.items())
            )
            print(f"  runtime counters{label}: {inner}")
        else:
            print(f"  runtime counters{label}: all zero")
    for ref in info["dataset_refs"]:  # type: ignore[union-attr]
        print(
            f"  dataset ref {ref['label']!r}: {ref['path']} "
            f"(sha256 {ref['sha256'][:12]}...)"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.engine import ObstacleDatabase

    db = ObstacleDatabase.load(args.snapshot)
    trees = 0
    for __, tree in db._trees():
        tree.check_invariants()
        trees += 1
    cached = len(db.context.cache)
    print(
        f"{args.snapshot}: OK ({trees} tree(s) pass invariants, "
        f"{cached} cached graph(s) restored)"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "save":
            return _cmd_save(args)
        if args.command == "info":
            return _cmd_info(args)
        return _cmd_verify(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
