"""The snapshot store: a whole :class:`ObstacleDatabase` on disk.

One snapshot file captures everything the paper's cost model can
observe about a database plus everything its runtime has learned:

* **configuration** — tree layout, cache sizing, spatial-key quantum,
  sharding, the obstacle-id sequence;
* **obstacle table** — every distinct obstacle, stored once by id;
  trees, shards and cached graphs all reference into it, so a restored
  database shares one :class:`~repro.model.Obstacle` instance per id
  exactly as the live one does;
* **sources** — each obstacle set as its R*-tree page image
  (:mod:`repro.index.pageio`) for monolithic storage, or the grid
  geometry plus every per-shard tree (with per-shard mutation
  counters, layout version and Hilbert keys) for sharded storage;
* **entity trees** — page images with point payloads;
* **graph cache** — every cached visibility graph with its coverage
  radius and version stamp (:mod:`repro.persist.graphio`), in LRU
  order, then the frozen CSR arrays of the graphs that hold a current
  freeze;
* **runtime stats** and the **journal-sequence stamp** — the warm
  counters of the metrics registry, and the highest mutation sequence
  folded into this snapshot (``0`` for a non-durable database).

Because page ids, buffer residency and access counters round-trip, a
restored database is *observationally identical*: the same queries
produce bit-identical answers and identical simulated page-miss
counts.  Because the graph cache rides along, it is also *warm*: a
query whose centre was covered before the save builds zero new
visibility graphs after the load.

``dataset_refs`` lets a snapshot pin the source dataset files it was
built from by **content hash** (:func:`repro.datasets.io.content_hash`)
— loads re-hash the files and fail on drift, never trusting mtimes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.source import ObstacleIndex, ShardedObstacleIndex
from repro.datasets.io import content_hash
from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.index import pageio
from repro.model import Obstacle
from repro.persist.codec import (
    FORMAT_VERSION,
    BinaryReader,
    BinaryWriter,
    read_snapshot,
    write_snapshot,
)
from repro.persist.graphio import read_cache_entry, write_cache_entry
from repro.persist.journal import MutationJournal, apply_record
from repro.runtime.sharding import ShardGrid
from repro.visibility.csr import install_frozen

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ObstacleDatabase
    from repro.visibility.kernel.backend import VisibilityBackend

_KIND_MONO = 0
_KIND_SHARDED = 1

_STAT_INT = 0
_STAT_FLOAT = 1
_STAT_STR = 2


def _write_runtime_stats(w: BinaryWriter, stats) -> None:
    """The runtime-stats section: a tagged name/value list.

    Name-keyed (not positional) so counters added to
    :class:`~repro.runtime.stats.RuntimeStats` later neither shift the
    layout nor invalidate files already written."""
    snapshot = stats.snapshot() if stats is not None else {}
    w.u32(len(snapshot))
    for name in sorted(snapshot):
        value = snapshot[name]
        w.str_(name)
        if isinstance(value, bool) or isinstance(value, int):
            w.u8(_STAT_INT)
            w.i64(int(value))
        elif isinstance(value, float):
            w.u8(_STAT_FLOAT)
            w.f64(value)
        else:
            w.u8(_STAT_STR)
            w.str_(str(value))


def _read_runtime_stats(r: BinaryReader, path: str) -> dict[str, object]:
    """Decode the runtime-stats section into a plain dict."""
    out: dict[str, object] = {}
    for __ in range(r.u32()):
        name = r.str_()
        tag = r.u8()
        if tag == _STAT_INT:
            out[name] = r.i64()
        elif tag == _STAT_FLOAT:
            out[name] = r.f64()
        elif tag == _STAT_STR:
            out[name] = r.str_()
        else:
            raise DatasetError(
                f"{path}: unknown runtime-stat tag {tag} at offset "
                f"{r.offset}"
            )
    return out


def _write_frozen_csr(w: BinaryWriter, entries) -> None:
    """The frozen-CSR section: compiled distance-field arrays.

    One record per cache entry whose graph holds a freeze valid at its
    *current* structure revision (stale freezes are dropped — they
    describe a topology the restored graph will not have).  Node order
    is the freeze order; ``indptr``/``indices`` are stored as u32 (a
    cached local graph never approaches 2**32 nodes or edges) and
    widened on read.  Per-source distance arrays are not stored: they
    are derived data the restored freeze recomputes on first use.
    """
    frozen: list[tuple[int, object]] = []
    for i, entry in enumerate(entries):
        cached = entry.graph._csr
        if cached is not None and cached[0] == entry.graph.structure_revision:
            frozen.append((i, cached[1]))
    w.u32(len(frozen))
    for i, csr in frozen:
        w.u32(i)
        w.points(csr.points)
        w.u32_array(csr.indptr)
        w.u32_array(csr.indices)
        w.f64_array(csr.weights)


def _read_frozen_csr(r: BinaryReader, entries, path: str) -> None:
    """Decode the frozen-CSR section and install the arrays on the
    restored graphs."""
    for __ in range(r.u32()):
        index = r.u32()
        points = r.points()
        indptr = r.u32_array()
        indices = r.u32_array()
        weights = r.f64_array()
        if index >= len(entries):
            raise DatasetError(
                f"{path}: frozen-CSR record references cache entry "
                f"{index} of {len(entries)} at offset {r.offset}"
            )
        install_frozen(
            entries[index].graph,
            points,
            indptr.astype(np.int64),
            indices.astype(np.int32),
            weights,
        )


def _resolve_ref(ref_path: str, snapshot_path: str) -> str | None:
    """Locate a referenced dataset file: the recorded path as-is
    (absolute, or relative to the loader's cwd), falling back to the
    snapshot file's own directory for relative refs — so a snapshot
    saved next to its datasets keeps working when the pair is loaded
    from anywhere."""
    if os.path.exists(ref_path):
        return ref_path
    if not os.path.isabs(ref_path):
        sibling = os.path.join(
            os.path.dirname(os.path.abspath(snapshot_path)), ref_path
        )
        if os.path.exists(sibling):
            return sibling
    return None


def _write_point_payload(w: BinaryWriter, data: object) -> None:
    w.f64(data.x)  # type: ignore[attr-defined]
    w.f64(data.y)  # type: ignore[attr-defined]


def _read_point_payload(r: BinaryReader) -> Point:
    return Point(r.f64(), r.f64())


def _write_obstacle_payload(w: BinaryWriter, data: object) -> None:
    w.i64(data.oid)  # type: ignore[attr-defined]


def _obstacle_payload_reader(table: Mapping[int, Obstacle], path: str):
    """A leaf-payload decoder resolving oid references through the
    snapshot's global obstacle table."""

    def read(r: BinaryReader) -> Obstacle:
        oid = r.i64()
        obs = table.get(oid)
        if obs is None:
            raise DatasetError(
                f"{path}: tree references unknown obstacle id {oid} at "
                f"offset {r.offset}"
            )
        return obs

    return read


def _collect_obstacles(
    state: dict, *, include_cache: bool
) -> dict[int, Obstacle]:
    """Every distinct obstacle the snapshot will reference: tree
    payloads, plus — when the cache is serialized too — obstacles held
    only by cached graphs (e.g. kept by a stale entry after an
    out-of-band tree edit)."""
    table: dict[int, Obstacle] = {}
    for index in state["obstacle_indexes"].values():
        for tree in index.trees():
            for data, __ in tree.items():
                table.setdefault(data.oid, data)
    context = state["context"]
    if include_cache and context is not None:
        for entry in context.cache.entries():
            for obs in entry.graph.scene_obstacles():
                table.setdefault(obs.oid, obs)
    return table


def save_database(
    db: "ObstacleDatabase",
    path: str | Path,
    *,
    dataset_refs: Mapping[str, str | Path] | None = None,
    include_cache: bool = True,
) -> None:
    """Serialize ``db`` (structure, counters and warm cache) to ``path``.

    ``dataset_refs`` optionally records source dataset files by content
    hash — :func:`load_database` re-hashes and refuses drifted files.
    ``include_cache=False`` drops the graph cache for a smaller, cold
    snapshot.
    """
    state = db._snapshot_state()
    w = BinaryWriter()
    # -- configuration ----------------------------------------------------
    tk = state["tree_kwargs"]
    w.u8(1 if state["bulk"] else 0)
    w.i64(-1 if state["shards"] is None else state["shards"])
    w.u32(state["graph_cache_size"])
    w.f64(state["graph_cache_snap"])
    w.i64(state["next_oid"])
    w.i64(tk.get("page_size") or -1)
    w.f64(tk.get("buffer_fraction") or 0.1)
    w.i64(-1 if tk.get("max_entries") is None else tk["max_entries"])
    w.i64(-1 if tk.get("min_entries") is None else tk["min_entries"])
    # -- dataset refs ------------------------------------------------------
    refs = dict(dataset_refs or {})
    w.u32(len(refs))
    for label in sorted(refs):
        ref_path = str(refs[label])
        w.str_(label)
        w.str_(ref_path)
        w.str_(content_hash(ref_path))
    # -- obstacle table ----------------------------------------------------
    table = _collect_obstacles(state, include_cache=include_cache)
    w.u32(len(table))
    for oid in sorted(table):
        w.i64(oid)
        w.points(table[oid].polygon.vertices)
    # -- obstacle sets -----------------------------------------------------
    indexes = state["obstacle_indexes"]
    w.u32(len(indexes))
    for name, index in indexes.items():
        w.str_(name)
        if isinstance(index, ShardedObstacleIndex):
            w.u8(_KIND_SHARDED)
            grid = index.grid
            w.f64(grid.universe.minx)
            w.f64(grid.universe.miny)
            w.f64(grid.universe.maxx)
            w.f64(grid.universe.maxy)
            w.u32(grid.order)
            w.u64(index.layout_version)
            w.u64(len(index))
            keys = index.shard_keys()
            w.u32(len(keys))
            for key in keys:
                shard = index.shard(key)
                w.u64(key)
                w.u64(shard.mutation_count)
                pageio.write_tree(w, shard.tree, _write_obstacle_payload)
        else:
            w.u8(_KIND_MONO)
            w.u64(index.mutation_count)
            pageio.write_tree(w, index.tree, _write_obstacle_payload)
    # -- entity trees ------------------------------------------------------
    entity_trees = state["entity_trees"]
    w.u32(len(entity_trees))
    for name, tree in entity_trees.items():
        w.str_(name)
        pageio.write_tree(w, tree, _write_point_payload)
    # -- graph cache -------------------------------------------------------
    context = state["context"]
    entries = (
        context.cache.entries() if include_cache and context is not None else []
    )
    w.u32(len(entries))
    for entry in entries:
        write_cache_entry(w, entry)
    # -- runtime stats ------------------------------------------------------
    _write_runtime_stats(w, context.stats if context is not None else None)
    # -- frozen CSR arrays --------------------------------------------------
    _write_frozen_csr(w, entries)
    # -- journal-sequence stamp ---------------------------------------------
    # The highest mutation sequence folded into this snapshot (0 for a
    # non-durable database).  Recovery replays only journal records
    # with a higher sequence, so a crash between this write and the
    # journal truncation that follows a compaction never double-applies.
    journal = getattr(db, "_journal", None)
    w.u64(journal.last_seq if journal is not None else 0)
    write_snapshot(path, w.getvalue())


def load_database(
    path: str | Path,
    *,
    backend: "str | VisibilityBackend | None" = None,
    cache_policy: "str | None" = None,
    durable: "str | os.PathLike[str] | None" = None,
) -> "ObstacleDatabase":
    """Restore a database saved by :func:`save_database`.

    The snapshot is decoded and verified in full *before* any database
    is assembled — a corrupt or drifted file raises
    :class:`~repro.errors.DatasetError` (naming the path and offset)
    and leaves no partial state behind.  ``backend`` picks the
    visibility backend of the restored runtime (``None``: the default,
    exactly as the :class:`~repro.core.engine.ObstacleDatabase`
    constructor does); restored cached graphs are reassembled without
    sweeps either way.  ``cache_policy`` likewise selects the restored
    runtime's cache policy (``None``: static) — policy is runtime
    configuration, not snapshot state.

    ``durable`` names the write-ahead mutation journal file to recover
    (``None``: not durable): its longest durable record prefix is
    replayed over the restored state through the same index operations
    the crashed process used, then the journal stays attached and
    anchored to ``path`` — the recovered database answers bit-identically
    to one that never crashed, and keeps journaling.
    """
    from repro.core.engine import ObstacleDatabase

    name = str(path)
    r = BinaryReader(read_snapshot(path), path=path)
    # -- configuration ----------------------------------------------------
    bulk = r.u8() == 1
    shards = r.i64()
    shards = None if shards < 0 else shards
    graph_cache_size = r.u32()
    graph_cache_snap = r.f64()
    next_oid = r.i64()
    page_size = r.i64()
    buffer_fraction = r.f64()
    max_entries = r.i64()
    min_entries = r.i64()
    tree_kwargs = dict(
        page_size=4096 if page_size < 0 else page_size,
        buffer_fraction=buffer_fraction,
        max_entries=None if max_entries < 0 else max_entries,
        min_entries=None if min_entries < 0 else min_entries,
    )
    # -- dataset refs ------------------------------------------------------
    for __ in range(r.u32()):
        label = r.str_()
        ref_path = r.str_()
        expected = r.str_()
        resolved = _resolve_ref(ref_path, name)
        if resolved is None:
            raise DatasetError(
                f"{name}: referenced dataset {label!r} is missing at "
                f"{ref_path}"
            )
        actual = content_hash(resolved)
        if actual != expected:
            raise DatasetError(
                f"{name}: referenced dataset {label!r} at {resolved} "
                f"changed since the snapshot was taken (content hash "
                f"{actual[:12]}... != recorded {expected[:12]}...)"
            )
    # -- obstacle table ----------------------------------------------------
    table: dict[int, Obstacle] = {}
    for __ in range(r.u32()):
        oid = r.i64()
        table[oid] = Obstacle(oid, Polygon(r.points()))
    read_obstacle = _obstacle_payload_reader(table, name)
    # -- obstacle sets -----------------------------------------------------
    obstacle_indexes: dict[int | str, object] = {}
    for __ in range(r.u32()):
        set_name = r.str_()
        kind = r.u8()
        if kind == _KIND_SHARDED:
            universe = Rect(r.f64(), r.f64(), r.f64(), r.f64())
            order = r.u32()
            layout_version = r.u64()
            count = r.u64()
            restored_shards: dict[int, ObstacleIndex] = {}
            for __s in range(r.u32()):
                key = r.u64()
                mutations = r.u64()
                tree = pageio.read_tree(r, read_obstacle)
                restored_shards[key] = ObstacleIndex(
                    tree, mutations=mutations
                )
            obstacle_indexes[set_name] = ShardedObstacleIndex.restore(
                ShardGrid(universe, order),
                name=f"obstacles:{set_name}",
                shards=restored_shards,
                layout_version=layout_version,
                count=count,
                **tree_kwargs,
            )
        elif kind == _KIND_MONO:
            mutations = r.u64()
            tree = pageio.read_tree(r, read_obstacle)
            obstacle_indexes[set_name] = ObstacleIndex(
                tree, mutations=mutations
            )
        else:
            raise DatasetError(
                f"{name}: unknown obstacle-set kind {kind} at offset "
                f"{r.offset}"
            )
    if not obstacle_indexes:
        raise DatasetError(f"{name}: snapshot contains no obstacle sets")
    # -- entity trees ------------------------------------------------------
    entity_trees = {}
    for __ in range(r.u32()):
        entity_name = r.str_()
        entity_trees[entity_name] = pageio.read_tree(r, _read_point_payload)
    # -- graph cache -------------------------------------------------------
    n_entries = r.u32()
    db = ObstacleDatabase._restore(
        tree_kwargs=tree_kwargs,
        bulk=bulk,
        shards=shards,
        graph_cache_size=graph_cache_size,
        graph_cache_snap=graph_cache_snap,
        next_oid=next_oid,
        obstacle_indexes=obstacle_indexes,  # type: ignore[arg-type]
        entity_trees=entity_trees,
        backend=backend,
        cache_policy=cache_policy,
    )
    context = db.context
    restored_entries = []
    for __ in range(n_entries):
        entry = read_cache_entry(
            r, table, context.source, backend=context.backend
        )
        context.admit_restored(entry)
        restored_entries.append(entry)
    # -- runtime stats ------------------------------------------------------
    stats = context.stats
    for stat_name, value in _read_runtime_stats(r, name).items():
        # ``backend`` is configuration, not work: the restored context
        # has already selected its own (possibly different) backend.
        # Unknown names are counters from another build of this
        # library — ignored.
        if stat_name == "backend" or stat_name not in stats.__slots__:
            continue
        setattr(stats, stat_name, value)
    # -- frozen CSR arrays --------------------------------------------------
    _read_frozen_csr(r, restored_entries, name)
    # -- journal-sequence stamp ---------------------------------------------
    base_seq = r.u64()
    r.expect_end()
    # -- journal recovery --------------------------------------------------
    # Replay happens only now, over a fully verified snapshot: the
    # journal is scanned and decoded in full first (torn tail
    # truncated, corruption raising before anything is applied), then
    # each record with a sequence above the base's folded-sequence
    # stamp goes through the same index operations the crashed process
    # used, and the journal stays attached for further writes.
    # Records at or below the stamp are already in the base — the
    # crash interrupted a compaction after the base rewrite but before
    # the journal truncation — so the truncation is completed instead.
    if durable is not None:
        journal, entries = MutationJournal.recover(durable)
        fresh = [record for seq, record in entries if seq > base_seq]
        if entries and not fresh:
            journal.reset()
        for record in fresh:
            apply_record(db, record)
        journal.ensure_seq_floor(base_seq)
        db._attach_journal(journal, base_path=name)
    return db


def snapshot_info(path: str | Path) -> dict[str, object]:
    """A cheap structural summary of a snapshot (no database assembly).

    Returns format version, configuration, per-set obstacle/page
    counts and page-access counters, entity sets, cached-graph
    summaries (centre, coverage radius, node/edge counts), runtime
    counters and dataset refs — what the
    ``repro-snapshot info`` command prints.
    """
    name = str(path)
    r = BinaryReader(read_snapshot(path), path=path)
    bulk = r.u8() == 1
    shards = r.i64()
    graph_cache_size = r.u32()
    graph_cache_snap = r.f64()
    next_oid = r.i64()
    r.i64()  # page_size
    r.f64()  # buffer_fraction
    r.i64()  # max_entries
    r.i64()  # min_entries
    refs = []
    for __ in range(r.u32()):
        refs.append(
            {"label": r.str_(), "path": r.str_(), "sha256": r.str_()}
        )
    n_obstacles = r.u32()
    for __ in range(n_obstacles):
        r.i64()
        r.points()
    sets = []
    for __ in range(r.u32()):
        set_name = r.str_()
        kind = r.u8()
        if kind == _KIND_SHARDED:
            for __f in range(4):
                r.f64()
            order = r.u32()
            r.u64()  # layout version
            count = r.u64()
            pages = reads = misses = writes = 0
            n_shards = r.u32()
            for __s in range(n_shards):
                r.u64()
                r.u64()
                meta = pageio.read_tree_meta(r, _skip_oid_payload)
                pages += meta["pages"]
                reads += meta["reads"]
                misses += meta["misses"]
                writes += meta["writes"]
            sets.append(
                {
                    "name": set_name,
                    "kind": "sharded",
                    "obstacles": count,
                    "shards": n_shards,
                    "grid_order": order,
                    "pages": pages,
                    "reads": reads,
                    "misses": misses,
                    "writes": writes,
                }
            )
        elif kind == _KIND_MONO:
            r.u64()  # mutations
            meta = pageio.read_tree_meta(r, _skip_oid_payload)
            sets.append(
                {
                    "name": set_name,
                    "kind": "monolithic",
                    "obstacles": meta["size"],
                    "pages": meta["pages"],
                    "reads": meta["reads"],
                    "misses": meta["misses"],
                    "writes": meta["writes"],
                }
            )
        else:
            raise DatasetError(
                f"{name}: unknown obstacle-set kind {kind} at offset "
                f"{r.offset}"
            )
    entities = []
    for __ in range(r.u32()):
        entity_name = r.str_()
        meta = pageio.read_tree_meta(r, _read_point_payload)
        entities.append(
            {
                "name": entity_name,
                "points": meta["size"],
                "pages": meta["pages"],
                "reads": meta["reads"],
                "misses": meta["misses"],
                "writes": meta["writes"],
            }
        )
    cached_graphs = r.u32()
    cache_entries = [_skim_cache_entry(r) for __ in range(cached_graphs)]
    runtime_stats = _read_runtime_stats(r, name)
    frozen_fields = r.u32()
    for __ in range(frozen_fields):
        index = r.u32()
        nodes = len(r.points())
        r.u32_array()  # indptr
        indices = r.u32_array()
        r.f64_array()  # weights
        if index < len(cache_entries):
            cache_entries[index]["frozen_nodes"] = nodes
            cache_entries[index]["frozen_edges"] = len(indices) // 2
    journal_seq = r.u64()
    return {
        "path": name,
        "format_version": FORMAT_VERSION,
        "bulk": bulk,
        "shards": None if shards < 0 else shards,
        "graph_cache_size": graph_cache_size,
        "graph_cache_snap": graph_cache_snap,
        "next_oid": next_oid,
        "distinct_obstacles": n_obstacles,
        "obstacle_sets": sets,
        "entity_sets": entities,
        "cached_graphs": cached_graphs,
        "cache_entries": cache_entries,
        "frozen_fields": frozen_fields,
        "journal_seq": journal_seq,
        "runtime_stats": runtime_stats,
        "dataset_refs": refs,
    }


def _skim_cache_entry(r: BinaryReader) -> dict[str, object]:
    """Decode one cache-entry record for its summary only (no graph
    reassembly, no obstacle-table resolution)."""
    from repro.persist.graphio import _STAMP_INT, _STAMP_SHARD

    center = Point(r.f64(), r.f64())
    covered = r.f64()
    stamp_kind = r.u8()
    if stamp_kind == _STAMP_INT:
        r.i64()
    elif stamp_kind == _STAMP_SHARD:
        r.f64()  # stamp centre x
        r.f64()  # stamp centre y
        r.f64()  # stamp radius
        r.u64()  # layout version
        for __ in range(r.u32()):
            r.u64()
            r.u64()
    else:
        raise DatasetError(
            f"unknown version-stamp kind {stamp_kind} at offset {r.offset}"
        )
    obstacles = r.u32()
    for __ in range(obstacles):
        r.i64()
    nodes = len(r.points())
    for __ in range(r.u32()):  # free-point indexes
        r.u32()
    edges = r.u32()
    for __ in range(edges):
        r.u32()
        r.u32()
    return {
        "center": (center.x, center.y),
        "covered": covered,
        "obstacles": obstacles,
        "nodes": nodes,
        "edges": edges,
        "stamp": "sharded" if stamp_kind == _STAMP_SHARD else "integer",
    }


def _skip_oid_payload(r: BinaryReader) -> int:
    """Obstacle-reference payload skipper for summary decoding."""
    return r.i64()
