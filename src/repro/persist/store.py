"""The snapshot store: a whole :class:`ObstacleDatabase` on disk.

One snapshot file captures everything the paper's cost model can
observe about a database plus everything its runtime has learned.  Its
payload is nine sections in this order — written by
:func:`save_database`, read by :func:`_parse` and by nothing else:

1. **configuration** — :data:`_CONFIG_FIELDS`: tree layout, cache
   sizing, spatial-key quantum, sharding, the obstacle-id sequence;
2. **dataset refs** — label, path and **content hash**
   (:func:`repro.datasets.io.content_hash`) of the source dataset
   files the snapshot pins (``dataset_refs``) — loads re-hash the
   files and fail on drift, never trusting mtimes;
3. **obstacle table** — every distinct obstacle, stored once by id;
   trees, shards and cached graphs all reference into it, so a restored
   database shares one :class:`~repro.model.Obstacle` instance per id
   exactly as the live one does;
4. **obstacle sets** — each as its R*-tree page image
   (:mod:`repro.index.pageio`, leaf payloads being obstacle ids) for
   monolithic storage, or the grid geometry plus every per-shard tree
   (with per-shard mutation counters, layout version and Hilbert keys)
   for sharded storage;
5. **entity trees** — page images with point payloads;
6. **graph cache** — every cached visibility graph with its coverage
   radius and version stamp (:mod:`repro.persist.graphio`), in LRU
   order;
7. **runtime stats** — the warm counters of the metrics registry as a
   tagged name/value list: name-keyed (not positional), so counters
   added to :class:`~repro.runtime.stats.RuntimeStats` later neither
   shift the layout nor invalidate files already written;
8. **frozen CSR arrays** — the compiled distance-field arrays of each
   cache entry whose graph holds a freeze valid at its *current*
   structure revision (a stale freeze describes a topology the restored
   graph will not have).  Node order is the freeze order;
   ``indptr``/``indices`` are stored as u32 (a cached local graph never
   approaches 2**32 nodes or edges) and widened on load.  Per-source
   distance arrays are derived data, recomputed on first use;
9. **journal-sequence stamp** — the highest mutation sequence folded
   into this snapshot (``0`` for a non-durable database).  Recovery
   replays only journal records with a higher sequence, so a crash
   between this write and the journal truncation that follows a
   compaction never double-applies.

Because page ids, buffer residency and access counters round-trip, a
restored database is *observationally identical*: the same queries
produce bit-identical answers and identical simulated page-miss
counts.  Because the graph cache rides along, it is also *warm*: a
query whose centre was covered before the save builds zero new
visibility graphs after the load.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

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
from repro.persist import graphio
from repro.persist.journal import MutationJournal, apply_record
from repro.runtime.sharding import ShardGrid
from repro.visibility.csr import install_frozen

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import ObstacleDatabase
    from repro.visibility.kernel.backend import VisibilityBackend

_AS_IS = object()
#: Section 1, field by field: name, codec primitive, and what a stored
#: negative stands for.  ``None`` is written as ``-1``; ``_AS_IS``
#: marks the fields that are never ``None``.  The last four are the
#: R*-tree constructor arguments.
_CONFIG_FIELDS = (
    ("bulk", "u8", _AS_IS),
    ("shards", "i64", None),
    ("graph_cache_size", "u32", _AS_IS),
    ("graph_cache_snap", "f64", _AS_IS),
    ("next_oid", "i64", _AS_IS),
    ("page_size", "i64", 4096),
    ("buffer_fraction", "f64", _AS_IS),
    ("max_entries", "i64", None),
    ("min_entries", "i64", None),
)
_TREE_KWARGS = tuple(name for name, __, __n in _CONFIG_FIELDS[5:])

_KIND_MONO = 0
_KIND_SHARDED = 1

#: Runtime-stat value tags (section 7): the tag is the position, the
#: entry the value's type and codec primitive.  Anything that is not
#: an int or a float is written as its ``str``.
_STAT_CODECS = ((int, "i64"), (float, "f64"), (str, "str_"))


def _write_point(w: BinaryWriter, data: Any) -> None:
    w.f64(data.x)
    w.f64(data.y)


def _read_point(r: BinaryReader) -> Point:
    return Point(r.f64(), r.f64())


def _write_oid(w: BinaryWriter, data: Any) -> None:
    w.i64(data.oid)


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
    entries = db.context.cache.entries() if include_cache else []
    w = BinaryWriter()
    # -- 1 configuration ---------------------------------------------------
    values = {**state, **state["tree_kwargs"]}
    for name, codec, __ in _CONFIG_FIELDS:
        getattr(w, codec)(-1 if values[name] is None else values[name])
    # -- 2 dataset refs ----------------------------------------------------
    refs = dict(dataset_refs or {})
    w.u32(len(refs))
    for label in sorted(refs):
        ref_path = str(refs[label])
        w.str_(label)
        w.str_(ref_path)
        w.str_(content_hash(ref_path))
    # -- 3 obstacle table: the trees' payloads, plus obstacles held only by
    # the cached graphs written below (e.g. kept by a stale entry after an
    # out-of-band tree edit)
    table: dict[int, Obstacle] = {}
    for __, tree in db._trees(entities=False):
        for data, __r in tree.items():
            table.setdefault(data.oid, data)
    for entry in entries:
        for obs in entry.graph.scene_obstacles():
            table.setdefault(obs.oid, obs)
    w.u32(len(table))
    for oid in sorted(table):
        w.i64(oid)
        w.points(table[oid].polygon.vertices)
    # -- 4 obstacle sets ---------------------------------------------------
    indexes = state["obstacle_indexes"]
    w.u32(len(indexes))
    for name, index in indexes.items():
        w.str_(name)
        if isinstance(index, ShardedObstacleIndex):
            w.u8(_KIND_SHARDED)
            universe = index.grid.universe
            for bound in (universe.minx, universe.miny, universe.maxx, universe.maxy):
                w.f64(bound)
            w.u32(index.grid.order)
            w.u64(index.layout_version)
            w.u64(len(index))
            shards = [(key, index.shard(key)) for key in index.shard_keys()]
            w.u32(len(shards))
        else:
            w.u8(_KIND_MONO)
            shards = [(None, index)]
        for key, shard in shards:
            if key is not None:
                w.u64(key)
            w.u64(shard.mutation_count)
            pageio.write_tree(w, shard.tree, _write_oid)
    # -- 5 entity trees ----------------------------------------------------
    w.u32(len(state["entity_trees"]))
    for name, tree in state["entity_trees"].items():
        w.str_(name)
        pageio.write_tree(w, tree, _write_point)
    # -- 6 graph cache -----------------------------------------------------
    w.u32(len(entries))
    for entry in entries:
        graphio.write_cache_entry(w, entry)
    # -- 7 runtime stats ---------------------------------------------------
    stats = db.context.stats.snapshot()
    w.u32(len(stats))
    for name in sorted(stats):
        value = stats[name]
        tag = 0 if isinstance(value, int) else 1 if isinstance(value, float) else 2
        w.str_(name)
        w.u8(tag)
        getattr(w, _STAT_CODECS[tag][1])(_STAT_CODECS[tag][0](value))
    # -- 8 frozen CSR arrays -----------------------------------------------
    frozen = [
        (i, entry.graph._csr[1])
        for i, entry in enumerate(entries)
        if entry.graph._csr is not None
        and entry.graph._csr[0] == entry.graph.structure_revision
    ]
    w.u32(len(frozen))
    for i, csr in frozen:
        w.u32(i)
        w.points(csr.points)
        w.u32_array(csr.indptr)
        w.u32_array(csr.indices)
        w.f64_array(csr.weights)
    # -- 9 journal-sequence stamp ------------------------------------------
    w.u64(db.journal.last_seq if db.journal is not None else 0)
    write_snapshot(path, w.getvalue())


def _parse(path: str | Path) -> Iterator[Any]:
    """Read, verify and decode a snapshot: yields its nine sections in
    file order as plain parts — the only reader of the payload, behind
    :func:`load_database` (which unpacks all nine before it builds
    anything) and :func:`snapshot_info` (which summarises each and lets
    it go, so it never holds more than one section).

    Nothing is built (no obstacle, tree or graph): the obstacle table
    is ``oid -> x0 y0 x1 y1 ...``, a tree is :func:`repro.index.pageio.
    parse_tree` parts whose leaf payloads are still obstacle ids (or
    points), a cache entry is :func:`repro.persist.graphio.
    parse_cache_entry` parts.  Every structural defect — a short or
    over-long payload, an unknown kind or tag, an id or index that
    points nowhere — raises :class:`~repro.errors.DatasetError` with
    path and offset; the last section is yielded only once the payload
    is known to end there.
    """
    r = BinaryReader(read_snapshot(path), path=path)
    # -- 1 configuration ---------------------------------------------------
    config: dict[str, Any] = {}
    for name, codec, negative in _CONFIG_FIELDS:
        value = getattr(r, codec)()
        config[name] = negative if negative is not _AS_IS and value < 0 else value
    config["bulk"] = config["bulk"] == 1
    yield config
    # -- 2 dataset refs ----------------------------------------------------
    yield [
        {"label": r.str_(), "path": r.str_(), "sha256": r.str_()}
        for __ in range(r.u32())
    ]
    # -- 3 obstacle table (the parser itself keeps only the ids) -----------
    obstacles = {r.i64(): r.coords() for __ in range(r.u32())}
    known = frozenset(obstacles)
    yield obstacles
    del obstacles

    def read_oid(r: BinaryReader) -> int:
        oid = r.i64()
        if oid not in known:
            raise r.error(f"tree references unknown obstacle id {oid}")
        return oid

    # -- 4 obstacle sets: each with its shards as (key, mutation count,
    # tree parts), a monolithic set holding one under key None
    sets = []
    for __ in range(r.u32()):
        entry: dict[str, Any] = {"name": r.str_(), "kind": r.u8()}
        if entry["kind"] == _KIND_SHARDED:
            entry["universe"] = (r.f64(), r.f64(), r.f64(), r.f64())
            entry["order"] = r.u32()
            entry["layout_version"] = r.u64()
            entry["count"] = r.u64()
            keyed = [True] * r.u32()
        elif entry["kind"] == _KIND_MONO:
            keyed = [False]
        else:
            raise r.error(f"unknown obstacle-set kind {entry['kind']}")
        entry["shards"] = [
            (r.u64() if key else None, r.u64(), pageio.parse_tree(r, read_oid))
            for key in keyed
        ]
        sets.append(entry)
    if not sets:
        raise r.error("snapshot contains no obstacle sets")
    sharded = len(sets) == 1 and sets[0]["kind"] == _KIND_SHARDED
    yield sets
    del sets, entry
    # -- 5 entity trees ----------------------------------------------------
    yield {r.str_(): pageio.parse_tree(r, _read_point) for __ in range(r.u32())}
    # -- 6 graph cache -----------------------------------------------------
    cache = [graphio.parse_cache_entry(r, known, sharded) for __ in range(r.u32())]
    yield cache
    # -- 7 runtime stats ---------------------------------------------------
    stats: dict[str, object] = {}
    for __ in range(r.u32()):
        name = r.str_()
        tag = r.u8()
        if tag >= len(_STAT_CODECS):
            raise r.error(f"unknown runtime-stat tag {tag}")
        stats[name] = getattr(r, _STAT_CODECS[tag][1])()
    yield stats
    # -- 8 frozen CSR arrays: (cache entry index, points, indptr, indices,
    # weights) per record, the arrays as stored
    frozen = []
    for __ in range(r.u32()):
        index = r.u32()
        if index >= len(cache):
            raise r.error(
                f"frozen-CSR record references cache entry {index} of {len(cache)}"
            )
        frozen.append((index, r.points(), r.u32_array(), r.u32_array(), r.f64_array()))
    yield frozen
    # -- 9 journal-sequence stamp ------------------------------------------
    journal_seq = r.u64()
    r.expect_end()
    yield journal_seq


def _verify_refs(refs: list[dict[str, str]], name: str) -> None:
    """Re-hash every referenced dataset file; refuse a missing or
    drifted one.  A file is looked up at the recorded path as-is
    (absolute, or relative to the loader's cwd), then — for a relative
    ref — in the snapshot file's own directory, so a snapshot saved next
    to its datasets keeps working when the pair is loaded from anywhere."""
    beside = os.path.dirname(os.path.abspath(name))
    for ref in refs:
        # join() returns an absolute second argument unchanged
        places = (ref["path"], os.path.join(beside, ref["path"]))
        resolved = next((p for p in places if os.path.exists(p)), None)
        if resolved is None:
            raise DatasetError(
                f"{name}: referenced dataset {ref['label']!r} is missing at "
                f"{ref['path']}"
            )
        actual = content_hash(resolved)
        if actual != ref["sha256"]:
            raise DatasetError(
                f"{name}: referenced dataset {ref['label']!r} at {resolved} "
                f"changed since the snapshot was taken (content hash "
                f"{actual[:12]}... != recorded {ref['sha256'][:12]}...)"
            )


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
    config, refs, obstacles, sets, entities, cache, stats, frozen, base_seq = _parse(
        path
    )
    _verify_refs(refs, name)
    # One Obstacle per id: trees, shards and cached graphs all share it.
    table = {
        oid: Obstacle(oid, Polygon(map(Point, flat[::2], flat[1::2])))
        for oid, flat in obstacles.items()
    }
    del obstacles
    tree_kwargs = {key: config.pop(key) for key in _TREE_KWARGS}
    obstacle_indexes: dict[str, object] = {}
    for entry in sets:
        shards = {}
        for key, mutations, tree in entry["shards"]:
            for node in tree["nodes"]:
                for slot in node.entries:
                    if slot.child is None:
                        slot.data = table[slot.data]
            shards[key] = ObstacleIndex(pageio.build_tree(tree), mutations=mutations)
        if entry["kind"] == _KIND_SHARDED:
            obstacle_indexes[entry["name"]] = ShardedObstacleIndex.restore(
                ShardGrid(Rect(*entry["universe"]), entry["order"]),
                name=f"obstacles:{entry['name']}",
                shards=shards,
                layout_version=entry["layout_version"],
                count=entry["count"],
                **tree_kwargs,
            )
        else:
            obstacle_indexes[entry["name"]] = shards[None]
    db = ObstacleDatabase._restore(
        tree_kwargs=tree_kwargs,
        **config,
        obstacle_indexes=obstacle_indexes,  # type: ignore[arg-type]
        entity_trees={
            entity_name: pageio.build_tree(tree)
            for entity_name, tree in entities.items()
        },
        backend=backend,
        cache_policy=cache_policy,
    )
    context = db.context
    restored = [
        graphio.build_cache_entry(entry, table, context.source, backend=context.backend)
        for entry in cache
    ]
    for cached in restored:
        context.admit_restored(cached)
    for index, points, indptr, indices, weights in frozen:
        install_frozen(restored[index].graph, points, indptr, indices, weights)
    for stat_name, value in stats.items():
        # ``backend`` is configuration, not work: the restored context
        # has already selected its own (possibly different) backend.
        # Unknown names are counters from another build of this
        # library — ignored.
        if stat_name != "backend" and stat_name in context.stats.__slots__:
            setattr(context.stats, stat_name, value)
    # -- journal recovery: only now, over a fully verified snapshot.  The
    # journal is scanned and decoded in full first (torn tail truncated,
    # corruption raising before anything is applied), then each record
    # above the base's sequence stamp (section 9) goes through the same
    # index operations the crashed process used.  When every record is
    # at or below it, the crash interrupted a compaction after the base
    # rewrite, and the journal truncation is completed instead.
    if durable is not None:
        journal, entries = MutationJournal.recover(durable)
        fresh = [record for seq, record in entries if seq > base_seq]
        if entries and not fresh:
            journal.reset()
        for record in fresh:
            apply_record(db, record)
        journal.ensure_seq_floor(base_seq)
        journal.base_path = name
        db._attach_journal(journal)
    return db


def _page_summary(trees: list[dict]) -> dict[str, int]:
    """Page count and persisted page-access counters over tree parts."""
    return {
        "pages": sum(len(tree["nodes"]) for tree in trees),
        "reads": sum(tree["reads"] for tree in trees),
        "misses": sum(tree["misses"] for tree in trees),
        "writes": sum(tree["writes"] for tree in trees),
    }


def snapshot_info(path: str | Path) -> dict[str, object]:
    """A cheap structural summary of a snapshot (no database assembly).

    Returns format version, configuration, per-set obstacle/page
    counts and page-access counters, entity sets, cached-graph
    summaries (centre, coverage radius, node/edge counts), runtime
    counters and dataset refs — what the
    ``repro-snapshot info`` command prints.  It summarises the sections
    :func:`load_database` assembles, one at a time, so it refuses every
    file that one cannot decode (dataset refs are listed, not re-hashed).
    """
    sections = _parse(path)
    config, refs = next(sections), next(sections)
    distinct_obstacles = len(next(sections))
    set_rows = []
    for entry in next(sections):
        trees = [tree for __, __m, tree in entry["shards"]]
        row = {"name": entry["name"], "kind": "monolithic"}
        if entry["kind"] == _KIND_SHARDED:
            row.update(
                kind="sharded",
                obstacles=entry["count"],
                shards=len(trees),
                grid_order=entry["order"],
            )
        else:
            row["obstacles"] = trees[0]["size"]
        set_rows.append({**row, **_page_summary(trees)})
    del entry, trees
    entity_rows = [
        {"name": name, "points": tree["size"], **_page_summary([tree])}
        for name, tree in next(sections).items()
    ]
    cache_entries: list[dict[str, object]] = [
        {
            "center": (entry["center"].x, entry["center"].y),
            "covered": entry["covered"],
            "obstacles": len(entry["oids"]),
            "nodes": len(entry["nodes"]),
            "edges": len(entry["edges"]),
            "stamp": "integer" if isinstance(entry["stamp"], int) else "sharded",
        }
        for entry in next(sections)
    ]
    stats, frozen, journal_seq = sections
    for index, points, __, indices, __w in frozen:
        cache_entries[index]["frozen_nodes"] = len(points)
        cache_entries[index]["frozen_edges"] = len(indices) // 2
    return {
        "path": str(path),
        "format_version": FORMAT_VERSION,
        "bulk": config["bulk"],
        "shards": config["shards"],
        "graph_cache_size": config["graph_cache_size"],
        "graph_cache_snap": config["graph_cache_snap"],
        "next_oid": config["next_oid"],
        "distinct_obstacles": distinct_obstacles,
        "obstacle_sets": set_rows,
        "entity_sets": entity_rows,
        "cached_graphs": len(cache_entries),
        "cache_entries": cache_entries,
        "frozen_fields": len(frozen),
        "journal_seq": journal_seq,
        "runtime_stats": stats,
        "dataset_refs": refs,
    }
