"""The traced pass: benchmark-owned spans around each layer's functions.

Layers are measured from outside.  :func:`install` replaces the public
functions listed in :data:`WRAP_POINTS` (class attributes; module
attributes where a function is imported by name) with wrappers that
record ``(name, start, end, parent, op id)`` spans in memory;
:func:`uninstall` puts the originals back.  A layer's *self* time is
its spans' duration minus the part their child spans cover, so the
parts sum to the whole.

Two kinds of wrapper keep the tracer from drowning the run:

* a **span** pushes onto the thread's stack and is stored;
* a **leaf** (page reads, cache probes, journal appends — calls that
  reach no other wrapped function, made up to 10^6 times a run) is
  timed the same way but only summed per name into its parent span.

Work done inside pool workers is recovered through the program's own
cross-process plumbing: the wrapper around ``repro.serve.pool._evaluate``
(inherited by the forked workers) resets the worker's recorder, runs
the chunk, and hangs the per-layer totals on the ``pool.worker`` span
the program already ships back and grafts into the parent's tree.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter

import repro.core.distance
import repro.runtime.context
import repro.serve.pool
from repro import (
    CompositeObstacleIndex,
    ObstacleDatabase,
    ObstacleIndex,
    PersistentWorkerPool,
    RStarTree,
    VisibilityGraph,
    VisibilityGraphCache,
    QueryContext,
)
from repro.core.distance import SourceDistanceField
from repro.core.source import ShardedObstacleIndex
from repro.obs import TRACER
from repro.persist.journal import MutationJournal
from repro.runtime.policy import AdaptiveCachePolicy
from repro.visibility.csr import CSRGraph

#: Span name of each op kind's entry point on the database.
OP_METHODS = {
    "range": "op.range",
    "nearest": "op.nearest",
    "obstructed_distance": "op.distance",
    "distance_join": "op.distance_join",
    "closest_pairs": "op.closest_pairs",
    "insert_obstacle": "op.insert_obstacle",
    "delete_obstacle": "op.delete_obstacle",
    "batch_nearest": "op.batch_nearest",
    "batch_range": "op.batch_range",
    "batch_distance": "op.batch_distance",
    "compact": "persist.compact",
    "save": "persist.save",
}

#: (owner, attribute, span name, leaf?) — everything the traced pass wraps.
WRAP_POINTS = (
    [(ObstacleDatabase, attr, name, False) for attr, name in OP_METHODS.items()]
    + [
        (RStarTree, "read_node", "index.read_node", True),
        (RStarTree, "insert", "index.mutate", False),
        (RStarTree, "delete", "index.mutate", False),
        (ObstacleIndex, "obstacles_in_range", "core.retrieve", False),
        (CompositeObstacleIndex, "obstacles_in_range", "core.retrieve", False),
        (ShardedObstacleIndex, "obstacles_in_range", "core.retrieve", False),
        (VisibilityGraph, "build", "visibility.build", False),
        (VisibilityGraph, "rebuild", "visibility.build", False),
        (VisibilityGraph, "add_obstacle", "visibility.incremental", False),
        (VisibilityGraph, "remove_obstacle", "visibility.incremental", False),
        (VisibilityGraph, "add_entity", "visibility.incremental", False),
        (VisibilityGraph, "delete_entity", "visibility.incremental", False),
        (CSRGraph, "freeze", "visibility.freeze", False),
        (CSRGraph, "dijkstra", "visibility.dijkstra", False),
        (repro.runtime.context, "shortest_path_dist", "visibility.dijkstra", False),
        (repro.core.distance, "shortest_path_dist", "visibility.dijkstra", False),
        (VisibilityGraphCache, "get", "runtime.cache", True),
        (VisibilityGraphCache, "put", "runtime.cache", True),
        (VisibilityGraphCache, "entries_for_shards", "runtime.cache", True),
        (QueryContext, "entry_for", "runtime.context", False),
        (QueryContext, "cover", "runtime.context", False),
        (QueryContext, "distance", "runtime.context", False),
        (QueryContext, "field_for", "runtime.context", False),
        (AdaptiveCachePolicy, "observe", "runtime.policy", True),
        (SourceDistanceField, "distance_to", "runtime.field", False),
        (SourceDistanceField, "batch_eval", "runtime.field", False),
        (MutationJournal, "append", "persist.journal", True),
        (PersistentWorkerPool, "run_batch", "serve.dispatch", False),
    ]
)

#: Span record fields.
NAME, START, END, PARENT, OP, CHILD, LEAVES, ATTRS = range(8)


class Recorder:
    """In-memory spans of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        #: Set by the benchmark's op loop; stamped on every span.
        self.op_id = -1
        #: Tallies made beside the spans (outside their timing).
        self.counts: dict[str, float] = {}
        #: ``serve.batch`` root spans from the program's tracer.
        self.serve_roots: list[dict] = []
        #: ``(method, args)`` of every database batch call, for the probe.
        self.batches: list[tuple] = []
        #: Leaf totals recorded with no span open (set-up code).
        self.orphans: dict[str, list[float]] = {}
        self.active = False

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay in place)."""
        self.spans = []
        self._local = threading.local()
        self.counts = {}
        self.orphans = {}

    def tally(self, key: str, n: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + n

    # ------------------------------------------------------------ totals
    def layer_totals(self) -> dict[str, list[float]]:
        """``name -> [calls, self seconds, inclusive seconds]`` over
        every span and leaf."""
        totals: dict[str, list[float]] = {}
        for span in self.spans:
            entry = totals.setdefault(span[NAME], [0.0, 0.0, 0.0])
            duration = span[END] - span[START]
            entry[0] += 1
            entry[1] += duration - span[CHILD]
            entry[2] += duration
            merge_totals(totals, span[LEAVES])
        merge_totals(totals, self.orphans)
        return totals

    def dump(self, path, meta: dict) -> None:
        """Write the spans as ``[id, name, start, end, parent, op,
        leaves, attrs]`` rows."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [
                i,
                span[NAME],
                span[START],
                span[END],
                ids.get(id(span[PARENT]), -1),
                span[OP],
                span[LEAVES],
                span[ATTRS],
            ]
            for i, span in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": [
                        "id", "name", "start", "end", "parent", "op",
                        "leaves", "attrs",
                    ],
                    "spans": rows,
                    "serve_roots": self.serve_roots,
                },
                fh,
            )


def merge_totals(into: dict[str, list[float]], more: dict) -> None:
    """Add ``name -> [calls, self(, inclusive)]`` totals onto ``into``
    (a leaf's inclusive time is its self time)."""
    for name, values in more.items():
        entry = into.setdefault(name, [0.0, 0.0, 0.0])
        entry[0] += values[0]
        entry[1] += values[1]
        entry[2] += values[2] if len(values) > 2 else values[1]


RECORDER = Recorder()

_originals: list[tuple[object, str, object]] = []


def _span_wrapper(fn, name: str, post=None):
    rec = RECORDER

    def wrapper(*args, **kwargs):
        stack = rec.stack()
        parent = stack[-1] if stack else None
        span = [name, 0.0, 0.0, parent, rec.op_id, 0.0, {}, None]
        rec.spans.append(span)
        stack.append(span)
        t0 = span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = span[END] = perf_counter()
            stack.pop()
            if parent is not None:
                parent[CHILD] += t1 - t0
        if post is not None:
            post(rec, span, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _leaf_wrapper(fn, name: str):
    rec = RECORDER

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack = rec.stack()
            if stack:
                parent = stack[-1]
                parent[CHILD] += dt
                leaves = parent[LEAVES]
            else:
                leaves = rec.orphans
            entry = leaves.get(name)
            if entry is None:
                leaves[name] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt

    wrapper.__wrapped__ = fn
    return wrapper


# ----------------------------------------------- tallies beside the spans
def _post_build(rec, span, args, kwargs, result) -> None:
    graph = result if result is not None else args[0]  # build / rebuild
    span[ATTRS] = {"nodes": graph.node_count, "edges": graph.edge_count}
    rec.tally("build.nodes", graph.node_count)
    rec.tally("build.edges", graph.edge_count)


def _post_csr_dijkstra(rec, span, args, kwargs, result) -> None:
    __, settled = result
    rec.tally("dijkstra.settled", float(settled.sum()))
    rec.tally("dijkstra.nodes", float(len(settled)))


def _post_distance_to(rec, span, args, kwargs, result) -> None:
    rec.tally("field.evals")


def _post_batch_eval(rec, span, args, kwargs, result) -> None:
    rec.tally("field.evals", len(result))


def _post_db_batch(method: str):
    def post(rec, span, args, kwargs, result) -> None:
        # Drop ``self`` and the pool knobs: the probe replays the same
        # items under its own.
        rec.batches.append((method, args[1:]))

    return post


_POSTS = {
    (VisibilityGraph, "build"): _post_build,
    (VisibilityGraph, "rebuild"): _post_build,
    (CSRGraph, "dijkstra"): _post_csr_dijkstra,
    (SourceDistanceField, "distance_to"): _post_distance_to,
    (SourceDistanceField, "batch_eval"): _post_batch_eval,
    (ObstacleDatabase, "batch_nearest"): _post_db_batch("batch_nearest"),
    (ObstacleDatabase, "batch_range"): _post_db_batch("batch_range"),
    (ObstacleDatabase, "batch_distance"): _post_db_batch("batch_distance"),
}


def _worker_evaluate(fn):
    """Runs in the pool workers (which fork with the wrappers in
    place): per-chunk layer totals ride back on the ``pool.worker``
    span the program opens around this call."""

    traced = _span_wrapper(fn, "op.worker")

    def wrapper(db, command, items):
        RECORDER.reset()
        try:
            return traced(db, command, items)
        finally:
            span = TRACER.current()
            if span is not None:
                span.set_attr("e2e_layers", RECORDER.layer_totals())
                span.set_attr("e2e_counts", dict(RECORDER.counts))

    wrapper.__wrapped__ = fn
    return wrapper


def _root_sink(span) -> None:
    if RECORDER.active and span.name == "serve.batch":
        RECORDER.serve_roots.append(span.to_dict())


def _replace(owner, attr: str, make) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    _originals.append((owner, attr, raw))
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(*, program_tracer: bool = False) -> Recorder:
    """Wrap every layer boundary; returns the (reset) recorder.

    ``program_tracer`` additionally turns the program's own tracer to
    sample rate 1.0 — only the serving workload needs it, for the spans
    that already cross the pool boundary (``serve.batch``,
    ``pool.batch``, ``pool.worker``)."""
    if _originals:
        raise RuntimeError("tracing wrappers are already installed")
    RECORDER.reset()
    RECORDER.serve_roots = []
    RECORDER.batches = []
    RECORDER.op_id = -1
    for owner, attr, name, leaf in WRAP_POINTS:
        post = _POSTS.get((owner, attr))
        if leaf:
            _replace(owner, attr, lambda fn, n=name: _leaf_wrapper(fn, n))
        else:
            _replace(
                owner, attr, lambda fn, n=name, p=post: _span_wrapper(fn, n, p)
            )
    _replace(repro.serve.pool, "_evaluate", _worker_evaluate)
    if program_tracer:
        TRACER.add_root_sink(_root_sink)
        TRACER.configure(1.0)
    RECORDER.active = True
    return RECORDER


def uninstall() -> None:
    """Put every original back (the root sink stays registered — the
    tracer has no removal — but ignores spans while inactive)."""
    RECORDER.active = False
    TRACER.reload_env()
    while _originals:
        owner, attr, raw = _originals.pop()
        setattr(owner, attr, raw)


def installed() -> bool:
    return bool(_originals)
