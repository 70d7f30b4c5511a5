"""The persistent, snapshot-warm-started worker pool.

:class:`~repro.runtime.executor.BatchExecutor` forks a fresh process
pool *per batch*: every worker pays the fork plus cold visibility-graph
builds for every centre in its chunk, then dies — throwing away exactly
the warm state the spatial cache and the snapshot store work to create.
:class:`PersistentWorkerPool` inverts that lifecycle:

* **spawned once** — workers are long-lived processes serving many
  requests over a pipe protocol, surviving across batches with their
  private graph caches intact;
* **warm-started** — each worker boots by *loading a snapshot*
  (:meth:`~repro.core.engine.ObstacleDatabase.load`) written by the
  parent at pool creation, not by inheriting pickled parent state.
  Because snapshots carry the graph cache, a worker performs **zero**
  cold graph builds for centres the parent had already covered;
* **delta-fed** — the pool takes one subscription to the parent
  database's mutation feed, which announces every applied
  :class:`~repro.persist.journal.MutationRecord` — obstacle or entity,
  any set, live or replayed; the same unit the write-ahead journal
  persists, applied by the same
  :func:`~repro.persist.journal.apply_record` — and logs them; each
  worker replays its outstanding suffix before serving a request, and
  replay routes through the worker's own repair-first runtime, so
  answers stay bit-identical to a monolithic sequential context at
  every point in time.

Out-of-band edits (writes made at an index or a tree, behind the
database's back) never reach the feed; a version/size signature check
before every dispatch catches them: on drift the pool discards its
workers and respawns from a fresh snapshot rather than serving stale
answers.

Worker runtime counters and per-tree simulated page counters travel
back with every reply and are merged into the parent database, so
``db.runtime_stats()`` / ``db.stats()`` account pool work exactly as
they account sequential work.

A long-lived worker amortizes the frozen CSR adjacency and the
per-root distance fields of its cached graphs across every batch it
serves, and the warm-start snapshot ships the frozen arrays, so
workers boot with them installed.  The ``field_freezes`` /
``field_batch_evals`` counters merge like every other runtime stat.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from typing import TYPE_CHECKING, Sequence

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.obs.trace import TRACER
from repro.persist.journal import MutationRecord, apply_record
from repro.runtime.executor import _chunk_ranges, _join, _traced
from repro.stats.counters import page_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.core.engine import ObstacleDatabase


def _evaluate(db: "ObstacleDatabase", command: tuple, items: Sequence) -> list:
    """Serve one chunk inside a worker, through the worker's shared
    context and the *same* per-point evaluators the batch engine uses
    sequentially — which is what makes pool answers bit-identical to a
    monolithic context."""
    from repro.runtime.metric import ObstructedMetric
    from repro.runtime.queries import metric_nearest, metric_range

    kind = command[0]
    if kind == "distance":
        metric = ObstructedMetric(db.context)
        return [metric.distance(a, b) for a, b in items]
    if kind == "nearest":
        __, set_name, k, prune_bound = command
        tree = db.entity_tree(set_name)
        metric = ObstructedMetric(db.context)
        return [
            list(metric_nearest(tree, metric, q, k, prune_bound=prune_bound))
            for q in items
        ]
    if kind == "range":
        __, set_name, e = command
        tree = db.entity_tree(set_name)
        metric = ObstructedMetric(db.context)
        return [list(metric_range(tree, metric, q, e)) for q in items]
    raise QueryError(f"unknown pool command {kind!r}")


def _worker_main(
    conn: "Connection",
    snapshot_path: str,
    backend: str | None,
    cache_policy: str | None = None,
) -> None:
    """The worker process body: load the snapshot (warm start), then
    serve ``(deltas, command, items)`` requests until shutdown.

    Every reply carries the runtime-stats and page-counter deltas of
    the work it performed (counters are zeroed between requests, so
    deltas are exact); failures are reported as ``("error", repr)``
    instead of killing the worker, keeping the pipe protocol in sync.
    """
    from repro.core.engine import ObstacleDatabase

    try:
        db = ObstacleDatabase.load(
            snapshot_path, backend=backend, cache_policy=cache_policy
        )
    except BaseException as exc:  # startup must never hang the parent
        try:
            conn.send(("boot-error", repr(exc)))
        finally:
            conn.close()
        return
    db.reset_stats()  # page/runtime counters to zero; caches stay warm
    conn.send(("ready",))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "shutdown":
            conn.send(("bye",))
            break
        __, deltas, command, items, trace = message

        def serve() -> list:
            for delta in deltas:
                apply_record(db, delta)
            return _evaluate(db, command, items)

        try:
            # ``trace``: the parent sampled this batch, so the worker's
            # share is traced and its tree rides back in the reply.
            results, span_doc = _traced(
                "pool.worker", serve, trace, kind=command[0], items=len(items)
            )
        except BaseException as exc:
            conn.send(("error", repr(exc)))
            db.reset_stats()
            continue
        conn.send(
            (
                "ok",
                results,
                db.runtime_stats(),
                page_counts(tree for __, tree in db._trees()),
                span_doc,
            )
        )
        db.reset_stats()
    conn.close()


class _Worker:
    """One pool member: its process, pipe end, and delta cursor."""

    __slots__ = ("process", "conn", "cursor", "index")

    def __init__(self, process, conn, index: int) -> None:
        self.process = process
        self.conn = conn
        self.index = index
        #: Offset into the pool's delta log of the first delta this
        #: worker has not yet replayed.
        self.cursor = 0


class PersistentWorkerPool:
    """A long-lived pool of snapshot-warm-started query workers.

    Parameters
    ----------
    db:
        The parent database.  The pool snapshots it at (lazy) startup,
        subscribes to its mutation feed, and merges worker stats back
        into it.
    workers:
        Worker process count (>= 1; batch routing only engages a pool
        from ``workers >= 2``).
    snapshot_path:
        Where to write the warm-start snapshot.  Default: a temporary
        file, deleted as soon as every worker has loaded it.  An
        explicit path is left on disk (callers may want to inspect or
        reuse it).

    The pool is a context manager; :meth:`shutdown` is idempotent and
    safe to call from ``finally`` blocks and finalizers.
    """

    def __init__(
        self,
        db: "ObstacleDatabase",
        workers: int,
        *,
        snapshot_path: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if workers < 1:
            raise QueryError(f"pool needs >= 1 worker, got {workers}")
        # Held weakly: the pool must not keep its database alive (a
        # strong reference would defeat the finalizer below).
        self._dbref = weakref.ref(db)
        self.workers = workers
        self._snapshot_path = (
            os.fspath(snapshot_path) if snapshot_path is not None else None
        )
        self._members: list[_Worker] = []
        self._log: list[MutationRecord] = []
        self._expected: dict[tuple[str, str], int] = {}
        self._shut = False
        #: Requests served and workers (re)spawned, for observability.
        self.batches_served = 0
        self.spawns = 0
        # One subscription for the database's lifetime, held weakly.
        db._feed.subscribe(self._on_record)
        # Reaps the workers when the database is collected (the
        # finalizer holds the pool, never the database).
        self._finalizer = weakref.finalize(
            db, PersistentWorkerPool.shutdown, self
        )

    @property
    def _db(self) -> "ObstacleDatabase":
        db = self._dbref()
        if db is None:  # pragma: no cover - use-after-collect guard
            raise QueryError("the database owning this pool was collected")
        return db

    # ------------------------------------------------------------- lifecycle
    @property
    def alive(self) -> bool:
        """True when worker processes are currently running."""
        return bool(self._members)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _signature(self) -> dict[tuple[str, str], int]:
        """Version/size signature of the parent state the workers
        mirror: obstacle-set versions plus entity-tree sizes, keyed by
        record scope and set name.  Drift against the expectation means
        an out-of-band edit."""
        db = self._db
        return {
            **{("obstacle", n): i.version for n, i in db._obstacle_indexes.items()},
            **{("entity", n): len(t) for n, t in db._entity_trees.items()},
        }

    def _on_record(self, record: MutationRecord, before: int) -> None:
        """Log one applied mutation for replay in the workers, and move
        the expected signature of its set along — from ``before``, what
        the set had when the record was applied, only: a set an earlier
        out-of-band write left drifted stays drifted, so it respawns."""
        if not self._members:
            return  # nothing mirrors the parent; _spawn starts afresh
        self._log.append(record)
        key = (record.scope, record.set_name)
        if self._expected.get(key) == before:
            self._expected[key] = self._signature()[key]

    def _spawn(self) -> None:
        """Snapshot the parent and boot the workers from it."""
        import multiprocessing

        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(method)
        path = self._snapshot_path
        ephemeral = path is None
        if ephemeral:
            fd, path = tempfile.mkstemp(suffix=".snap", prefix="repro-pool-")
            os.close(fd)
        # Straight through the store, NOT ``db.save``: the warm-start
        # snapshot is pool plumbing, and must never re-anchor a durable
        # database's journal to an (often ephemeral) path.
        from repro.persist.store import save_database

        save_database(self._db, path, include_cache=True)
        backend = self._db.context.backend.name
        from repro.visibility.kernel.backend import available_backends

        if backend not in available_backends():
            backend = None
        # Workers inherit the parent's cache policy *kind* by name (not
        # its estimator state): each adapts to the stream it serves.
        cache_policy = self._db.cache_policy
        members: list[_Worker] = []
        try:
            for i in range(self.workers):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, path, backend, cache_policy),
                    daemon=True,
                    name=f"repro-pool-{i}",
                )
                process.start()
                child_conn.close()  # keep exactly one handle per end
                members.append(_Worker(process, parent_conn, i))
            for member in members:
                try:
                    reply = member.conn.recv()
                except (EOFError, OSError):
                    raise QueryError(
                        f"pool worker {member.index} died during warm start"
                    ) from None
                if reply[0] != "ready":
                    raise QueryError(
                        f"pool worker {member.index} failed to load the "
                        f"warm-start snapshot: {reply[1]}"
                    )
        except BaseException:
            for member in members:
                member.conn.close()
                member.process.terminate()
                member.process.join(timeout=5)
            raise
        finally:
            if ephemeral:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
        # Workers mirror the parent as of this snapshot: outstanding
        # log entries predate it and must never be replayed into them.
        for member in members:
            member.cursor = len(self._log)
        self._members = members
        self._expected = self._signature()
        self.spawns += 1

    def _ensure_workers(self) -> None:
        if self._shut:
            raise QueryError("persistent pool is shut down")
        if self._members and self._expected != self._signature():
            # Out-of-band edit: the feed missed a mutation, so delta
            # replay can no longer reproduce the parent.  Respawn from
            # a fresh snapshot instead of serving stale answers.
            self._stop_workers()
        if not self._members:
            self._spawn()

    def invalidate(self) -> None:
        """Discard the workers; the next dispatch respawns them from a
        fresh snapshot.  Used by the parent when it changes shape in
        ways the delta feed cannot express (new datasets)."""
        self._stop_workers()
        self._log.clear()

    def _stop_workers(self) -> None:
        members, self._members = self._members, []
        for member in members:
            try:
                member.conn.send(("shutdown",))
            except (OSError, ValueError):
                pass
        for member in members:
            try:
                if member.conn.poll(1.0):
                    member.conn.recv()
            except (EOFError, OSError):
                pass
            member.conn.close()
            member.process.join(timeout=5)
            if member.process.is_alive():  # pragma: no cover - stuck worker
                member.process.terminate()
                member.process.join(timeout=5)

    def shutdown(self) -> None:
        """Stop every worker.  Idempotent; safe after partial failures
        (and called automatically when the owning database is
        garbage-collected)."""
        if self._shut:
            return
        self._shut = True
        self._finalizer.detach()
        self._stop_workers()

    # -------------------------------------------------------------- serving
    def run_batch(self, command: tuple, items: Sequence) -> list:
        """Fan ``items`` over the workers under ``command``; returns
        per-item results in order.

        Outstanding mutation deltas ride along with each worker's
        request, so every answer reflects the parent's current state.
        Worker stats are merged into the parent database on join.  A
        worker dying mid-chunk raises :class:`QueryError` naming the
        chunk; the pool is torn down so the next dispatch respawns
        cleanly.
        """
        if not items:
            return []
        self._ensure_workers()
        chunks = _chunk_ranges(len(items), min(self.workers, len(items)))
        with TRACER.span(
            "pool.batch", kind=command[0], n=len(items)
        ) as batch_span:
            # A real span here means this batch is being traced (the
            # sampling decision is the parent's); the flag rides the
            # pipe protocol and each worker's span tree rides back.
            trace = bool(batch_span)
            dispatched: list[tuple[_Worker, tuple[int, int]]] = []
            failure: QueryError | None = None
            for member, chunk in zip(self._members, chunks):
                deltas = self._log[member.cursor :]
                try:
                    member.conn.send(
                        (
                            "serve",
                            deltas,
                            command,
                            items[chunk[0] : chunk[1]],
                            trace,
                        )
                    )
                except (OSError, ValueError):
                    failure = QueryError(
                        f"pool worker {member.index} died before serving chunk "
                        f"[{chunk[0]}:{chunk[1]}) of a {command[0]!r} batch"
                    )
                    break
                member.cursor = len(self._log)
                dispatched.append((member, chunk))
            parts = []
            for member, (start, stop) in dispatched:
                try:
                    reply = member.conn.recv()
                except (EOFError, OSError):
                    failure = failure or QueryError(
                        f"pool worker {member.index} died serving chunk "
                        f"[{start}:{stop}) of a {command[0]!r} batch"
                    )
                    continue
                if reply[0] != "ok":
                    failure = failure or QueryError(
                        f"pool worker {member.index} failed on chunk "
                        f"[{start}:{stop}) of a {command[0]!r} batch: {reply[1]}"
                    )
                    continue
                parts.append((start, *reply[1:]))
            db = self._db
            results = _join(
                len(items),
                parts,
                db.context.stats,
                [tree for __, tree in db._trees()],
            )
            if failure is not None:
                # The pipe protocol may be out of sync with the dead or
                # failed worker's peers mid-batch; restart from scratch.
                self._stop_workers()
                raise failure
        self.batches_served += 1
        return results

    def batch_nearest(
        self,
        set_name: str,
        points: Sequence[Point],
        k: int,
        *,
        prune_bound: bool = True,
    ) -> list:
        """k-NN per point, fanned over the warm workers."""
        return self.run_batch(("nearest", set_name, k, prune_bound), points)

    def batch_range(
        self, set_name: str, points: Sequence[Point], e: float
    ) -> list:
        """Range result per point, fanned over the warm workers."""
        return self.run_batch(("range", set_name, e), points)

    def batch_distance(
        self, pairs: Sequence[tuple[Point, Point]]
    ) -> list[float]:
        """Obstructed distance per pair, fanned over the warm workers."""
        return self.run_batch(("distance",), pairs)

    def __repr__(self) -> str:
        state = "shut" if self._shut else ("warm" if self.alive else "idle")
        return (
            f"PersistentWorkerPool(workers={self.workers}, {state}, "
            f"batches_served={self.batches_served}, spawns={self.spawns})"
        )
