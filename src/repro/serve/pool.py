"""The worker pool: one implementation, two lifecycles.

Query points in a batch are independent given a frozen obstacle
version, so a batch fans out over processes (CPython's GIL serializes
the pure-python sweep/Dijkstra work, so wall-clock speedup needs
processes).  Both ways of running a batch in processes share one
command vocabulary (:func:`repro.runtime.batch.evaluate`), one worker
body and reply (:func:`_reply`) and one collect loop
(:func:`_fan_out`); only the way a worker starts differs:

* **fork per batch** (:func:`fork_batch`) — one forked child per
  chunk.  The child inherits the database in memory (nothing is
  pickled on the way in), answers its chunk on the state it inherited,
  sends one reply and exits; its cache updates die with it.
* **persistent** (:class:`PersistentWorkerPool`) — workers spawned
  once, each warm-started by *loading a snapshot*
  (:meth:`~repro.core.engine.ObstacleDatabase.load`) written by the
  parent at pool creation; because snapshots carry the graph cache, a
  worker performs **zero** cold graph builds for centres the parent
  had already covered.  The pool takes one subscription to the parent
  database's mutation feed, which announces every applied
  :class:`~repro.persist.journal.MutationRecord` — obstacle or entity,
  any set, live or replayed; the same unit the write-ahead journal
  persists, applied by the same
  :func:`~repro.persist.journal.apply_record` — and logs them; each
  worker replays its outstanding suffix before serving a request,
  through its own repair-first runtime, so answers stay bit-identical
  to a monolithic sequential context at every point in time.  A new
  dataset, which no record expresses, discards the workers.

Out-of-band edits (writes made at an index or a tree, behind the
database's back) never reach the feed; a version/size signature check
before every dispatch catches them: on drift the pool discards its
workers and respawns from a fresh snapshot rather than serving stale
answers.

Every reply carries the runtime counters and per-tree simulated page
counters of the chunk's work (the worker zeroes them first, so the
absolute values are exact) and, when the parent traces the batch, the
worker's ``pool.worker`` span tree; the parent merges them, so
``db.runtime_stats()`` / ``db.stats()`` and the trace account worker
work exactly as they account sequential work.  A worker that dies
mid-chunk — either lifecycle — raises a
:class:`~repro.errors.QueryError` naming the chunk.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import weakref
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.obs.trace import NULL_SPAN, TRACER
from repro.persist.journal import MutationRecord, apply_record
from repro.runtime.batch import evaluate as _evaluate
from repro.stats.counters import add_page_counts, page_counts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.core.engine import ObstacleDatabase


def fork_available() -> bool:
    """True when the fork start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _chunk_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous, balanced ``(start, stop)`` ranges over ``n``."""
    size, extra = divmod(n, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges


def _reply(
    db: "ObstacleDatabase",
    replay: Sequence[MutationRecord],
    command: tuple,
    items: Sequence,
    start: int,
    trace: bool,
) -> tuple:
    """The one worker body of both lifecycles: replay the records the
    worker has not seen (a persistent worker catching up with its
    parent; a forked child has none), zero the counters, answer the
    chunk ``items`` — which starts at ``start`` in the batch — and
    return the reply ``("ok", results, runtime_stats, page_counts,
    span)``.  ``trace`` is the parent's sampling decision: when set,
    ``_evaluate`` runs directly under a detached ``pool.worker`` span
    whose tree rides back.  A failure is the reply ``("error", repr)``,
    which keeps a persistent worker's pipe protocol in sync."""
    try:
        for record in replay:
            apply_record(db, record)
        db.reset_stats()  # counters only: caches and buffers stay warm
        TRACER.reset_thread()  # a forked child inherits its parent's stack
        span = (
            TRACER.detached(
                "pool.worker",
                kind=command[0],
                start=start,
                stop=start + len(items),
            )
            if trace
            else NULL_SPAN
        )
        with span:
            results = _evaluate(db, command, items)
    except Exception as exc:  # an interrupt ends the worker: "died serving"
        return ("error", repr(exc))
    return (
        "ok",
        results,
        db.runtime_stats(),
        page_counts(tree for __, tree in db._trees()),
        span.to_dict() if span else None,
    )


def _fan_out(
    db: "ObstacleDatabase",
    command: tuple,
    items: Sequence,
    workers: int,
    dispatch: "Callable[[int, Sequence, int, bool], Connection]",
) -> list:
    """The one collect loop of both lifecycles: cut ``items`` into at
    most ``workers`` chunks, hand chunk ``i`` to ``dispatch(i, chunk,
    start, trace)`` — which starts it on worker ``i`` and returns the
    connection its reply arrives on — then receive every reply: place
    its results at their offset, merge its runtime stats and page
    counts into ``db`` and graft its span tree under the open span.
    The first failure is raised as a :class:`QueryError` naming the
    worker and its chunk."""
    chunks = _chunk_ranges(len(items), min(workers, len(items)))
    with TRACER.span("pool.batch", kind=command[0], n=len(items)) as batch_span:
        # A real span here means this batch is being traced (the
        # sampling decision is the parent's); each worker's span tree
        # rides back in its reply.
        trace = bool(batch_span)
        dispatched = []
        failure: QueryError | None = None
        for index, (start, stop) in enumerate(chunks):
            where = f"chunk [{start}:{stop}) of a {command[0]!r} batch"
            try:
                conn = dispatch(index, items[start:stop], start, trace)
            except (OSError, ValueError):
                failure = QueryError(
                    f"pool worker {index} died before serving {where}"
                )
                break
            dispatched.append((index, where, start, conn))
        results: list = [None] * len(items)
        trees = [tree for __, tree in db._trees()]
        for index, where, start, conn in dispatched:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                failure = failure or QueryError(
                    f"pool worker {index} died serving {where}"
                )
                continue
            if reply[0] != "ok":
                failure = failure or QueryError(
                    f"pool worker {index} failed on {where}: {reply[1]}"
                )
                continue
            __, chunk, worker_stats, worker_pages, span_doc = reply
            results[start : start + len(chunk)] = chunk
            db.context.stats.merge(worker_stats)
            add_page_counts(trees, worker_pages)
            TRACER.graft(span_doc)
    if failure is not None:
        raise failure
    return results


def _fork_main(
    conn: "Connection",
    db: "ObstacleDatabase",
    command: tuple,
    items: Sequence,
    start: int,
    trace: bool,
) -> None:
    """A forked child's whole life: one reply on the state it inherited."""
    conn.send(_reply(db, (), command, items, start, trace))
    conn.close()


def fork_batch(
    db: "ObstacleDatabase", command: tuple, items: Sequence, workers: int
) -> list:
    """``evaluate(db, command, items)`` over one forked child per chunk
    (at most ``workers``), in order; worker stats, page counts and span
    trees merged into ``db``.  A child that dies mid-chunk raises
    :class:`QueryError` naming the chunk."""
    ctx = multiprocessing.get_context("fork")
    children = []

    def dispatch(index: int, chunk: Sequence, start: int, trace: bool):
        reader, writer = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_fork_main,
            args=(writer, db, command, chunk, start, trace),
            daemon=True,
            name=f"repro-fork-{index}",
        )
        children.append((process, reader))
        # Closed once forked: the child's copy is then the only write
        # end, so its death reads as EOF here.
        with writer:
            process.start()
        return reader

    try:
        return _fan_out(db, command, items, workers, dispatch)
    finally:
        for process, reader in children:
            reader.close()
            if process.pid is None:  # never started
                continue
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - abandoned mid-batch
                process.kill()
                process.join()


def _worker_main(
    conn: "Connection",
    snapshot_path: str,
    backend: str,
    cache_policy: str | None = None,
) -> None:
    """A persistent worker's life: load the snapshot (warm start), then
    serve ``(records, command, items, start, trace)`` requests with
    :func:`_reply` until shutdown."""
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
    conn.send(("ready",))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "shutdown":
            conn.send(("bye",))
            break
        conn.send(_reply(db, *message[1:]))
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

    def _on_record(self, record: MutationRecord | None, before: int | str) -> None:
        """Log one applied mutation for replay in the workers, and move
        the expected signature of its set along — from ``before``, what
        the set had when the record was applied, only: a set an earlier
        out-of-band write left drifted stays drifted, so it respawns.
        ``None`` announces a new dataset of either scope, which no
        record replays: the workers are discarded."""
        if not self._members:
            return  # nothing mirrors the parent; _spawn starts afresh
        if record is None:
            self.invalidate()
            return
        self._log.append(record)
        key = (record.scope, record.set_name)
        if self._expected.get(key) == before:
            self._expected[key] = self._signature()[key]

    def _spawn(self) -> None:
        """Snapshot the parent and boot the workers from it."""
        from repro.persist.store import save_database
        from repro.visibility.kernel.backend import available_backends

        # Workers resolve the parent's backend and cache policy *kind*
        # by name (not their state): each adapts to the stream it
        # serves.  A backend instance no name resolves cannot be
        # mirrored, and sweeping with another one would be silent.
        backend = self._db.context.backend.name
        if backend not in available_backends():
            raise QueryError(
                f"a persistent pool cannot start workers on visibility "
                f"backend {backend!r}: workers resolve a backend by name, "
                f"one of {available_backends()} (pool='fork' inherits it)"
            )
        cache_policy = self._db.cache_policy
        ctx = multiprocessing.get_context(
            "fork" if fork_available() else "spawn"
        )
        path = self._snapshot_path
        ephemeral = path is None
        if ephemeral:
            fd, path = tempfile.mkstemp(suffix=".snap", prefix="repro-pool-")
            os.close(fd)
        # Straight through the store, NOT ``db.save``: the warm-start
        # snapshot is pool plumbing, and must never re-anchor a durable
        # database's journal to an (often ephemeral) path.
        save_database(self._db, path, include_cache=True)
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
        fresh snapshot (the parent's answer to a new dataset, which
        the delta feed cannot express)."""
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
        """Fan ``items`` over the workers under ``command`` (see
        :func:`repro.runtime.batch.evaluate`); returns per-item results
        in order.

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
        log = self._log

        def dispatch(index: int, chunk: Sequence, start: int, trace: bool):
            member = self._members[index]
            member.conn.send(
                ("serve", log[member.cursor :], command, chunk, start, trace)
            )
            member.cursor = len(log)
            return member.conn

        try:
            results = _fan_out(self._db, command, items, self.workers, dispatch)
        except QueryError:
            # The pipe protocol may be out of sync with the dead or
            # failed worker's peers mid-batch; restart from scratch.
            self._stop_workers()
            raise
        self.batches_served += 1
        return results

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
