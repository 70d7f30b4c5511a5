"""The five workloads: how each sets the program up, drives it, and
checks what it answered.

Every workload is one process, closed loop.  The four sequential ones
have one caller thread; ``serve-stream`` has two closed-loop clients
(asyncio coroutines on one thread) in front of a
:class:`~repro.serve.QueryServer`.

The four sequential workloads are one thread of CPU-bound work, and
their times are reported at *reference speed* (:class:`SpeedReference`)
with the raw values beside them: the sandbox's cores flicker between
two speeds ~1.45x apart, for milliseconds to minutes at a time, and one
stream measured 248-428 ops/s over fourteen passes (README.md, "Times").
``serve-stream`` is reported raw: its time is
the coalescing window, pipes and two worker processes, none of which
scales with the caller's CPU speed, and a reference loop in the caller
thread would compete with the server's own threads.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import shutil
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro import ObstacleDatabase, QueryServer

from e2e_inputs import (
    MUTATION_KINDS,
    QUERY_KINDS,
    Inputs,
    canon,
    digest_of,
    rng_for,
)

#: Set-ups timed per run; ``setup_s`` takes their median.
SETUP_REPS = 3
#: Ops recomputed on the reference database per run.
CHECK_SAMPLE = 32
#: Share of the timed stream the traced pass covers.
TRACE_FRACTION = 0.4


class _ReferencePoint:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def dist(self, other: "_ReferencePoint") -> float:
        return ((self.x - other.x) ** 2 + (self.y - other.y) ** 2) ** 0.5


_REFERENCE_POINTS = [_ReferencePoint(0.5 * i, 0.25 * i) for i in range(64)] * 8


class SpeedReference:
    """How slow the machine is right now, from a fixed loop timed
    beside the work.

    The loop — 512 method calls on small objects, the interpreter work
    the program itself is made of — is pure Python, shares nothing with
    the program under test, and takes :data:`NOMINAL_S` on the baseline
    box's fast state.  (Fourteen passes over one ``hotspot-warm`` stream
    measured 248-428 ops/s raw; corrected by this loop their range was
    7 %, by an integer-arithmetic loop 13 %.  Twelve passes over one
    ``paper-cold`` stream: raw range 43 %, this loop 5 %, arithmetic
    16 %.)
    It is run at op boundaries, at most every :data:`GAP_S`; an op's
    *slowness* is the mean of the samples on either side of it over
    the nominal time, and a measured duration divided by its slowness
    is the duration at reference speed.  Only single-threaded passes
    are corrected: there the loop and the program never run at the same
    time, so a change to the program cannot move the correction.
    """

    NOMINAL_S = 110e-6
    GAP_S = 0.004

    def __init__(self) -> None:
        #: Seconds spent sampling (kept off the sequential clock).
        self.spent = 0.0
        self._last = self._sample()
        self._last_at = perf_counter()

    def _sample(self) -> float:
        t0 = perf_counter()
        acc = 0.0
        origin = _REFERENCE_POINTS[0]
        for p in _REFERENCE_POINTS:
            acc += p.dist(origin)
        dt = perf_counter() - t0
        self.spent += dt
        return dt

    def around(self, now: float) -> float:
        """Seconds the loop takes around the op that ended at ``now``."""
        if now - self._last_at < self.GAP_S:
            return self._last
        cur = self._sample()
        value = 0.5 * (self._last + cur)
        self._last = cur
        self._last_at = perf_counter()
        return value

    def bracket(self, fn) -> tuple[float, float]:
        """``fn()`` between two runs of ten samples: ``(raw seconds,
        seconds at reference speed)`` — for set-up steps, which cannot
        be sampled from inside."""
        before = [self._sample() for __ in range(10)]
        t0 = perf_counter()
        fn()
        raw = perf_counter() - t0
        after = [self._sample() for __ in range(10)]
        self._last, self._last_at = after[-1], perf_counter()
        return raw, raw / self.idle_slowness(before + after)

    def idle_slowness(self, samples: list[float] | None = None) -> float:
        """Slowness from samples taken while nothing else runs (three
        fresh ones by default)."""
        if samples is None:
            samples = [self._sample() for __ in range(3)]
        return statistics.median(samples) / self.NOMINAL_S


def slowness_of(samples: list[float]) -> list[float]:
    """Per-op slowness from reference samples; a sample far from the
    run's median was interrupted, not slowed, and is clipped."""
    mid = statistics.median(samples)
    lo, hi = 0.6 * mid, 1.8 * mid
    return [min(max(x, lo), hi) / SpeedReference.NOMINAL_S for x in samples]


def build_database(inputs: Inputs, sets=None, **kwargs) -> ObstacleDatabase:
    """A database over the inputs' obstacles and entity sets (or the
    given subset of them), bulk-loaded as the constructor defaults do."""
    db = ObstacleDatabase(inputs.obstacles, **kwargs)
    for name, points in (inputs.entity_sets if sets is None else sets).items():
        db.add_entity_set(name, points)
    return db


class Executor:
    """Applies ops to one database through its public methods."""

    def __init__(self, db: ObstacleDatabase) -> None:
        self.db = db
        self.inserted: dict[int, object] = {}

    def __call__(self, op: tuple):
        kind = op[0]
        db = self.db
        if kind == "distance":
            return db.obstructed_distance(op[1], op[2])
        if kind == "nearest":
            return db.nearest(op[1], op[2], op[3])
        if kind == "range":
            return db.range(op[1], op[2], op[3])
        if kind == "distance_join":
            return db.distance_join(op[1], op[2], op[3])
        if kind == "closest_pairs":
            return db.closest_pairs(op[1], op[2], op[3])
        if kind == "insert":
            self.inserted[op[1]] = db.insert_obstacle(op[2])
            return None
        if kind == "delete":
            return db.delete_obstacle(self.inserted.pop(op[1]))
        if kind == "compact":
            db.compact()
            return None
        raise ValueError(f"unknown op kind {kind!r}")


@dataclass
class RunResult:
    """What one pass over a stream measured."""

    ops: list[tuple]
    latencies: list[float]
    answers: list
    #: ``(op index, repr(exception))`` of every op that raised.
    raised: list[tuple[int, str]]
    #: Completion time per op, and the pass's start.
    ends: list[float]
    started: float
    #: Per-op slowness the times are corrected by (see
    #: :class:`SpeedReference`); all 1.0 on a pass reported raw.
    slowness: list[float]
    #: The machine's slowness around the pass (1.0 = reference speed),
    #: whether or not the times are corrected by it.
    machine_slowness: float
    #: Wall of each closed-loop client (one entry when sequential).
    client_walls: list[float] = field(default_factory=list)

    @property
    def mean_slowness(self) -> float:
        """Mean correction over the pass (1.0 when reported raw)."""
        return statistics.fmean(self.slowness)

    def raw(self) -> "RunResult":
        """The same pass with no correction applied."""
        return replace(self, slowness=[1.0] * len(self.ops))

    def ops_per_s(self, segments: int = 5) -> float:
        """Ops ÷ wall at reference speed, as the median rate of
        ``segments`` equal consecutive parts of the stream, so one
        interference burst cannot move it."""
        done = sorted(zip(self.ends, self.slowness))
        n = len(done)
        segments = max(1, min(segments, n))
        bounds = [n * j // segments for j in range(segments + 1)]
        marks = [self.started] + [done[b - 1][0] for b in bounds[1:]]
        rates = []
        for j in range(segments):
            part = done[bounds[j] : bounds[j + 1]]
            slow = statistics.fmean(f for __, f in part)
            rates.append(len(part) / (marks[j + 1] - marks[j]) * slow)
        return statistics.median(rates)

    def answer_digest(self) -> str:
        return digest_of(self.answers)

    def latencies_ms(self, kind: str | None = None) -> list[float]:
        """Per-op latency at reference speed."""
        return [
            1000.0 * lat / slow
            for op, lat, slow in zip(self.ops, self.latencies, self.slowness)
            if kind is None or op[0] == kind
        ]

    def per_op_wall(self) -> float:
        """Client wall per op, at reference speed."""
        return sum(self.client_walls) / self.mean_slowness / len(self.ops)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def run_sequential(execute, ops: list[tuple], recorder=None) -> RunResult:
    n = len(ops)
    latencies = [0.0] * n
    answers: list = [None] * n
    raised: list[tuple[int, str]] = []
    ends = [0.0] * n
    samples = [0.0] * n
    ref = SpeedReference()
    base = ref.spent
    started = perf_counter()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op_id = i
        t0 = perf_counter()
        try:
            answers[i] = execute(op)
        except Exception as exc:  # counted as a failed op, run goes on
            raised.append((i, repr(exc)))
        t1 = perf_counter()
        latencies[i] = t1 - t0
        # The clock of the stream excludes the time spent sampling.
        ends[i] = t1 - (ref.spent - base)
        samples[i] = ref.around(t1)
    if recorder is not None:
        recorder.op_id = -1
    slowness = slowness_of(samples)
    return RunResult(
        ops, latencies, answers, raised, ends, started, slowness,
        statistics.fmean(slowness), [ends[-1] - started],
    )


async def _serve_call(server: QueryServer, op: tuple):
    kind = op[0]
    if kind == "distance":
        return await server.distance(op[1], op[2])
    if kind == "nearest":
        return await server.nearest(op[1], op[2], op[3])
    if kind == "range":
        return await server.range(op[1], op[2], op[3])
    raise ValueError(f"op kind {kind!r} cannot be served")


async def run_served(
    server: QueryServer, ops: list[tuple], clients: int, recorder=None
) -> RunResult:
    """``clients`` closed-loop callers; client ``c`` takes ops
    ``c::clients`` and re-queries as soon as its reply arrives.
    Latency is client-observed, admission to reply, as measured; the
    machine's slowness is sampled before and after the pass only.  With
    a recorder every call is also a ``serve.client`` span."""
    n = len(ops)
    latencies = [0.0] * n
    answers: list = [None] * n
    raised: list[tuple[int, str]] = []
    ends = [0.0] * n
    walls = [0.0] * clients
    ref = SpeedReference()
    slowness_before = ref.idle_slowness()
    started = perf_counter()

    async def client(c: int) -> None:
        for i in range(c, n, clients):
            t0 = perf_counter()
            try:
                answers[i] = await _serve_call(server, ops[i])
            except Exception as exc:
                raised.append((i, repr(exc)))
            t1 = perf_counter()
            latencies[i] = t1 - t0
            ends[i] = t1
            if recorder is not None:
                recorder.spans.append(
                    ["serve.client", t0, t1, None, i, 0.0, {}, None]
                )
        walls[c] = perf_counter() - started

    await asyncio.gather(*(client(c) for c in range(clients)))
    return RunResult(
        ops, latencies, answers, raised, ends, started, [1.0] * n,
        0.5 * (slowness_before + ref.idle_slowness()), walls,
    )


def page_misses(db: ObstacleDatabase) -> dict[str, int]:
    """R*-tree buffer misses per tree — the paper's I/O cost."""
    return {name: c["misses"] for name, c in db.stats().items()}


def page_reads(db: ObstacleDatabase) -> int:
    return sum(c["reads"] for c in db.stats().values())


# ------------------------------------------------------------- workloads
class Workload:
    """Set-up, drive and tear-down of one workload.

    ``build`` is everything the program does on a cold start and is
    what ``setup_s`` repeats; ``warm`` is the part done once on the
    database that is then measured (warm-up replay, pool spawn).
    """

    name = ""
    #: Constructor arguments beyond the obstacles (default: none — the
    #: paper's 4 KB pages, 10 % buffers, exact cache keys).
    db_kwargs: dict = {}
    clients = 1
    #: Whether times are reported at reference speed (one caller
    #: thread of CPU-bound work) or raw.
    corrected = True

    def __init__(self, inputs: Inputs, workdir: str) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.db: ObstacleDatabase | None = None
        self.executor: Executor | None = None
        #: Sub-timings of the latest ``build`` (bulk_load_s, save_s, ...).
        self.build_parts: dict[str, float] = {}
        self._builds = 0

    # -- set-up
    def build(self) -> None:
        t0 = perf_counter()
        self.db = build_database(self.inputs, **self.db_kwargs)
        self.build_parts = {"bulk_load_s": perf_counter() - t0}
        self.executor = Executor(self.db)
        self._builds += 1

    def warm(self) -> tuple[float, float]:
        """Warm the built database: ``(raw seconds, seconds as
        reported)``."""
        if not self.inputs.warmup:
            return 0.0, 0.0
        done = self.run(self.inputs.warmup)
        n = len(self.inputs.warmup)
        return done.raw().per_op_wall() * n, done.per_op_wall() * n

    def discard(self) -> None:
        """Drop the built database (before the next timed build)."""
        if self.db is not None:
            self.db.close()
            if self.db.journal is not None:
                self.db.journal.close()
        self.db = None
        self.executor = None
        gc.collect()

    # -- drive
    def run(self, ops: list[tuple], recorder=None) -> RunResult:
        return run_sequential(self.executor, ops, recorder)

    def extra_rss_kb(self) -> int:
        """Peak RSS of helper processes, to add to the caller's own."""
        return 0

    def close(self) -> None:
        self.discard()

    # -- checks
    def reference_sets(self, sampled_ops: list[tuple]) -> dict:
        """Entity sets the reference database needs for the sample."""
        return self.inputs.entity_sets

    def extra_checks(self, result: RunResult) -> tuple[int, list[str]]:
        """Workload-specific checks: ``(comparisons, mismatches)``."""
        return 0, []


class PaperCold(Workload):
    name = "paper-cold"


class PaperJoin(Workload):
    name = "paper-join"

    def reference_sets(self, sampled_ops):
        needed = {"T"} | {op[1] for op in sampled_ops}
        return {n: p for n, p in self.inputs.entity_sets.items() if n in needed}


class HotspotWarm(Workload):
    name = "hotspot-warm"
    db_kwargs = {"cache_policy": "adaptive"}


class ChurnDurable(Workload):
    name = "churn-durable"
    db_kwargs = {"cache_policy": "adaptive"}

    def build(self) -> None:
        folder = os.path.join(self.workdir, f"db{self._builds}")
        os.makedirs(folder)
        self.journal_path = os.path.join(folder, "mutations.journal")
        self.base_path = os.path.join(folder, "base.snap")
        self.db_kwargs = {**type(self).db_kwargs, "durable": self.journal_path}
        super().build()
        t0 = perf_counter()
        self.db.save(self.base_path)
        self.build_parts["save_s"] = perf_counter() - t0
        self.build_parts["snapshot_bytes"] = float(os.path.getsize(self.base_path))

    def recover(self) -> tuple[ObstacleDatabase, float]:
        """A second database from copies of the two files alone."""
        folder = os.path.join(self.workdir, f"recover{self._builds}")
        os.makedirs(folder, exist_ok=True)
        base = shutil.copy(self.base_path, folder)
        journal = shutil.copy(self.journal_path, folder)
        t0 = perf_counter()
        recovered = ObstacleDatabase.load(base, durable=journal)
        return recovered, perf_counter() - t0

    def extra_checks(self, result):
        """Recovery: ``base + journal`` must answer like the live
        database (which still holds whatever the stream left inserted)."""
        recovered, __ = self.recover()
        try:
            probes = self.inputs.extra["probes"]
            live = [canon(self.executor(op)) for op in probes]
            again = Executor(recovered)
            mismatches = [
                f"recovered database answers probe {i} differently"
                for i, op in enumerate(probes)
                if canon(again(op)) != live[i]
            ]
        finally:
            recovered.journal.close()
        return len(probes), mismatches


class ServeStream(Workload):
    name = "serve-stream"
    db_kwargs = {"cache_policy": "adaptive"}
    clients = 2
    workers = 2
    corrected = False

    def __init__(self, inputs, workdir) -> None:
        super().__init__(inputs, workdir)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.server: QueryServer | None = None
        self.spawn_s = 0.0
        self._worker_rss_kb = 0

    def warm(self) -> tuple[float, float]:
        # The pool snapshots the database and boots its workers on the
        # first batch; two distinct pairs make that batch parallel.
        pairs = []
        for op in self.inputs.warmup + self.inputs.ops:
            if op[0] == "distance" and (op[1], op[2]) not in pairs:
                pairs.append((op[1], op[2]))
                if len(pairs) == 2:
                    break
        pool = self.db.serving_pool(self.workers)
        t0 = perf_counter()
        pool.batch_distance(pairs)
        self.spawn_s = perf_counter() - t0
        self.loop = asyncio.new_event_loop()
        self.server = QueryServer(self.db, workers=self.workers, pool="persistent")
        # The clients' walls overlap: the warm-up took one of them.
        warm_s = self.spawn_s + super().warm()[0] / self.clients
        return warm_s, warm_s

    def run(self, ops, recorder=None) -> RunResult:
        return self.loop.run_until_complete(
            run_served(self.server, ops, self.clients, recorder)
        )

    def extra_rss_kb(self) -> int:
        total = 0
        for child in multiprocessing.active_children():
            try:
                with open(f"/proc/{child.pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total

    def discard(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.server.close())
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
            self.loop = None
            self.server = None
        super().discard()

    def extra_checks(self, result):
        """Serving must not change an answer: the same stream called
        directly, in order, on a fresh database set up the same way."""
        execute = Executor(build_database(self.inputs, **self.db_kwargs))
        mismatches = [
            f"served answer {i} differs from the direct call"
            for i, op in enumerate(result.ops)
            if canon(execute(op)) != canon(result.answers[i])
        ]
        return len(result.ops), mismatches


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (PaperCold, PaperJoin, HotspotWarm, ChurnDurable, ServeStream)
}


# ----------------------------------------------------------- answer check
def reference_check(
    workload: Workload, result: RunResult, seed: int
) -> tuple[int, list[str]]:
    """Recompute a sample of the answers on a cold exact-key database
    on the ``python-sweep`` backend — an implementation of the sweep
    independent of the default numpy kernel — and compare bit for bit.

    Mutations are replayed on the reference so each sampled query sees
    the obstacle set it was answered against.
    """
    inputs = workload.inputs
    queries = [i for i, op in enumerate(result.ops) if op[0] in QUERY_KINDS]
    rng = rng_for(seed, inputs.workload, "check")
    sample = set(rng.sample(queries, min(CHECK_SAMPLE, len(queries))))
    reference = build_database(
        inputs,
        workload.reference_sets([result.ops[i] for i in sample]),
        backend="python-sweep",
        graph_cache_snap=0.0,
        cache_policy="static",
    )
    execute = Executor(reference)
    for op in inputs.warmup:
        if op[0] in MUTATION_KINDS:
            execute(op)
    def comparable(op: tuple, answer):
        # A distance join answers with a set of pairs; the order they
        # are found in depends on what earlier ops left in the cache.
        if op[0] == "distance_join":
            return sorted(canon(pair) for pair in answer)
        return canon(answer)

    mismatches = []
    for i, op in enumerate(result.ops):
        if op[0] in MUTATION_KINDS:
            execute(op)
        elif i in sample:
            reference.reset_stats(clear_buffers=True)
            if comparable(op, execute(op)) != comparable(op, result.answers[i]):
                mismatches.append(
                    f"op {i} {op[0]}: answer differs from the reference"
                )
    return len(sample), mismatches


def traced_prefix(ops: list[tuple]) -> list[tuple]:
    return ops[: max(1, int(len(ops) * TRACE_FRACTION))]
