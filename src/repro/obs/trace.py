"""Low-overhead query tracing: nested span trees over monotonic clocks.

One global :data:`TRACER` is threaded through the hot layers.  A *span*
is one timed operation (a query skeleton, a graph build, a rotational
sweep, a serve microbatch); spans nest into a tree rooted at the query
entry point.  Layers too hot for a span of their own (R*-tree page
fetches, cache hit/miss decisions) tick *counters* on whatever span is
currently open — aggregate accounting at near-zero cost.

Sampling
--------
``REPRO_TRACE_SAMPLE`` sets the root-span sampling rate: ``0`` (the
default) disables tracing entirely, ``1`` traces every query, ``0.25``
every fourth; a value that is not a number raises
:class:`~repro.errors.QueryError` naming it, at import and from
:meth:`Tracer.reload_env`.  Sampling is a deterministic accumulator,
not a RNG, so runs are reproducible.  When tracing is off,
:meth:`Tracer.span` returns a shared no-op span and
:meth:`Tracer.count` returns after two attribute lookups — the fast
path allocates nothing.

Cross-process traces
--------------------
Worker processes (persistent or forked per batch) cannot share
the parent's span stack.  They open a *detached* root via
:meth:`Tracer.detached`, serialise it with :meth:`Span.to_dict`, ship
the dict back inside their reply, and the parent grafts it into its
active span with :meth:`Tracer.graft` — one merged tree per query, no
matter how many processes it crossed.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Callable, Iterator

from repro.errors import QueryError

__all__ = ["Span", "Tracer", "TRACER"]

#: Children kept per span before further child spans are dropped (and
#: accounted in ``Span.dropped``) — bounds trace memory under
#: pathological fan-out.
MAX_CHILDREN = 256

_ENV_SAMPLE = "REPRO_TRACE_SAMPLE"


def _env_sample_rate() -> float:
    raw = os.environ.get(_ENV_SAMPLE, "").strip()
    if not raw:
        return 0.0
    try:
        rate = float(raw)
    except ValueError:
        rate = math.nan
    if math.isnan(rate):  # "nan" parses, and would slip through the clamp
        raise QueryError(
            f"{_ENV_SAMPLE} must be a number in [0, 1], got {raw!r}"
        )
    return min(max(rate, 0.0), 1.0)


class Span:
    """One timed operation in a trace tree.

    Entered as a context manager (the tracer hands these out via
    :meth:`Tracer.span`); ``start``/``end`` are ``perf_counter``
    readings, ``counters`` holds aggregate ticks from layers too hot
    for child spans, ``dropped`` counts children discarded past
    :data:`MAX_CHILDREN`.
    """

    __slots__ = (
        "name",
        "attrs",
        "start",
        "end",
        "children",
        "counters",
        "dropped",
        "_tracer",
        "_root",
    )

    def __init__(
        self,
        name: str,
        attrs: dict[str, Any] | None = None,
        *,
        tracer: "Tracer | None" = None,
        root: bool = False,
    ) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.counters: dict[str, int] = {}
        self.dropped = 0
        self._tracer = tracer
        self._root = root

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return self.end - self.start if self.end else 0.0

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._stack().append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        tracer = self._tracer
        if tracer is not None:
            stack = tracer._stack()
            if stack and stack[-1] is self:
                stack.pop()
            if self._root:
                tracer._finish_root(self)

    def to_dict(self) -> dict[str, Any]:
        """The finished span tree as plain JSON-serialisable data.

        The transport format for pipe replies, the slow-query log and
        ``repro-obs trace`` files.
        """
        doc: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration_s": self.duration,
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.counters:
            doc["counters"] = dict(self.counters)
        if self.dropped:
            doc["dropped"] = self.dropped
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        span = cls(str(doc.get("name", "?")), dict(doc.get("attrs", {})))
        span.start = float(doc.get("start", 0.0))
        span.end = span.start + float(doc.get("duration_s", 0.0))
        span.counters = {
            str(k): int(v) for k, v in dict(doc.get("counters", {})).items()
        }
        span.dropped = int(doc.get("dropped", 0))
        span.children = [cls.from_dict(c) for c in doc.get("children", [])]
        return span

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over the span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_counters(self) -> dict[str, int]:
        """Counters summed over the whole subtree."""
        totals: dict[str, int] = {}
        for span in self.walk():
            for name, value in span.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1000:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """The shared no-op span returned when tracing is off.

    Supports the same surface as :class:`Span` so call sites never
    branch; every method is a no-op and ``with`` costs two calls.
    """

    __slots__ = ()

    name = ""
    attrs: dict[str, Any] = {}
    counters: dict[str, int] = {}
    children: list[Span] = []
    start = 0.0
    end = 0.0
    dropped = 0
    duration = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "Span(<off>)"


#: The shared disabled span — identity-comparable (``span is NULL_SPAN``).
NULL_SPAN = _NullSpan()


class Tracer:
    """Produces and stacks spans; one global instance serves the process.

    Thread-safe by construction: each thread has its own span stack,
    so concurrently served queries produce independent trees.  Only
    the sampling accumulator and the root-sink list are shared (both
    lock-guarded, both touched only at root-span boundaries).
    """

    def __init__(self, sample_rate: float | None = None) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._acc = 0.0
        self._sinks: list[Callable[[Span], None]] = []
        self.last_root: Span | None = None
        self.sample_rate = (
            _env_sample_rate() if sample_rate is None else sample_rate
        )

    # -- configuration -------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any query can currently be traced."""
        return self.sample_rate > 0.0

    def configure(self, sample_rate: float) -> None:
        """Set the root sampling rate (clamped to ``[0, 1]``)."""
        self.sample_rate = min(max(float(sample_rate), 0.0), 1.0)
        with self._lock:
            self._acc = 0.0

    def reload_env(self) -> None:
        """Re-read ``REPRO_TRACE_SAMPLE`` (tests flip it mid-process)."""
        self.configure(_env_sample_rate())

    def add_root_sink(self, sink: Callable[[Span], None]) -> None:
        """Register a callback invoked with every finished root span."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    # -- span production -----------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack: list[Span] = []
            self._local.stack = stack
            return stack

    def _admit_root(self) -> bool:
        rate = self.sample_rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        with self._lock:
            self._acc += rate
            if self._acc >= 1.0:
                self._acc -= 1.0
                return True
        return False

    def span(self, name: str, **attrs: Any) -> "Span | _NullSpan":
        """Open a span (use as a context manager).

        With an active parent on this thread the span always becomes
        its child; with no parent it is a *root* candidate and the
        sampling decision applies.  Returns :data:`NULL_SPAN` when not
        admitted — callers never branch.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if len(parent.children) >= MAX_CHILDREN:
                parent.dropped += 1
                return NULL_SPAN
            child = Span(name, attrs or None, tracer=self)
            parent.children.append(child)
            return child
        if not self._admit_root():
            return NULL_SPAN
        return Span(name, attrs or None, tracer=self, root=True)

    def detached(self, name: str, **attrs: Any) -> Span:
        """A forced root span that bypasses sampling and sinks.

        Worker processes use this when the parent has already made the
        sampling decision: the worker traces unconditionally, ships
        :meth:`Span.to_dict` back, and the parent :meth:`graft`\\ s it.
        """
        return Span(name, attrs or None, tracer=self, root=False)

    def count(self, name: str, n: int = 1) -> None:
        """Tick an aggregate counter on the innermost open span.

        The hot-path primitive: when no span is open (tracing off or
        unsampled query) this is two attribute lookups and a return.
        """
        try:
            stack = self._local.stack
        except AttributeError:
            return
        if not stack:
            return
        counters = stack[-1].counters
        counters[name] = counters.get(name, 0) + n

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def tracing(self) -> bool:
        """Whether a span is open on this thread right now.

        Dispatch layers use this to decide whether to ask workers for
        their span trees (the cross-process sampling decision).
        """
        try:
            return bool(self._local.stack)
        except AttributeError:
            return False

    def reset_thread(self) -> None:
        """Clear this thread's span stack.

        Fork children inherit the forking thread's stack copy-on-write;
        a worker calls this before opening its detached root so stale
        parent spans can neither receive its counters nor leak into
        its tree.
        """
        self._local.stack = []

    def graft(self, payload: dict[str, Any] | None) -> None:
        """Attach a worker's serialised span tree to the open span."""
        if not payload:
            return
        stack = self._stack()
        if not stack:
            return
        parent = stack[-1]
        if len(parent.children) >= MAX_CHILDREN:
            parent.dropped += 1
            return
        parent.children.append(Span.from_dict(payload))

    # -- root bookkeeping ----------------------------------------------

    def _finish_root(self, span: Span) -> None:
        self.last_root = span
        for sink in self._sinks:
            sink(span)


#: The process-wide tracer every instrumented layer imports.
TRACER = Tracer()
