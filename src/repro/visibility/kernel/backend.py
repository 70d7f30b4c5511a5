"""Pluggable visibility backends.

A backend answers two questions for a
:class:`~repro.visibility.graph.VisibilityGraph`.  "Which of these node
pairs see each other" builds and maintains the graph: ``connect_pairs``
for a connect's pending nodes (of any number of graphs in one call),
``visible_pairs`` for the pairs an insert or a delete decides again.
"Which nodes does ``p`` see" gives an off-graph point (or a query
endpoint on an obstacle vertex) its last-leg anchors: ``visible_from``,
``visible_from_many`` (a distance-field batch's candidates),
``visible_from_scenes`` (a distance join's).  Three named
implementations exist:

``python-sweep``
    The paper's rotational plane sweep [SS84]
    (:mod:`repro.visibility.sweep`), pure python: a connect sweeps its
    pending nodes and keeps the pairs their sweeps see.  Alias:
    ``sweep``.
``numpy-kernel``
    Pairs are decided by the exact predicate over arrays
    (:func:`repro.visibility.kernel.exact.hidden_many`), all of a call
    together; points are swept by the vectorized kernel
    (:mod:`repro.visibility.kernel.numpy_sweep`) over a
    :class:`~repro.visibility.kernel.packed.PackedScene`, all sources
    of a call in shared array passes.
``naive``
    The exact pairwise oracle (:mod:`repro.visibility.naive`), one
    pair at a time — slow; the testing reference.

Selection: pass a name (or a backend instance) to
:class:`~repro.visibility.graph.VisibilityGraph`,
:class:`~repro.runtime.context.QueryContext` or
:class:`~repro.core.engine.ObstacleDatabase`; ``None`` is
``numpy-kernel``.

Every sweep goes through one entry, ``visible_ids``: per scene, per
source, the *ids* of the graph's nodes it sees and their distances from
it — what the frozen CSR memoizes.  The numpy kernel
reports ids itself, the reference backends' points become ids in one
place, and ``visible_from*`` map the ids back to points.
Backends carry an optional :class:`~repro.runtime.stats.RuntimeStats`
reference and tick the per-backend sweep counters (``sweeps_run``,
``sweep_events``, ``sweep_seconds``) there, once per source; the numpy
kernel adds ``sweep_passes``, once per array pass.

The shared pair decision loops the scalar oracle, so ``python-sweep``
and ``naive`` graphs stay a reference that never touches the arrays;
``numpy-kernel`` hands each batch to
:mod:`repro.visibility.kernel.exact` in one call.
"""

from __future__ import annotations

import time
from typing import Protocol, Sequence, TYPE_CHECKING, runtime_checkable

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.obs.trace import TRACER
from repro.visibility.naive import is_visible

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model import Obstacle
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.graph import VisibilityGraph

    #: One backend call's work: per graph, the sources to sweep on it.
    Scenes = Sequence[tuple[Sequence[Point], VisibilityGraph]]
    #: What one source sees: node ids and their distances from it.
    Sight = tuple[list[int], list[float]]
    from repro.visibility.tangent import Pairs

    #: Per graph, the node pairs to decide on it.
    PairScenes = Sequence[tuple[Pairs, VisibilityGraph]]


@runtime_checkable
class VisibilityBackend(Protocol):
    """What the visibility graph needs from a sweep implementation."""

    name: str

    def visible_from(
        self, p: Point, graph: "VisibilityGraph"
    ) -> list[Point]:
        """All graph nodes visible from ``p``."""

    def visible_from_many(
        self, sources: Sequence[Point], graph: "VisibilityGraph"
    ) -> list[list[Point]]:
        """Per source, what :meth:`visible_from` returns for it."""


class _TimedBackend:
    """Shared stats plumbing: every sweep ticks the runtime counters."""

    name = "?"

    def __init__(self, stats: "RuntimeStats | None" = None) -> None:
        self.stats = stats

    def visible_from(
        self, p: Point, graph: "VisibilityGraph"
    ) -> list[Point]:
        return self.visible_from_scenes([((p,), graph)])[0][0]

    def visible_from_many(
        self, sources: Sequence[Point], graph: "VisibilityGraph"
    ) -> list[list[Point]]:
        return self.visible_from_scenes([(sources, graph)])[0]

    def visible_from_scenes(self, scenes: "Scenes") -> list[list[list[Point]]]:
        """Per scene ``(sources, graph)``, what :meth:`visible_from_many`
        returns for it — one call for many graphs' sweeps."""
        return [
            [list(map(graph._points.__getitem__, ids)) for ids, __ in seen]
            for (__, graph), seen in zip(scenes, self.visible_ids(scenes))
        ]

    def visible_ids(self, scenes: "Scenes") -> "list[list[Sight]]":
        """Per scene ``(sources, graph)``, per source, the ids of the
        graph's nodes it sees and their distances from it: every sweep
        entry comes through here, and so do the stats."""
        stats = self.stats
        sweeps = sum(len(sources) for sources, __ in scenes)
        TRACER.count("sweep.run", sweeps)
        if stats is None:
            return self._sweep_scenes(scenes)
        t0 = time.perf_counter()
        result = self._sweep_scenes(scenes)
        stats.sweep_seconds += time.perf_counter() - t0
        # A source meets every node of its graph but itself.
        events = sum(
            graph.node_count * len(sources) - sum(map(graph.has_node, sources))
            for sources, graph in scenes
        )
        stats.sweeps_run += sweeps
        stats.sweep_events += events
        TRACER.count("sweep.events", events)
        return result

    def _sweep_scenes(self, scenes: "Scenes") -> "list[list[Sight]]":
        # A reference sweep's points: the one place they become node
        # ids, each weighed from its source by ``Point.distance``.
        return [
            [
                ([graph._ids[w] for w in seen], [p.distance(w) for w in seen])
                for p, seen in zip(sources, per_source)
            ]
            for (sources, graph), per_source in zip(scenes, self._seen(scenes))
        ]

    def _seen(self, scenes: "Scenes") -> list[list[list[Point]]]:
        return [[self._sweep(p, graph) for p in sources] for sources, graph in scenes]

    def _sweep(self, p: Point, graph: "VisibilityGraph") -> list[Point]:
        raise NotImplementedError

    def connect_pairs(self, scenes: "PairScenes") -> list[np.ndarray]:
        """Per scene ``(pairs, graph)`` — ``pairs.u`` the graph's
        pending nodes, each paired once with every node — whether
        ``v[k]`` is in what ``u[k]``'s sweep sees: one
        :meth:`visible_ids` call sweeps every pending node that pairs."""
        sources = [list(dict.fromkeys(pairs.u.tolist())) for pairs, __ in scenes]
        seen = self.visible_ids(
            [
                (list(map(graph._points.__getitem__, ids)), graph)
                for ids, (__, graph) in zip(sources, scenes)
            ]
        )
        out = []
        for ids, sights, (pairs, __) in zip(sources, seen, scenes):
            sees = {(i, j) for i, (nodes, __) in zip(ids, sights) for j in nodes}
            out.append(_mask(pairs, lambda i, j: (i, j) in sees))
        return out

    def visible_pairs(
        self, scenes: "PairScenes", only: "Sequence[Obstacle]" = ()
    ) -> list[np.ndarray]:
        """Per scene ``(pairs, graph)``, whether ``u[k]`` and ``v[k]``
        see each other past every obstacle of the graph (of ``only``, if
        given: obstacles of a one-graph call) — the exact oracle, pair by
        pair."""
        return [
            _mask(
                pairs,
                lambda i, j, at=graph._points, walls=only or graph.scene_obstacles(): (
                    is_visible(at[i], at[j], walls)
                ),
            )
            for pairs, graph in scenes
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PythonSweepBackend(_TimedBackend):
    """The pure-python rotational plane sweep."""

    name = "python-sweep"

    def _sweep(self, p: Point, graph: "VisibilityGraph") -> list[Point]:
        from repro.visibility.sweep import visible_from

        return visible_from(p, graph)


class NumpyKernelBackend(_TimedBackend):
    """Node pairs decided by the exact predicate over arrays, off-graph
    points swept by the vectorized kernel over a packed scene."""

    name = "numpy-kernel"

    def __init__(self, stats: "RuntimeStats | None" = None) -> None:
        super().__init__(stats)
        from repro.visibility.kernel import numpy_sweep

        self._kernel = numpy_sweep.kernel_visible_from_scenes
        self._pairs = numpy_sweep.kernel_visible_pairs

    def _sweep_scenes(self, scenes: "Scenes") -> "list[list[Sight]]":
        return self._kernel(scenes, self.stats)

    def visible_pairs(
        self, scenes: "PairScenes", only: "Sequence[Obstacle]" = ()
    ) -> list[np.ndarray]:
        """The exact predicate over arrays, for every pair of every
        scene in one call (:func:`~repro.visibility.kernel.numpy_sweep.
        kernel_visible_pairs`)."""
        return self._pairs(scenes, self.stats, only)

    connect_pairs = visible_pairs


class NaiveBackend(_TimedBackend):
    """The exact pairwise oracle over every node pair."""

    name = "naive"

    connect_pairs = _TimedBackend.visible_pairs

    def _sweep(self, p: Point, graph: "VisibilityGraph") -> list[Point]:
        from repro.visibility.naive import naive_visible_from

        targets = [v for v in graph.nodes() if v != p]
        return naive_visible_from(p, targets, graph.scene_obstacles())


class _StatsAdapter(_TimedBackend):
    """Ticks one stats object around a stats-less backend instance.

    Used when a caller-owned backend (possibly shared across several
    contexts/databases) is resolved with a stats reference: the shared
    instance is left untouched, and each resolution gets its own
    counter plumbing.  With no stats it only lends a backend that
    sweeps what every named one inherits (a standalone graph's case).
    """

    def __init__(
        self, inner: VisibilityBackend, stats: "RuntimeStats | None"
    ) -> None:
        super().__init__(stats)
        self._inner = inner
        self.name = inner.name

    def _seen(self, scenes: "Scenes") -> list[list[list[Point]]]:
        inner = self._inner
        entry = getattr(inner, "visible_from_scenes", None)
        if entry is not None:
            return entry(scenes)
        return [inner.visible_from_many(sources, graph) for sources, graph in scenes]


def _mask(pairs: "Pairs", test) -> np.ndarray:
    """``test(u[k], v[k])`` for every pair, as a mask."""
    return np.fromiter(
        map(test, pairs.u.tolist(), pairs.v.tolist()), dtype=bool, count=pairs.u.size
    )


_REGISTRY: dict[str, type[_TimedBackend]] = {
    PythonSweepBackend.name: PythonSweepBackend,
    NumpyKernelBackend.name: NumpyKernelBackend,
    NaiveBackend.name: NaiveBackend,
}


def available_backends() -> list[str]:
    """Canonical names of every selectable backend."""
    return sorted(_REGISTRY)


def resolve_backend(
    spec: "str | VisibilityBackend | None" = None,
    *,
    stats: "RuntimeStats | None" = None,
) -> VisibilityBackend:
    """A backend instance from a name, an instance, or ``None`` (the
    numpy kernel)."""
    if spec is None:
        spec = NumpyKernelBackend.name
    if isinstance(spec, str):
        cls = _REGISTRY.get(spec)
        if cls is None:
            raise QueryError(
                f"unknown visibility backend {spec!r} "
                f"(expected one of {available_backends()})"
            )
        return cls(stats=stats)
    if stats is not None and getattr(spec, "stats", None) is not stats:
        return _StatsAdapter(spec, stats)
    return spec
