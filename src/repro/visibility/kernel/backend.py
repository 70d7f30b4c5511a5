"""Pluggable visibility backends.

A backend answers one question — "which scene points does ``p`` see" —
for a :class:`~repro.visibility.graph.VisibilityGraph`, for one source
(``visible_from``) or for many in one call (``visible_from_many``: a
graph build, the new vertices of a growth step, the off-graph
candidates of a distance-field batch); the named ones also for many
graphs in one call (``visible_from_scenes``: the graphs of a distance
join's seeds, then their candidates' anchors).  Three named
implementations exist:

``python-sweep``
    The paper's rotational plane sweep [SS84]
    (:mod:`repro.visibility.sweep`), pure python.  Alias: ``sweep``.
``numpy-kernel``
    The vectorized kernel (:mod:`repro.visibility.kernel.numpy_sweep`)
    over a :class:`~repro.visibility.kernel.packed.PackedScene`, which
    sweeps all sources of a call — of all its graphs — in shared array
    passes; returns sets identical to ``python-sweep``.
``naive``
    The exact pairwise oracle (:mod:`repro.visibility.naive`) — slow,
    but valid even for overlapping obstacles; the testing reference.

Selection: pass a name (or a backend instance) to
:class:`~repro.visibility.graph.VisibilityGraph`,
:class:`~repro.runtime.context.QueryContext` or
:class:`~repro.core.engine.ObstacleDatabase`; ``None`` is
``numpy-kernel``.

Backends carry an optional :class:`~repro.runtime.stats.RuntimeStats`
reference and tick the per-backend sweep counters (``sweeps_run``,
``sweep_events``, ``sweep_seconds``) on every call, once per source,
in one place (``visible_from_scenes``, which the other two entries go
through); the numpy kernel adds ``sweep_passes``, once per array pass.

The named backends also answer the two exact-predicate batches of
graph maintenance — which edges a new polygon cuts
(``edges_crossing``), which node pairs a removed one had been hiding
(``unblocked_pairs``).  The shared default loops the scalar oracle;
``numpy-kernel`` hands each batch to
:mod:`repro.visibility.kernel.exact` in one call, so ``python-sweep``
and ``naive`` graphs stay a reference that never touches the arrays.
"""

from __future__ import annotations

import time
from typing import Protocol, Sequence, TYPE_CHECKING, runtime_checkable

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.obs.trace import TRACER
from repro.visibility.kernel import exact
from repro.visibility.naive import is_visible

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.graph import VisibilityGraph

    #: One backend call's work: per graph, the sources to sweep on it.
    Scenes = Sequence[tuple[Sequence[Point], VisibilityGraph]]


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

    def _sweep_scenes(self, scenes: "Scenes") -> list[list[list[Point]]]:
        return [[self._sweep(p, graph) for p in sources] for sources, graph in scenes]

    def _sweep(self, p: Point, graph: "VisibilityGraph") -> list[Point]:
        raise NotImplementedError

    def edges_crossing(
        self, graph: "VisibilityGraph", polygons: Sequence[Polygon]
    ) -> list[tuple[Point, Point]]:
        """The edges ``(u, v)``, ``u < v``, of ``graph`` whose open
        segment crosses the interior of one of ``polygons``."""
        # crosses_interior's own first step (Rect.intersects on the
        # segment's box) made here without the Rect: most edges of a
        # graph pass nowhere near a new obstacle.
        boxes = [
            (poly, poly.mbr.minx, poly.mbr.miny, poly.mbr.maxx, poly.mbr.maxy)
            for poly in polygons
        ]
        found = []
        for u in graph.nodes():
            ux, uy = u.x, u.y
            for v in graph.neighbors(u):
                vx, vy = v.x, v.y
                if (ux, uy) < (vx, vy) and any(
                    minx <= max(ux, vx)
                    and min(ux, vx) <= maxx
                    and miny <= max(uy, vy)
                    and min(uy, vy) <= maxy
                    and poly.crosses_interior(u, v)
                    for poly, minx, miny, maxx, maxy in boxes
                ):
                    found.append((u, v))
        return found

    def unblocked_pairs(
        self, graph: "VisibilityGraph", region: Rect
    ) -> list[tuple[Point, Point]]:
        """The non-adjacent node pairs ``(u, w)``, ``u`` the earlier
        node, whose segment's bounding box meets ``region`` and that
        see each other."""
        nodes = list(graph.nodes())
        obstacles = graph.scene_obstacles()
        rminx, rminy = region.minx, region.miny
        rmaxx, rmaxy = region.maxx, region.maxy
        found = []
        for i, u in enumerate(nodes):
            adj_u = graph.neighbors(u)
            ux, uy = u.x, u.y
            for w in nodes[i + 1:]:
                if w in adj_u:
                    continue
                wx, wy = w.x, w.y
                if (
                    (ux < rminx and wx < rminx)
                    or (ux > rmaxx and wx > rmaxx)
                    or (uy < rminy and wy < rminy)
                    or (uy > rmaxy and wy > rmaxy)
                ):
                    continue
                if is_visible(u, w, obstacles):
                    found.append((u, w))
        return found

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PythonSweepBackend(_TimedBackend):
    """The pure-python rotational plane sweep."""

    name = "python-sweep"

    def _sweep(self, p: Point, graph: "VisibilityGraph") -> list[Point]:
        from repro.visibility.sweep import visible_from

        return visible_from(p, graph)


class NumpyKernelBackend(_TimedBackend):
    """The vectorized numpy sweep over a packed scene."""

    name = "numpy-kernel"

    def __init__(self, stats: "RuntimeStats | None" = None) -> None:
        super().__init__(stats)
        from repro.visibility.kernel import numpy_sweep

        self._kernel = numpy_sweep.kernel_visible_from_scenes

    def _sweep_scenes(self, scenes: "Scenes") -> list[list[list[Point]]]:
        return self._kernel(scenes, self.stats)

    def edges_crossing(
        self, graph: "VisibilityGraph", polygons: Sequence[Polygon]
    ) -> list[tuple[Point, Point]]:
        """One :func:`~repro.visibility.kernel.exact.edges_crossing`
        call; the inherited loop on graphs too small for one to pay."""
        found = exact.edges_crossing(graph._adj, polygons, self.stats)
        return super().edges_crossing(graph, polygons) if found is None else found

    def unblocked_pairs(
        self, graph: "VisibilityGraph", region: Rect
    ) -> list[tuple[Point, Point]]:
        """One :func:`~repro.visibility.kernel.exact.unblocked_pairs`
        call; the inherited loop on graphs too small for one to pay."""
        found = exact.unblocked_pairs(
            graph._adj, region, graph.packed_scene(), self.stats
        )
        return super().unblocked_pairs(graph, region) if found is None else found


class NaiveBackend(_TimedBackend):
    """The exact pairwise oracle over every node pair."""

    name = "naive"

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

    def _sweep_scenes(self, scenes: "Scenes") -> list[list[list[Point]]]:
        inner = self._inner
        entry = getattr(inner, "visible_from_scenes", None)
        if entry is not None:
            return entry(scenes)
        return [inner.visible_from_many(sources, graph) for sources, graph in scenes]


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
