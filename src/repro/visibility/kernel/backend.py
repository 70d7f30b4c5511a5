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

Every entry goes through one, ``visible_ids``: per scene, per source,
the *ids* of the graph's nodes it sees and their distances from it —
what the graph installs and the frozen CSR memoizes.  The numpy kernel
reports ids itself, the reference backends' points become ids in one
place, and ``visible_from*`` map the ids back to points.
Backends carry an optional :class:`~repro.runtime.stats.RuntimeStats`
reference and tick the per-backend sweep counters (``sweeps_run``,
``sweep_events``, ``sweep_seconds``) there, once per source; the numpy
kernel adds ``sweep_passes``, once per array pass.

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
    #: What one source sees: node ids and their distances from it.
    Sight = tuple[list[int], list[float]]


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

    def edges_crossing(
        self, graph: "VisibilityGraph", polygons: Sequence[Polygon]
    ) -> list[tuple[int, int]]:
        """The edges of ``graph`` whose open segment crosses the
        interior of one of ``polygons``, as :meth:`~repro.visibility.
        graph.VisibilityGraph.edge_ids` names them."""
        # crosses_interior's own first step (Rect.intersects on the
        # segment's box) made here without the Rect: most edges of a
        # graph pass nowhere near a new obstacle.
        boxes = [
            (poly, poly.mbr.minx, poly.mbr.miny, poly.mbr.maxx, poly.mbr.maxy)
            for poly in polygons
        ]
        points = graph._points
        found = []
        for i, j in graph.edge_ids():
            u, v = points[i], points[j]
            if any(
                minx <= max(u.x, v.x)
                and min(u.x, v.x) <= maxx
                and miny <= max(u.y, v.y)
                and min(u.y, v.y) <= maxy
                and poly.crosses_interior(u, v)
                for poly, minx, miny, maxx, maxy in boxes
            ):
                found.append((i, j))
        return found

    def unblocked_pairs(
        self, graph: "VisibilityGraph", region: Rect
    ) -> list[tuple[int, int]]:
        """The non-adjacent node pairs ``(u, w)``, ids with ``u < w``,
        whose segment's bounding box meets ``region`` and that see each
        other."""
        points = graph._points
        obstacles = graph.scene_obstacles()
        rminx, rminy = region.minx, region.miny
        rmaxx, rmaxy = region.maxx, region.maxy
        found = []
        for i, (u, row) in enumerate(zip(points, graph._rows)):
            ux, uy = u.x, u.y
            for j in range(i + 1, len(points)):
                if j in row:
                    continue
                w = points[j]
                wx, wy = w.x, w.y
                if (
                    (ux < rminx and wx < rminx)
                    or (ux > rmaxx and wx > rmaxx)
                    or (uy < rminy and wy < rminy)
                    or (uy > rmaxy and wy > rmaxy)
                ):
                    continue
                if is_visible(u, w, obstacles):
                    found.append((i, j))
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

    def _sweep_scenes(self, scenes: "Scenes") -> "list[list[Sight]]":
        return self._kernel(scenes, self.stats)

    def edges_crossing(
        self, graph: "VisibilityGraph", polygons: Sequence[Polygon]
    ) -> list[tuple[int, int]]:
        """One :func:`~repro.visibility.kernel.exact.edges_crossing`
        call; the inherited loop on graphs too small for one to pay."""
        found = exact.edges_crossing(
            graph._points, graph._rows, polygons, self.stats
        )
        return super().edges_crossing(graph, polygons) if found is None else found

    def unblocked_pairs(
        self, graph: "VisibilityGraph", region: Rect
    ) -> list[tuple[int, int]]:
        """One :func:`~repro.visibility.kernel.exact.unblocked_pairs`
        call; the inherited loop on graphs too small for one to pay."""
        found = exact.unblocked_pairs(
            graph._points, graph._rows, region, graph.packed_scene(), self.stats
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

    def _seen(self, scenes: "Scenes") -> list[list[list[Point]]]:
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
