"""The visibility deciders, selected by name.

A backend answers two questions for a
:class:`~repro.visibility.graph.VisibilityGraph`, both pair by pair.
"Which of these node pairs see each other" builds and maintains the
graph: ``connect_pairs`` for a connect's pending nodes (of any number
of graphs in one call), ``visible_pairs`` for the pairs an insert or a
delete decides again.  "Which nodes does ``p`` see" gives an off-graph
point (or a query endpoint on an obstacle vertex) its last-leg
anchors: ``visible_ids``, every pair ``(p, v)`` for every node ``v``
of its graph, and the ``visible_from*`` conveniences that map the ids
back to points.  Two named implementations exist:

``numpy-kernel``
    The exact predicate over arrays
    (:func:`repro.visibility.kernel.exact.hidden_many`), all the pairs
    of a call — of all its graphs — together.  The default.
``naive``
    The exact predicate one pair at a time (:func:`repro.visibility.
    naive.is_visible`) — slow; the test oracle, which never touches
    the arrays.

Both decide every pair with ``Polygon.crosses_interior``, so they
return the same verdicts, ids in id order and distances
(``Point.distance``) bit for bit.

Selection: pass a name to :class:`~repro.visibility.graph.
VisibilityGraph`, :class:`~repro.runtime.context.QueryContext` or
:class:`~repro.core.engine.ObstacleDatabase`; ``None`` is
``numpy-kernel``.  A backend carries an optional
:class:`~repro.runtime.stats.RuntimeStats` reference and ticks the
anchor counters (``sweeps_run``, ``sweep_events``, ``sweep_seconds``)
there, once per source.
"""

from __future__ import annotations

import time
from typing import Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.obs.trace import TRACER
from repro.visibility.kernel import exact
from repro.visibility.naive import is_visible

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model import Obstacle
    from repro.runtime.stats import RuntimeStats
    from repro.visibility.graph import VisibilityGraph

    #: One backend call's work: per graph, the sources to anchor on it.
    Scenes = Sequence[tuple[Sequence[Point], VisibilityGraph]]
    #: What one source sees: node ids and their distances from it.
    Sight = tuple[list[int], list[float]]
    from repro.visibility.tangent import Pairs

    #: Per graph, the node pairs to decide on it.
    PairScenes = Sequence[tuple[Pairs, VisibilityGraph]]


class Backend:
    """What both deciders share: the stats plumbing behind
    :meth:`visible_ids`, and the point-valued conveniences over it."""

    name = "?"

    def __init__(self, stats: "RuntimeStats | None" = None) -> None:
        self.stats = stats

    def visible_from(self, p: Point, graph: "VisibilityGraph") -> list[Point]:
        """All graph nodes visible from ``p``, in id order."""
        return self.visible_from_scenes([((p,), graph)])[0][0]

    def visible_from_many(
        self, sources: Sequence[Point], graph: "VisibilityGraph"
    ) -> list[list[Point]]:
        """Per source, what :meth:`visible_from` returns for it."""
        return self.visible_from_scenes([(sources, graph)])[0]

    def visible_from_scenes(self, scenes: "Scenes") -> list[list[list[Point]]]:
        """Per scene ``(sources, graph)``, what :meth:`visible_from_many`
        returns for it — one call for many graphs."""
        return [
            [list(map(graph._points.__getitem__, ids)) for ids, __ in seen]
            for (__, graph), seen in zip(scenes, self.visible_ids(scenes))
        ]

    def visible_ids(self, scenes: "Scenes") -> "list[list[Sight]]":
        """Per scene ``(sources, graph)``, per source, the ids of the
        graph's nodes it sees, in id order, and their distances from it:
        every anchor comes through here, and so do the stats."""
        stats = self.stats
        sources = sum(len(sources) for sources, __ in scenes)
        TRACER.count("sweep.run", sources)
        if stats is None:
            return self._anchors(scenes)
        t0 = time.perf_counter()
        result = self._anchors(scenes)
        stats.sweep_seconds += time.perf_counter() - t0
        # A source meets every node of its graph but itself.
        events = sum(
            graph.node_count * len(sources) - sum(map(graph.has_node, sources))
            for sources, graph in scenes
        )
        stats.sweeps_run += sources
        stats.sweep_events += events
        TRACER.count("sweep.events", events)
        return result

    def _anchors(self, scenes: "Scenes") -> "list[list[Sight]]":
        raise NotImplementedError

    def visible_pairs(
        self, scenes: "PairScenes", only: "Sequence[Obstacle]" = ()
    ) -> list[np.ndarray]:
        """Per scene ``(pairs, graph)``, whether ``u[k]`` and ``v[k]``
        see each other past every obstacle of the graph (of ``only``, if
        given: obstacles of a one-graph call)."""
        raise NotImplementedError

    def connect_pairs(self, scenes: "PairScenes") -> list[np.ndarray]:
        """:meth:`visible_pairs` for a connect: per scene ``(pairs,
        graph)`` — ``pairs.u`` the graph's pending nodes, each paired
        once with every node."""
        return self.visible_pairs(scenes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NaiveBackend(Backend):
    """The exact predicate, one pair at a time: the test oracle."""

    name = "naive"

    def _anchors(self, scenes: "Scenes") -> "list[list[Sight]]":
        out = []
        for sources, graph in scenes:
            walls = graph.scene_obstacles()
            nodes = list(enumerate(graph.nodes()))
            seen = [
                [(v, w) for v, w in nodes if w != p and is_visible(p, w, walls)]
                for p in sources
            ]
            out.append(
                [
                    ([v for v, __ in pairs], [p.distance(w) for __, w in pairs])
                    for p, pairs in zip(sources, seen)
                ]
            )
        return out

    def visible_pairs(
        self, scenes: "PairScenes", only: "Sequence[Obstacle]" = ()
    ) -> list[np.ndarray]:
        """``is_visible`` for every pair of every scene, one at a time."""
        return [_each_pair(pairs, graph, only) for pairs, graph in scenes]


def _each_pair(
    pairs: "Pairs", graph: "VisibilityGraph", only: "Sequence[Obstacle]"
) -> np.ndarray:
    """``is_visible(u[k], v[k], ...)`` for every pair, as a mask."""
    at = graph._points
    walls = only or graph.scene_obstacles()
    ends = zip(pairs.u.tolist(), pairs.v.tolist())
    return np.fromiter(
        (is_visible(at[i], at[j], walls) for i, j in ends),
        dtype=bool,
        count=pairs.u.size,
    )


class NumpyKernelBackend(Backend):
    """The exact predicate over arrays, every pair of a call in one
    pass (:mod:`repro.visibility.kernel.exact`)."""

    name = "numpy-kernel"

    def _anchors(self, scenes: "Scenes") -> "list[list[Sight]]":
        return exact.kernel_visible_ids(scenes, self.stats)

    def visible_pairs(
        self, scenes: "PairScenes", only: "Sequence[Obstacle]" = ()
    ) -> list[np.ndarray]:
        """Every pair of every scene in one array pass
        (:func:`~repro.visibility.kernel.exact.kernel_visible_pairs`)."""
        return exact.kernel_visible_pairs(scenes, self.stats, only)


#: Every name a backend answers to.
_REGISTRY: dict[str, type[Backend]] = {
    NumpyKernelBackend.name: NumpyKernelBackend,
    NaiveBackend.name: NaiveBackend,
    # benchmarks/e2e/e2e_workloads.py::reference_check still names it.
    "python-sweep": NaiveBackend,
}


def available_backends() -> list[str]:
    """Canonical names of every selectable backend."""
    return sorted({cls.name for cls in _REGISTRY.values()})


def resolve_backend(
    name: "str | None" = None, *, stats: "RuntimeStats | None" = None
) -> Backend:
    """A fresh backend from its name (``None``: the numpy kernel),
    ticking ``stats``."""
    if name is None:
        name = NumpyKernelBackend.name
    cls = _REGISTRY.get(name) if isinstance(name, str) else None
    if cls is None:
        raise QueryError(
            f"unknown visibility backend {name!r} "
            f"(expected one of {available_backends()})"
        )
    return cls(stats=stats)
