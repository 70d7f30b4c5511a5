"""Distance-field engine selection (``REPRO_FIELD_ENGINE``).

Two engines produce :class:`~repro.core.distance.SourceDistanceField`
semantics:

* ``csr`` (default whenever numpy imports) — the compiled engine:
  provisional evaluation runs over the graph's frozen CSR arrays
  (:mod:`repro.visibility.csr`) with per-source distance fields cached
  across queries, and the last-leg minimisation over visible anchors
  is one vectorized numpy expression;
* ``python`` — the original dict-adjacency path, kept as the reference
  fallback.

The engines are bit-identical by construction: identical edge weights,
identical IEEE float64 arithmetic in the same order
(``Point.distance`` and the vectorized ``sqrt(dx*dx + dy*dy)`` are the
same correctly-rounded operations), the same anchor sets (the compiled
engine asks the graph's visibility backend, once per batch; the
reference runs its own :func:`~repro.visibility.sweep.visible_from`;
the backends are parity-locked), and the same
``obstacle_revision`` snapshot discipline for the provisional field —
the CSR engine pins the freeze taken at its first evaluation and
answers post-snapshot free points through the same live-adjacency
memoization the dict engine uses.
"""

from __future__ import annotations

import os
from math import inf
from typing import Callable

from repro.core.distance import ObstacleSource, SourceDistanceField
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.visibility.graph import VisibilityGraph

try:  # pragma: no cover - exercised via resolve_field_engine
    import numpy as np
except ImportError:  # pragma: no cover - numpy is baked into the image
    np = None  # type: ignore[assignment]

#: Environment variable selecting the engine: ``csr``, ``python``, or
#: ``auto``/unset (csr when numpy imports, python otherwise).
FIELD_ENGINE_ENV = "REPRO_FIELD_ENGINE"


def resolve_field_engine(name: "str | None" = None) -> str:
    """The effective engine name (``"csr"`` or ``"python"``).

    ``None`` consults :data:`FIELD_ENGINE_ENV` (read per call, so tests
    and pool workers can flip engines without rebuilding contexts).
    An explicit ``csr`` without numpy is a configuration error, not a
    silent fallback.
    """
    if name is None:
        name = os.environ.get(FIELD_ENGINE_ENV, "")
    name = name.strip().lower()
    if name in ("", "auto"):
        return "csr" if np is not None else "python"
    if name not in ("csr", "python"):
        raise QueryError(
            f"unknown field engine {name!r} (expected csr, python, or auto)"
        )
    if name == "csr" and np is None:
        raise QueryError("REPRO_FIELD_ENGINE=csr requires numpy")
    return name


class CSRSourceDistanceField(SourceDistanceField):
    """`SourceDistanceField` with provisional evaluation over frozen CSR.

    Only :meth:`_provisional` changes: the full-Dijkstra field is an
    ``np.float64`` array from the graph's shared
    :class:`~repro.visibility.csr.CSRGraph` (cached per source node, so
    warm repeat queries skip the Dijkstra entirely), node lookups are
    int indexing, and non-node candidates take a vectorized last leg
    over their visible anchors.  The enlargement loop, bound handling,
    and batching all come from the base class.

    Snapshot discipline mirrors the base class exactly: the freeze in
    use is pinned at the first evaluation and replaced only when
    ``obstacle_revision`` moves; free points admitted to the graph
    after the pin (guest admissions bump only the *structure* revision)
    are answered through their live adjacency and memoized in an
    overlay — the same values the dict engine memoizes into its field.
    """

    def __init__(
        self,
        graph: VisibilityGraph,
        source_point: Point,
        source: ObstacleSource,
        *,
        grow: Callable[[float], bool] | None = None,
        readmit: Callable[[], None] | None = None,
        stats: "object | None" = None,
    ) -> None:
        super().__init__(
            graph, source_point, source, grow=grow, readmit=readmit,
            stats=stats,
        )
        self._csr = None
        self._dist = None
        self._overlay: dict[Point, float] = {}

    def _provisional(self, p: Point) -> float:
        from repro.visibility.csr import frozen

        if p == self._q:
            return 0.0
        if not self._graph.has_node(self._q):
            if self._readmit is not None:
                self._readmit()
            else:
                self._graph.add_entity(self._q)
        revision = self._graph.obstacle_revision
        if self._dist is None or self._field_revision != revision:
            csr = frozen(self._graph, stats=self._stats)
            self._dist = csr.field(csr.index[self._q])
            self._csr = csr
            self._overlay = {}
            self._field_revision = revision
        csr = self._csr
        dist = self._dist
        idx = csr.index.get(p)
        if idx is not None:
            return float(dist[idx])
        if self._graph.has_node(p):
            # p joined the graph after the pinned freeze (free-point
            # admission: structure moved, obstacle revision did not).
            # Same live-adjacency answer as the dict engine, memoized
            # in the overlay (discarded with the pin on any revision
            # bump).
            cached = self._overlay.get(p)
            if cached is not None:
                return cached
            best = inf
            for v, w in self._graph.neighbors(p).items():
                vi = csr.index.get(v)
                dv = self._overlay.get(v) if vi is None else float(dist[vi])
                if dv is not None and dv + w < best:
                    best = dv + w
            self._overlay[p] = best
            return best
        best = inf
        ai, euc, extras = csr.anchors_for(p, self._graph, self._ahead)
        if len(ai):
            legs = dist[ai] + euc
            best = float(legs.min())
        if extras is not None:
            for v in extras:
                dv = self._overlay.get(v)
                if dv is not None:
                    candidate = dv + v.distance(p)
                    if candidate < best:
                        best = candidate
        return best


def make_distance_field(
    graph: VisibilityGraph,
    source_point: Point,
    source: ObstacleSource,
    *,
    grow: Callable[[float], bool] | None = None,
    readmit: Callable[[], None] | None = None,
    stats: "object | None" = None,
    engine: "str | None" = None,
) -> SourceDistanceField:
    """A distance field using the resolved engine.

    The runtime's :meth:`~repro.runtime.context.QueryContext.field_for`
    routes every field through here; ``engine=None`` re-reads the
    environment so a worker inheriting ``REPRO_FIELD_ENGINE`` honours
    it without any plumbing.
    """
    if resolve_field_engine(engine) == "csr":
        return CSRSourceDistanceField(
            graph, source_point, source, grow=grow, readmit=readmit,
            stats=stats,
        )
    return SourceDistanceField(
        graph, source_point, source, grow=grow, readmit=readmit, stats=stats
    )
