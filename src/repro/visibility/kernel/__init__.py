"""Vectorized visibility kernel.

The rotational plane sweep costs one ``O(n log n)`` pass per
visibility-graph node, and its per-event work is dominated by python
object arithmetic (``Point`` allocation, ``ccw`` calls, open-edge
bookkeeping).  This package replaces that inner loop — and, on small
scenes, the loop over sweep centers around it — with batched numpy
array kernels:

* :class:`~repro.visibility.kernel.packed.PackedScene` — a graph's
  boundary edges (endpoints as node ids) and per-obstacle MBRs and
  edge runs in contiguous arrays, over the graph's node table as the
  sweep's events, built once per graph and kept in step as obstacles
  and nodes come and go;
* :mod:`~repro.visibility.kernel.numpy_sweep` — the vectorized sweep,
  many sources of many scenes per call: one ``arctan2`` pass for every
  (source, event of its scene) angle, a numpy angular sort, and batched
  orientation/intersection classification of candidate blocking
  edges, with the exact predicate deciding only the degenerate
  residue so results match the python sweep everywhere;
* :mod:`~repro.visibility.kernel.exact` — that predicate
  (``Polygon.crosses_interior``) evaluated over arrays: orientation
  signs first, the scalar filter's own float64 expressions in the same
  order, and the tolerance method only for the contact band: one call behind
  the sweep's residue and boundary band, ``add_obstacles``' edge
  removal and ``remove_obstacle``'s re-sweep;
* :mod:`~repro.visibility.kernel.backend` — the pluggable
  :class:`~repro.visibility.kernel.backend.VisibilityBackend` protocol
  and the named implementations (``python-sweep``, ``numpy-kernel``,
  ``naive``), selected by name.
"""

from repro.visibility.kernel.backend import (
    NaiveBackend,
    NumpyKernelBackend,
    PythonSweepBackend,
    VisibilityBackend,
    available_backends,
    resolve_backend,
)
from repro.visibility.kernel.packed import PackedScene

__all__ = [
    "NaiveBackend",
    "NumpyKernelBackend",
    "PackedScene",
    "PythonSweepBackend",
    "VisibilityBackend",
    "available_backends",
    "resolve_backend",
]
