"""The exact visibility predicate over arrays.

A python call per (segment, obstacle) pair costs more than an array
pass over all of a call's pairs, so the ``numpy-kernel`` backend hands
every batch to numpy:

* :class:`~repro.visibility.kernel.packed.PackedScene` — a graph's
  boundary edges (endpoints as node ids), its obstacles' MBRs and the
  obstacles as the predicate reads them, over the graph's node table,
  built once per graph and kept in step as obstacles and nodes come
  and go;
* :mod:`~repro.visibility.kernel.exact` — ``Polygon.crosses_interior``
  evaluated over arrays: certified orientation signs first, the scalar
  method's own float64 expressions and certificates, and the scalar
  method itself only for the pairs they leave open.  It decides a connect's tangent
  pairs, an insert's or a delete's pairs, and every pair ``(p, v)``
  that anchors an off-graph point, each call's scenes laid end to end;
* :mod:`~repro.visibility.kernel.backend` — the two named deciders
  (``numpy-kernel``, and ``naive``: the scalar oracle), selected by
  name.
"""

from repro.visibility.kernel.backend import (
    NaiveBackend,
    NumpyKernelBackend,
    available_backends,
    resolve_backend,
)
from repro.visibility.kernel.packed import PackedScene

__all__ = [
    "NaiveBackend",
    "NumpyKernelBackend",
    "PackedScene",
    "available_backends",
    "resolve_backend",
]
