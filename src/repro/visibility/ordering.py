"""The canonical sweep-event ordering, defined exactly once.

Every visibility backend processes (or at least reports) events in the
same order: ascending polar angle around the sweep center, ties broken
by ascending squared distance.  Both the pure-python rotational sweep
(:mod:`repro.visibility.sweep`) and the vectorized kernel
(:mod:`repro.visibility.kernel.numpy_sweep`) obtain their ordering from
this module, so the tie-break rule cannot silently diverge between
backends.
"""

from __future__ import annotations

import math
from typing import Iterable, TYPE_CHECKING

from repro.geometry.point import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy


def event_angle(p: Point, w: Point) -> float:
    """Polar angle of ``w`` around ``p`` in ``[0, 2*pi)``."""
    a = math.atan2(w.y - p.y, w.x - p.x)
    if a < 0.0:
        a += 2.0 * math.pi
    return a


def event_sort_key(p: Point, w: Point) -> tuple[float, float]:
    """The canonical per-event sort key: ``(angle, squared distance)``."""
    return (event_angle(p, w), p.distance_sq(w))


def sort_events(p: Point, events: Iterable[Point]) -> list[Point]:
    """Events ordered for a sweep around ``p`` (angle, then distance)."""
    return sorted(events, key=lambda w: event_sort_key(p, w))


def order_events_array(
    angles: "numpy.ndarray",
    dist_sq: "numpy.ndarray",
    first: "numpy.ndarray",
    blocks: "Iterable[int]",
) -> "numpy.ndarray":
    """Indices ordering batched events under the same key as
    :func:`event_sort_key`: primary key ``angles``, secondary ``dist_sq``.
    The events of many sweep centers arrive laid end to end, center
    ``s``'s from ``first[s]``, and are ordered center by center: every
    center's indices stay in its own slots.  ``blocks`` cuts the centers
    into runs of equally many events each, sorted as one 2-d array.
    """
    import numpy as np

    parts = []
    row = lo = 0
    for rows in blocks:
        last = row + rows
        hi = first[last] if last < first.shape[0] else angles.shape[0]
        shape = (rows, -1)
        part = np.lexsort((dist_sq[lo:hi].reshape(shape), angles[lo:hi].reshape(shape)))
        part += first[row:last, None]
        parts.append(part.ravel())
        row, lo = last, hi
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
