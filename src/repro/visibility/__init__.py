"""Local visibility graphs (paper Secs. 2.3 and 4).

The obstructed distance between two points equals the shortest path in
the *visibility graph* over the obstacle vertices plus the two points
[LW79].  The paper builds **local** graphs on-line from only the
obstacles relevant to a query, and maintains them dynamically with
``add_obstacle`` / ``add_entity`` / ``delete_entity``.

Every graph is the *tangent* visibility graph [PV95]
(:mod:`repro.visibility.tangent`): node pairs that break the tangent
rule are dropped first, and a pluggable
:class:`~repro.visibility.kernel.backend.VisibilityBackend` decides
which of the rest see each other — the exact predicate over arrays
(:mod:`repro.visibility.kernel`, whose vectorized sweep also anchors
off-graph points), the pure-python sweep of Sharir & Schorr [SS84]
(:mod:`repro.visibility.sweep`), or a naive exact checker
(:mod:`repro.visibility.naive`) that doubles as the reference oracle
for the property-based tests and as the fallback for degenerate
contact cases.
"""

from repro.visibility.edges import BoundaryEdge, OpenEdges
from repro.visibility.graph import VisibilityGraph
from repro.visibility.kernel.backend import (
    VisibilityBackend,
    available_backends,
    resolve_backend,
)
from repro.visibility.naive import is_visible, naive_visible_from
from repro.visibility.ordering import event_angle, event_sort_key, sort_events
from repro.visibility.sweep import visible_from

__all__ = [
    "BoundaryEdge",
    "OpenEdges",
    "VisibilityBackend",
    "VisibilityGraph",
    "available_backends",
    "event_angle",
    "event_sort_key",
    "is_visible",
    "naive_visible_from",
    "resolve_backend",
    "sort_events",
    "visible_from",
]
