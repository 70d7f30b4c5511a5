"""Local visibility graphs (paper Secs. 2.3 and 4).

The obstructed distance between two points equals the shortest path in
the *visibility graph* over the obstacle vertices plus the two points
[LW79].  The paper builds **local** graphs on-line from only the
obstacles relevant to a query, and maintains them dynamically with
``add_obstacle`` / ``add_entity`` / ``delete_entity``.

Every graph is the *tangent* visibility graph [PV95]
(:mod:`repro.visibility.tangent`): node pairs that break the tangent
rule are dropped first, and one exact predicate,
``Polygon.crosses_interior``, decides which of the rest see each
other — and which nodes an off-graph point sees, pair by pair.  The
paper builds each graph with the rotational plane sweep of Sharir &
Schorr [SS84]; here no pair needs a sweep's event order.  The
predicate runs over arrays (:mod:`repro.visibility.kernel`, the
``numpy-kernel`` backend) or one pair at a time
(:mod:`repro.visibility.naive`, the ``naive`` backend: the reference
oracle of the property-based tests).
"""

from repro.visibility.graph import VisibilityGraph
from repro.visibility.kernel.backend import available_backends, resolve_backend
from repro.visibility.naive import is_visible, naive_visible_from

__all__ = [
    "VisibilityGraph",
    "available_backends",
    "is_visible",
    "naive_visible_from",
    "resolve_backend",
]
