"""Numerical constants of the geometry layer.

The predicates themselves are exact (:func:`repro.geometry.segment.
orient`) and take no tolerance; :data:`EPS` is input validation only.
"""

from __future__ import annotations

#: The least area a polygon must enclose (twice the signed area, in
#: :class:`~repro.geometry.polygon.Polygon`'s zero-area check).
EPS = 1e-9
