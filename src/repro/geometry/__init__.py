"""Exact 2-D computational geometry substrate.

Provides the primitives every other layer builds on: points, minimum
bounding rectangles, segment predicates, simple polygons and circular
query regions.  Every predicate is exact for the float coordinates it
is given (:func:`repro.geometry.segment.orient`), so entities lying
exactly on obstacle boundaries — which the paper's workloads allow —
and obstacles sharing grid lines are decided as the definitions say.
"""

from repro.geometry.point import Point, distance, distance_sq, midpoint
from repro.geometry.rect import Rect
from repro.geometry.segment import (
    COLLINEAR,
    CCW,
    CW,
    cross,
    orient,
    on_segment,
    point_segment_distance,
    segment_intersection_params,
    segments_intersect,
    segments_properly_intersect,
)
from repro.geometry.polygon import Polygon
from repro.geometry.circle import Circle

__all__ = [
    "Point",
    "distance",
    "distance_sq",
    "midpoint",
    "Rect",
    "COLLINEAR",
    "CCW",
    "CW",
    "cross",
    "on_segment",
    "orient",
    "point_segment_distance",
    "segment_intersection_params",
    "segments_intersect",
    "segments_properly_intersect",
    "Polygon",
    "Circle",
]
