"""Planar geometry substrate for the NomLoc reproduction.

Provides the primitives (points, segments, polygons), convex decomposition
for non-convex areas of interest, halfspace intersection for exact feasible
regions, and the virtual-AP mirror construction for area-boundary
constraints.
"""

from .convex import convex_hull, decompose_convex, triangulate
from .halfspace import (
    HalfSpace,
    bisector_halfspace,
    clip_polygon,
    halfspaces_to_matrix,
    intersect_halfspaces,
)
from .mirror import boundary_halfspaces, reflect_point, virtual_aps
from .polygon import Polygon
from .primitives import (
    EPS,
    Point,
    Segment,
    cross,
    distance_point_to_segment,
    dot,
    orientation,
    segment_intersection_point,
    segments_intersect,
)

__all__ = [
    "EPS",
    "Point",
    "Segment",
    "Polygon",
    "HalfSpace",
    "cross",
    "dot",
    "orientation",
    "segments_intersect",
    "segment_intersection_point",
    "distance_point_to_segment",
    "convex_hull",
    "triangulate",
    "decompose_convex",
    "bisector_halfspace",
    "clip_polygon",
    "intersect_halfspaces",
    "halfspaces_to_matrix",
    "reflect_point",
    "virtual_aps",
    "boundary_halfspaces",
]
