"""Halfspaces and 2-D halfspace intersection by polygon clipping.

Every proximity judgement in NomLoc is a linear inequality
``a . z <= b`` (Eq. 7 of the paper).  Because the unknown ``z`` is a 2-D
position, the feasible region of any constraint stack is a convex polygon
and can be computed *exactly* by Sutherland–Hodgman clipping — no LP solver
is needed to find its centre.  The LP machinery in :mod:`repro.optimize` is
still used for the weighted relaxation (Eq. 19) and for the analytic /
Chebyshev centres; this module provides the exact geometric ground truth the
solvers are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .polygon import Polygon
from .primitives import EPS, Point

__all__ = [
    "HalfSpace",
    "clip_polygon",
    "intersect_halfspaces",
    "bisector_halfspace",
    "halfspaces_to_matrix",
]


@dataclass(frozen=True, slots=True)
class HalfSpace:
    """The closed halfplane ``ax * x + ay * y <= b``."""

    ax: float
    ay: float
    b: float

    def __post_init__(self) -> None:
        if math.hypot(self.ax, self.ay) <= EPS:
            raise ValueError("halfspace normal must be non-zero")

    def evaluate(self, p: Point) -> float:
        """Signed slack ``b - a . p`` (non-negative inside)."""
        return self.b - (self.ax * p.x + self.ay * p.y)

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        """True when ``p`` satisfies the inequality within ``tol``."""
        return self.evaluate(p) >= -tol

    def normalized(self) -> "HalfSpace":
        """Scale so the normal has unit length (distances become metric)."""
        n = math.hypot(self.ax, self.ay)
        return HalfSpace(self.ax / n, self.ay / n, self.b / n)

    def relaxed(self, slack: float) -> "HalfSpace":
        """The halfspace loosened by ``slack`` (``a . z <= b + slack``)."""
        if slack < 0:
            raise ValueError("slack must be non-negative")
        return HalfSpace(self.ax, self.ay, self.b + slack)

    def boundary_distance(self, p: Point) -> float:
        """Perpendicular distance from ``p`` to the boundary line."""
        n = math.hypot(self.ax, self.ay)
        return abs(self.ax * p.x + self.ay * p.y - self.b) / n

    def as_row(self) -> tuple[float, float, float]:
        """``(ax, ay, b)`` for stacking into matrix form."""
        return (self.ax, self.ay, self.b)


def bisector_halfspace(near: Point, far: Point) -> HalfSpace:
    """Halfspace of points at least as close to ``near`` as to ``far``.

    This is Eq. 7 of the paper: closer to AP ``i`` (= ``near``) than AP
    ``j`` (= ``far``) iff ``2(xj - xi) x + 2(yj - yi) y <= xj^2 + yj^2 -
    xi^2 - yi^2``.
    """
    if near.almost_equals(far):
        raise ValueError("bisector of coincident points is undefined")
    ax = 2.0 * (far.x - near.x)
    ay = 2.0 * (far.y - near.y)
    b = far.x**2 + far.y**2 - near.x**2 - near.y**2
    return HalfSpace(ax, ay, b)


def clip_polygon(polygon: Polygon | None, hs: HalfSpace) -> Polygon | None:
    """Clip a convex polygon by one halfspace (Sutherland–Hodgman).

    Returns ``None`` when the intersection is empty or degenerate (area
    below :data:`~repro.geometry.primitives.EPS`).
    """
    if polygon is None:
        return None
    verts = polygon.vertices
    out: list[Point] = []
    n = len(verts)
    for i in range(n):
        cur = verts[i]
        nxt = verts[(i + 1) % n]
        cur_in = hs.evaluate(cur) >= -EPS
        nxt_in = hs.evaluate(nxt) >= -EPS
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            # Edge crosses the boundary line: add the crossing point.
            denom = hs.ax * (nxt.x - cur.x) + hs.ay * (nxt.y - cur.y)
            if abs(denom) > EPS:
                t = (hs.b - hs.ax * cur.x - hs.ay * cur.y) / denom
                t = max(0.0, min(1.0, t))
                out.append(cur + (nxt - cur) * t)
    cleaned = _dedupe(out)
    if len(cleaned) < 3:
        return None
    clipped = Polygon(tuple(cleaned))
    if clipped.area() <= EPS:
        return None
    return clipped


def intersect_halfspaces(
    halfspaces: Iterable[HalfSpace], bound: Polygon
) -> Polygon | None:
    """Intersect halfspaces with a bounding polygon.

    ``bound`` must be convex; it anchors the (possibly unbounded) halfspace
    intersection to the area of interest.  Returns the feasible polygon or
    ``None`` when the constraints are jointly infeasible inside ``bound``.

    Implementation note: this is the serving hot path's geometry kernel
    (one call per candidate halfspace set per piece per query), so the
    clipping runs on plain coordinate tuples and only the final region is
    materialized as a :class:`Polygon`.  Every arithmetic step replicates
    :func:`clip_polygon` exactly — same expressions, same evaluation
    order — so the result is bit-identical to chaining ``clip_polygon``.
    """
    verts = [(p.x, p.y) for p in bound.vertices]
    for hs in halfspaces:
        verts = _clip_coords(verts, hs.ax, hs.ay, hs.b)
        if verts is None:
            return None
    return Polygon(tuple(Point(x, y) for x, y in verts))


def _clip_coords(
    verts: list[tuple[float, float]], ax: float, ay: float, b: float
) -> list[tuple[float, float]] | None:
    """Coordinate-level :func:`clip_polygon`, bit-identical arithmetic.

    Takes and returns CCW vertex tuples; ``None`` for empty/degenerate
    intersections, mirroring ``clip_polygon``'s dedupe, vertex-count,
    orientation and area checks.
    """
    out: list[tuple[float, float]] = []
    n = len(verts)
    # One slack sign per vertex — the edge walk below reads each vertex
    # twice (as current and as next), so evaluating upfront halves the
    # arithmetic without changing any expression.
    inside = [b - (ax * x + ay * y) >= -EPS for x, y in verts]
    emit = out.append
    for i in range(n):
        k = i + 1 if i + 1 < n else 0
        cur_in = inside[i]
        if cur_in:
            emit(verts[i])
        if cur_in != inside[k]:
            # Edge crosses the boundary line: add the crossing point.
            cx, cy = verts[i]
            nx, ny = verts[k]
            denom = ax * (nx - cx) + ay * (ny - cy)
            if abs(denom) > EPS:
                t = (b - ax * cx - ay * cy) / denom
                t = max(0.0, min(1.0, t))
                emit((cx + (nx - cx) * t, cy + (ny - cy) * t))
    # Consecutive near-duplicate removal (== _dedupe on Point tuples).
    cleaned: list[tuple[float, float]] = []
    for x, y in out:
        if (
            not cleaned
            or abs(cleaned[-1][0] - x) > 1e-9
            or abs(cleaned[-1][1] - y) > 1e-9
        ):
            cleaned.append((x, y))
    if (
        len(cleaned) > 1
        and abs(cleaned[0][0] - cleaned[-1][0]) <= 1e-9
        and abs(cleaned[0][1] - cleaned[-1][1]) <= 1e-9
    ):
        cleaned.pop()
    if len(cleaned) < 3:
        return None
    # Shoelace, replicating Polygon.signed_area term order exactly.
    total = 0.0
    k = len(cleaned)
    for i in range(k):
        px, py = cleaned[i]
        qx, qy = cleaned[(i + 1) % k]
        total += px * qy - qx * py
    signed = total / 2.0
    if abs(signed) <= EPS:
        return None
    if signed < 0:
        # Polygon.__post_init__ normalizes orientation the same way.
        cleaned.reverse()
    return cleaned


def _intersect_rows(
    a: np.ndarray, b: np.ndarray, bound: Polygon
) -> Polygon | None:
    """Clip ``bound`` by one ``(a, b)`` stack, row by row.

    Equivalent to :func:`intersect_halfspaces` over
    ``[HalfSpace(a[j, 0], a[j, 1], b[j]) for j]`` — it drives the same
    :func:`_clip_coords` kernel — without constructing the objects.  The
    localizer clips every region through it, one lane at a time.
    """
    verts: list[tuple[float, float]] | None
    verts = [(p.x, p.y) for p in bound.vertices]
    # tolist() converts each stack once: per-element numpy indexing costs
    # as much as a clip step on paper-scale stacks (same float64 values).
    for (ax, ay), bj in zip(a.tolist(), b.tolist()):
        verts = _clip_coords(verts, ax, ay, bj)
        if verts is None:
            return None
    return Polygon(tuple(Point(float(px), float(py)) for px, py in verts))


def halfspaces_to_matrix(
    halfspaces: Sequence[HalfSpace],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack halfspaces into ``(A, b)`` with rows ``a_i . z <= b_i``."""
    if not halfspaces:
        return np.zeros((0, 2)), np.zeros(0)
    a = np.array([[h.ax, h.ay] for h in halfspaces], dtype=float)
    b = np.array([h.b for h in halfspaces], dtype=float)
    return a, b


def _dedupe(points: list[Point], tol: float = 1e-9) -> list[Point]:
    """Drop consecutive (cyclically) near-duplicate vertices."""
    if not points:
        return []
    out: list[Point] = []
    for p in points:
        if not out or not out[-1].almost_equals(p, tol):
            out.append(p)
    if len(out) > 1 and out[0].almost_equals(out[-1], tol):
        out.pop()
    return out
