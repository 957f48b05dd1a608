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
    "intersect_halfspaces_batch",
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


#: Below this many cutting lanes a clip step runs the scalar kernel per
#: lane; above it the stacked emission machinery wins.
_SCALAR_LANES = 12


def _intersect_rows(
    a: np.ndarray, b: np.ndarray, bound: Polygon
) -> Polygon | None:
    """Scalar reference: clip one ``(a, b)`` stack row by row.

    Equivalent to :func:`intersect_halfspaces` over
    ``[HalfSpace(a[j, 0], a[j, 1], b[j]) for j]`` — it drives the same
    :func:`_clip_coords` kernel — without constructing the objects.
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


def intersect_halfspaces_batch(
    systems: Sequence[tuple[np.ndarray, np.ndarray]], bound: Polygon
) -> list[Polygon | None]:
    """Clip many halfspace stacks against one convex ``bound`` in lockstep.

    ``systems`` holds one lane per entry: ``(a, b)`` with ``a`` of shape
    ``(m, 2)`` and ``b`` of shape ``(m,)``, rows meaning ``a . z <= b``.
    Lanes may have different row counts; shorter lanes idle while longer
    ones keep clipping.  Returns one ``Polygon | None`` per lane,
    **bit-identical** to running :func:`intersect_halfspaces` on that
    lane alone: every arithmetic expression replicates
    :func:`_clip_coords` with the same operations in the same order,
    evaluated elementwise across lanes, and the order-sensitive steps
    (vertex emission, duplicate removal, the shoelace accumulation) are
    driven index-by-index rather than through reordered reductions.
    """
    lanes = len(systems)
    if lanes == 0:
        return []
    if lanes == 1:
        a, b = systems[0]
        return [_intersect_rows(np.asarray(a, float), np.asarray(b, float), bound)]

    rows = np.array([len(b) for _, b in systems])
    max_m = int(rows.max())
    bverts = bound.vertices
    nb = len(bverts)
    # Halfplane-clipping a convex polygon adds at most one net vertex, so
    # nb + max_m columns bound every lane's vertex count; one extra slot
    # holds a cyclic duplicate of the first vertex so "next vertex of i"
    # is always column i + 1 and no gather is ever needed.
    cap = nb + max_m + 2
    width = cap + 1

    ha = np.zeros((lanes, max_m, 2))
    hb = np.zeros((lanes, max_m))
    for lane, (la, lb) in enumerate(systems):
        m = len(lb)
        if m:
            ha[lane, :m] = la
            hb[lane, :m] = lb
    hax = ha[:, :, 0]
    hay = ha[:, :, 1]

    x = np.zeros((lanes, width))
    y = np.zeros((lanes, width))
    for i, p in enumerate(bverts):
        x[:, i] = p.x
        y[:, i] = p.y
    x[:, nb] = bverts[0].x
    y[:, nb] = bverts[0].y
    cnt = np.full(lanes, nb)
    alive = np.ones(lanes, dtype=bool)
    lane_idx = np.arange(lanes)
    col = np.arange(2 * width)

    # Conservative per-lane bounding box of the current polygon.  A row
    # whose halfplane contains the whole box contains the polygon, so the
    # clip is a no-op and the lane skips the step entirely; the margin
    # keeps the box test strictly conservative against the per-vertex
    # >= -EPS test under floating-point rounding.
    bxmin = np.full(lanes, min(p.x for p in bverts))
    bxmax = np.full(lanes, max(p.x for p in bverts))
    bymin = np.full(lanes, min(p.y for p in bverts))
    bymax = np.full(lanes, max(p.y for p in bverts))
    noop_floor = -EPS + 1e-12

    emw = 2 * cap + 2
    em = np.zeros((lanes, emw), dtype=bool)
    ex = np.zeros((lanes, emw))
    ey = np.zeros((lanes, emw))
    ox = np.zeros((lanes, emw))
    oy = np.zeros((lanes, emw))

    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(max_m):
            act = alive & (j < rows)
            if not act.any():
                break
            ax = hax[:, j]
            ay = hay[:, j]
            bb = hb[:, j]
            worst = bb - (
                np.maximum(ax * bxmin, ax * bxmax)
                + np.maximum(ay * bymin, ay * bymax)
            )
            flag = act & (worst < noop_floor)
            nflag = int(flag.sum())
            if nflag == 0:
                continue
            if nflag <= _SCALAR_LANES:
                # Few lanes actually cut: the scalar kernel per lane is
                # cheaper than the stacked emission machinery.
                for lane in np.flatnonzero(flag):
                    k = int(cnt[lane])
                    verts = list(
                        zip(x[lane, :k].tolist(), y[lane, :k].tolist())
                    )
                    out = _clip_coords(
                        verts, float(ax[lane]), float(ay[lane]), float(bb[lane])
                    )
                    if out is None:
                        alive[lane] = False
                        continue
                    k2 = len(out)
                    vx = [p[0] for p in out]
                    vy = [p[1] for p in out]
                    x[lane, :k2] = vx
                    y[lane, :k2] = vy
                    x[lane, k2] = vx[0]
                    y[lane, k2] = vy[0]
                    cnt[lane] = k2
                    bxmin[lane] = min(vx)
                    bxmax[lane] = max(vx)
                    bymin[lane] = min(vy)
                    bymax[lane] = max(vy)
                continue

            v = int(cnt[flag].max())
            w = v + 1
            xs = x[:, :w]
            ys = y[:, :w]
            # Two groupings on purpose: the inside test is
            # b - (ax*x + ay*y), the crossing numerator b - ax*x - ay*y —
            # exactly the scalar kernel's expressions.
            ins = (bb[:, None] - (ax[:, None] * xs + ay[:, None] * ys)) >= -EPS
            num = bb[:, None] - ax[:, None] * xs - ay[:, None] * ys
            valid = flag[:, None] & (col[None, :v] < cnt[:, None])
            insc = ins[:, :v]
            insk = ins[:, 1:w]
            dx = xs[:, 1:w] - xs[:, :v]
            dy = ys[:, 1:w] - ys[:, :v]
            den = ax[:, None] * dx + ay[:, None] * dy
            cross = valid & (insc != insk) & (np.abs(den) > EPS)
            t = num[:, :v] / den
            t = np.where(cross, t, 0.0)  # keep masked lanes finite
            np.minimum(t, 1.0, out=t)
            np.maximum(t, 0.0, out=t)

            # Emission, interleaved exactly like the scalar walk: for
            # each vertex, current-if-inside then crossing-if-crossing.
            b2 = 2 * v
            emj = em[:, :b2]
            emj[:, 0::2] = valid & insc
            emj[:, 1::2] = cross
            exj = ex[:, :b2]
            eyj = ey[:, :b2]
            exj[:, 0::2] = xs[:, :v]
            exj[:, 1::2] = xs[:, :v] + dx * t
            eyj[:, 0::2] = ys[:, :v]
            eyj[:, 1::2] = ys[:, :v] + dy * t
            pos = emj.cumsum(axis=1)
            out_cnt = pos[:, -1].copy()
            if int(out_cnt.max()) > cap:  # pragma: no cover - pathological
                return [
                    _intersect_rows(
                        np.asarray(la, float), np.asarray(lb, float), bound
                    )
                    for la, lb in systems
                ]
            np.subtract(pos, 1, out=pos)
            flat = (lane_idx[:, None] * emw + pos)[emj]
            ox.ravel()[flat] = exj[emj]
            oy.ravel()[flat] = eyj[emj]

            # Consecutive near-duplicate removal.  If no emitted vertex
            # sits within tolerance of its predecessor the scalar
            # last-kept scan keeps everything (its first drop is always
            # an adjacent one), so only lanes with an adjacent duplicate
            # need the exact sequential walk.
            mo = int(out_cnt.max())
            adj = (
                flag[:, None]
                & (col[None, 1:mo] < out_cnt[:, None])
                & (np.abs(ox[:, 1:mo] - ox[:, : mo - 1]) <= 1e-9)
                & (np.abs(oy[:, 1:mo] - oy[:, : mo - 1]) <= 1e-9)
            )
            if adj.any():
                for lane in np.flatnonzero(adj.any(axis=1)):
                    cleaned: list[tuple[float, float]] = []
                    for i in range(int(out_cnt[lane])):
                        cx, cy = ox[lane, i], oy[lane, i]
                        if (
                            not cleaned
                            or abs(cleaned[-1][0] - cx) > 1e-9
                            or abs(cleaned[-1][1] - cy) > 1e-9
                        ):
                            cleaned.append((cx, cy))
                    k = len(cleaned)
                    ox[lane, :k] = [p[0] for p in cleaned]
                    oy[lane, :k] = [p[1] for p in cleaned]
                    out_cnt[lane] = k

            # Cyclic wrap-around: drop the last vertex when it closes
            # onto the first within tolerance.
            last = out_cnt - 1
            wrap = (
                flag
                & (out_cnt > 1)
                & (np.abs(ox[:, 0] - ox[lane_idx, last]) <= 1e-9)
                & (np.abs(oy[:, 0] - oy[lane_idx, last]) <= 1e-9)
            )
            out_cnt = out_cnt - wrap

            dead = flag & (out_cnt < 3)
            cand = flag & ~dead
            if cand.any():
                v2 = int(out_cnt[cand].max())
                ox[lane_idx, out_cnt] = ox[:, 0]  # cyclic duplicate
                oy[lane_idx, out_cnt] = oy[:, 0]
                # Shoelace with sequential accumulation (index order
                # matches the scalar loop; padded columns add a literal
                # +0.0, which only ever flips the sign of an exact zero
                # — a region both paths reject as degenerate anyway).
                inp = cand[:, None] & (col[None, :v2] < out_cnt[:, None])
                terms = np.where(
                    inp,
                    ox[:, :v2] * oy[:, 1 : v2 + 1]
                    - ox[:, 1 : v2 + 1] * oy[:, :v2],
                    0.0,
                )
                total = np.zeros(lanes)
                for i in range(v2):
                    total = total + terms[:, i]
                signed = total / 2.0
                dead |= cand & (np.abs(signed) <= EPS)
                rev = cand & ~dead & (signed < 0.0)
                if rev.any():
                    for lane in np.flatnonzero(rev):
                        k = int(out_cnt[lane])
                        ox[lane, :k] = ox[lane, :k][::-1].copy()
                        oy[lane, :k] = oy[lane, :k][::-1].copy()
                        ox[lane, k] = ox[lane, 0]
                        oy[lane, k] = oy[lane, 0]
                keep = flag & ~dead
                if keep.any():
                    x[keep] = ox[keep, :width]
                    y[keep] = oy[keep, :width]
                    cnt[keep] = out_cnt[keep]
                    kept = col[None, :v2] < out_cnt[:, None]
                    bxmin[keep] = np.where(kept, ox[:, :v2], np.inf).min(
                        axis=1
                    )[keep]
                    bxmax[keep] = np.where(kept, ox[:, :v2], -np.inf).max(
                        axis=1
                    )[keep]
                    bymin[keep] = np.where(kept, oy[:, :v2], np.inf).min(
                        axis=1
                    )[keep]
                    bymax[keep] = np.where(kept, oy[:, :v2], -np.inf).max(
                        axis=1
                    )[keep]
            alive[dead] = False

    results: list[Polygon | None] = []
    for lane in range(lanes):
        if not alive[lane]:
            results.append(None)
            continue
        k = int(cnt[lane])
        results.append(
            Polygon(
                tuple(
                    Point(float(x[lane, i]), float(y[lane, i])) for i in range(k)
                )
            )
        )
    return results


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
