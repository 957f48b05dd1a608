"""Constraint construction for SP-based location estimation (Sec. IV-B).

Three constraint families, each a weighted halfspace on the unknown
position ``z``:

* **pairwise** (Eq. 8): one perpendicular-bisector constraint per anchor
  pair, oriented by the PDP proximity judgement, weighted by its
  confidence factor;
* **boundary** (Eq. 9–11): the area-of-interest edges via virtual APs,
  with a large preset weight so they are satisfied "with high priority";
* **nomadic** (Eq. 13–15): for each site the nomadic AP measured from,
  one constraint against every static AP — ``S x (n - 1)`` extra rows.

In the paper's formulation the nomadic constraints assume the object is
closer to the nomadic AP; here the direction of every pairwise row is
decided by the actual PDP comparison, which reduces to the paper's form
when the nomadic AP wins all comparisons.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from ..geometry import (
    EPS,
    HalfSpace,
    Point,
    Polygon,
    bisector_halfspace,
    boundary_halfspaces,
)
from ..obs import span
from .pdp import confidence_factor, proximity_confidence

__all__ = [
    "ConstraintKind",
    "WeightedConstraint",
    "ConstraintSystem",
    "Anchor",
    "BOUNDARY_WEIGHT",
    "pairwise_constraints",
    "pairwise_constraints_batch",
    "boundary_constraints",
]

#: Preset weight for area-boundary constraints (Sec. IV-B4: "a large
#: weight to guarantee the corresponding constraint satisfied with high
#: priority").
BOUNDARY_WEIGHT = 100.0


class ConstraintKind(enum.Enum):
    """Which family a constraint row belongs to."""

    PAIRWISE = "pairwise"
    BOUNDARY = "boundary"
    NOMADIC = "nomadic"


@dataclass(frozen=True, slots=True)
class Anchor:
    """A position the object's PDP was measured against.

    Static APs contribute one anchor each; a nomadic AP contributes one
    anchor per visited site (with the coordinates it *reported*, which may
    be wrong — Sec. V-E).
    """

    name: str
    position: Point
    pdp: float
    nomadic: bool = False

    def __post_init__(self) -> None:
        # Written as a range test so NaN, which fails every comparison, is
        # rejected along with zero, negatives and infinity.
        if not (0.0 < self.pdp < math.inf):
            raise ValueError("anchor PDP must be positive and finite")


@dataclass(frozen=True, slots=True)
class WeightedConstraint:
    """One weighted halfspace row of the relaxation LP."""

    halfspace: HalfSpace
    weight: float
    kind: ConstraintKind
    label: str = ""

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("constraint weight must be positive")


@dataclass(frozen=True)
class ConstraintSystem:
    """An ordered stack of weighted constraints (the LP's ``A z <= b``)."""

    constraints: tuple[WeightedConstraint, ...]

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(A, b, w)`` with rows in constraint order.

        Memoized: the system is frozen, so the matrices are built once and
        the same arrays are returned on every call (the LP setup, the
        geometry rounds, and the Chebyshev stack all read them).  Callers
        must treat them as read-only.
        """
        cached = self.__dict__.get("_matrices")
        if cached is not None:
            return cached
        if not self.constraints:
            mats = (np.zeros((0, 2)), np.zeros(0), np.zeros(0))
        else:
            a = np.array(
                [[c.halfspace.ax, c.halfspace.ay] for c in self.constraints]
            )
            b = np.array([c.halfspace.b for c in self.constraints])
            w = np.array([c.weight for c in self.constraints])
            mats = (a, b, w)
        object.__setattr__(self, "_matrices", mats)
        return mats

    @classmethod
    def with_matrices(
        cls,
        constraints: tuple[WeightedConstraint, ...],
        a: np.ndarray,
        b: np.ndarray,
        w: np.ndarray,
    ) -> "ConstraintSystem":
        """A system with its :meth:`matrices` cache preseeded.

        The batched assembly path already holds the stacked ``(A, b, w)``
        arrays, so rebuilding them from the row objects would be pure
        waste.  The caller guarantees the arrays match the rows exactly
        (same values, same order) — the preseed is then bit-identical to
        what :meth:`matrices` would build.
        """
        system = cls(constraints)
        object.__setattr__(system, "_matrices", (a, b, w))
        return system

    def of_kind(self, kind: ConstraintKind) -> list[WeightedConstraint]:
        """Constraints from one family, preserving order."""
        return [c for c in self.constraints if c.kind is kind]

    def extended(self, extra: Sequence[WeightedConstraint]) -> "ConstraintSystem":
        """A new system with ``extra`` appended."""
        return ConstraintSystem(self.constraints + tuple(extra))


def pairwise_constraints(
    anchors: Sequence[Anchor],
    include_nomadic_pairs: bool = False,
    normalize: bool = True,
    confidence_fn=confidence_factor,
    bisector_cache=None,
    quality_weights: Mapping[str, float] | None = None,
) -> list[WeightedConstraint]:
    """Bisector constraints for anchor pairs, oriented by PDP.

    Parameters
    ----------
    anchors:
        All anchors with their measured PDPs.  Pairs where both anchors
        are nomadic sites are skipped unless ``include_nomadic_pairs`` —
        the paper only compares nomadic sites against static APs
        (Eq. 13 contributes ``n - 1`` rows per site).
    normalize:
        Scale each halfspace to a unit normal so LP slack variables are
        measured in metres for every row; without this, rows from
        far-apart anchor pairs get numerically larger coefficients and the
        relaxation trades them off inconsistently.
    confidence_fn:
        Which Eq. 2-3-satisfying ``f`` weights the rows (the paper's
        Eq. 4 by default; see
        :data:`repro.core.pdp.CONFIDENCE_FUNCTIONS`).
    bisector_cache:
        Optional mapping (``get``/``__setitem__``) memoizing the
        normalized bisector halfspace by (near, far) position pair —
        anchor geometries recur across serving queries while the PDPs
        (and hence orientations/weights) change, so only the geometric
        part is cached.  The cached value is exactly what the uncached
        path computes, keeping results bit-identical.
    quality_weights:
        Optional per-anchor link-quality scores in ``(0, 1]``, keyed by
        anchor name (see :mod:`repro.guard`).  A judgement is only as
        trustworthy as its *weaker* measurement, so each row's weight is
        scaled by ``min(q_i, q_j)`` — degraded links argue more softly
        in the relaxation LP instead of being believed at full
        confidence.  ``None`` (and any anchor not in the mapping, which
        defaults to 1.0) leaves weights bit-identical to the ungated
        path.
    """
    with span("constraints.pairwise", anchors=len(anchors)) as sp:
        out: list[WeightedConstraint] = []
        n = len(anchors)
        pdps = [a.pdp for a in anchors]
        for i in range(n):
            a_i = anchors[i]
            p_i = pdps[i]
            for j in range(i + 1, n):
                a_j = anchors[j]
                if a_i.nomadic and a_j.nomadic and not include_nomadic_pairs:
                    continue
                if a_i.position.almost_equals(a_j.position):
                    continue  # coincident anchors give no information
                # judge_proximity, inlined for the serving hot loop:
                # larger PDP wins (ties to the lower index), confidence
                # from the weaker/stronger power ratio — same arithmetic,
                # minus the per-pair judgement object.
                p_j = pdps[j]
                confidence = proximity_confidence(p_i, p_j, confidence_fn)
                if p_i >= p_j:
                    near, far = a_i, a_j
                else:
                    near, far = a_j, a_i
                hs = None
                cache_key = None
                if bisector_cache is not None:
                    cache_key = (
                        near.position.x,
                        near.position.y,
                        far.position.x,
                        far.position.y,
                        normalize,
                    )
                    hs = bisector_cache.get(cache_key)
                if hs is None:
                    hs = bisector_halfspace(near.position, far.position)
                    if normalize:
                        hs = hs.normalized()
                    if bisector_cache is not None:
                        bisector_cache[cache_key] = hs
                kind = (
                    ConstraintKind.NOMADIC
                    if (a_i.nomadic or a_j.nomadic)
                    else ConstraintKind.PAIRWISE
                )
                weight = confidence
                if quality_weights is not None:
                    quality = min(
                        quality_weights.get(a_i.name, 1.0),
                        quality_weights.get(a_j.name, 1.0),
                    )
                    if not 0.0 < quality <= 1.0:
                        raise ValueError(
                            f"quality weight for pair {a_i.name}/{a_j.name} "
                            f"must be in (0, 1], got {quality}"
                        )
                    weight = weight * quality
                out.append(
                    WeightedConstraint(
                        hs,
                        weight,
                        kind,
                        label=f"{near.name}<{far.name}",
                    )
                )
        sp.incr("rows", len(out))
        return out


@lru_cache(maxsize=128)
def _pair_template(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle ``(i, j)`` index pairs in the scalar loop's order."""
    ii, jj = np.triu_indices(n, k=1)
    return ii, jj


def pairwise_constraints_batch(
    queries: Sequence[Sequence[Anchor]],
    include_nomadic_pairs: bool = False,
    normalize: bool = True,
    confidence_fn=confidence_factor,
    bisector_cache=None,
    quality_weights: Sequence[Mapping[str, float] | None] | None = None,
) -> list[
    tuple[tuple[WeightedConstraint, ...], tuple[np.ndarray, np.ndarray, np.ndarray]]
]:
    """Bisector constraints for many queries' anchor pairs in array passes.

    Stacks every anchor pair of every query and computes the skip masks
    (both-nomadic, coincident positions), the PDP power ratios, and the
    near/far orientation in vectorized passes; the transcendental
    confidence function and the bisector construction stay scalar per row
    / per distinct pair, because NumPy's SIMD ``pow`` is not bit-identical
    to Python's ``**`` and the bisector normalization must reproduce
    :func:`~repro.geometry.bisector_halfspace` exactly.

    Returns, per query, ``(rows, (a, b, w))``: the same
    :class:`WeightedConstraint` tuple the scalar
    :func:`pairwise_constraints` builds (same halfspaces, weights, kinds,
    labels, order) plus the stacked LP matrices over those rows, ready to
    preseed :meth:`ConstraintSystem.matrices`.

    ``bisector_cache`` keeps its semantics (same keys, same cached
    values); the only observable difference is the *lookup count* — each
    distinct anchor-position pair is consulted once per batch instead of
    once per row, so cache hit/miss statistics differ while every stored
    and returned halfspace stays bit-identical.
    """
    nq = len(queries)
    qw_list: Sequence[Mapping[str, float] | None]
    qw_list = quality_weights if quality_weights is not None else [None] * nq
    if len(qw_list) != nq:
        raise ValueError("quality_weights length must match queries")
    with span("constraints.pairwise_batch", queries=nq) as sp:
        # ---- stack every pair of every query -------------------------
        xi_parts: list[np.ndarray] = []
        yi_parts: list[np.ndarray] = []
        xj_parts: list[np.ndarray] = []
        yj_parts: list[np.ndarray] = []
        pi_parts: list[np.ndarray] = []
        pj_parts: list[np.ndarray] = []
        nomi_parts: list[np.ndarray] = []
        nomj_parts: list[np.ndarray] = []
        pair_meta: list[tuple[int, int, int]] = []  # (query, i, j) per pair
        for q, anchors in enumerate(queries):
            n = len(anchors)
            if n < 2:
                continue  # caller-level validation owns the error message
            px = np.array([a.position.x for a in anchors], dtype=float)
            py = np.array([a.position.y for a in anchors], dtype=float)
            pdp = np.array([a.pdp for a in anchors], dtype=float)
            nom = np.array([a.nomadic for a in anchors], dtype=bool)
            ii, jj = _pair_template(n)
            xi_parts.append(px[ii])
            yi_parts.append(py[ii])
            xj_parts.append(px[jj])
            yj_parts.append(py[jj])
            pi_parts.append(pdp[ii])
            pj_parts.append(pdp[jj])
            nomi_parts.append(nom[ii])
            nomj_parts.append(nom[jj])
            pair_meta.extend(
                (q, int(i), int(j)) for i, j in zip(ii.tolist(), jj.tolist())
            )
        if not pair_meta:
            return [((), (np.zeros((0, 2)), np.zeros(0), np.zeros(0)))] * nq
        xi = np.concatenate(xi_parts)
        yi = np.concatenate(yi_parts)
        xj = np.concatenate(xj_parts)
        yj = np.concatenate(yj_parts)
        p_i = np.concatenate(pi_parts)
        p_j = np.concatenate(pj_parts)
        nom_i = np.concatenate(nomi_parts)
        nom_j = np.concatenate(nomj_parts)

        # ---- skip masks (same predicates as the scalar loop) ---------
        keep = ~(
            (np.abs(xi - xj) <= EPS) & (np.abs(yi - yj) <= EPS)
        )  # Point.almost_equals
        if not include_nomadic_pairs:
            keep &= ~(nom_i & nom_j)
        kept = np.flatnonzero(keep)
        if kept.size == 0:
            return [((), (np.zeros((0, 2)), np.zeros(0), np.zeros(0)))] * nq
        xi, yi, xj, yj = xi[kept], yi[kept], xj[kept], yj[kept]
        p_i, p_j = p_i[kept], p_j[kept]
        nomadic_row = (nom_i | nom_j)[kept]
        meta = [pair_meta[k] for k in kept.tolist()]

        # ---- proximity confidence ------------------------------------
        # min/max reproduce the scalar ``sorted((p_i, p_j))`` exactly;
        # the confidence function runs per row on Python floats because
        # its ``2.0 ** (-x)`` is not bit-identical to np.power.
        ratio = np.minimum(p_i, p_j) / np.maximum(p_i, p_j)
        confidence = [confidence_fn(r) for r in ratio.tolist()]
        near_is_i = p_i >= p_j

        # ---- distinct (near, far) pairs -> halfspaces ----------------
        nx = np.where(near_is_i, xi, xj)
        ny = np.where(near_is_i, yi, yj)
        fx = np.where(near_is_i, xj, xi)
        fy = np.where(near_is_i, yj, yi)
        pair_rows = np.column_stack((nx, ny, fx, fy))
        distinct, inverse = np.unique(pair_rows, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        halfspaces: list[HalfSpace] = []
        for dnx, dny, dfx, dfy in distinct.tolist():
            hs = None
            if bisector_cache is not None:
                cache_key = (dnx, dny, dfx, dfy, normalize)
                hs = bisector_cache.get(cache_key)
            if hs is None:
                hs = bisector_halfspace(Point(dnx, dny), Point(dfx, dfy))
                if normalize:
                    hs = hs.normalized()
                if bisector_cache is not None:
                    bisector_cache[cache_key] = hs
            halfspaces.append(hs)
        hs_ax = np.array([h.ax for h in halfspaces])
        hs_ay = np.array([h.ay for h in halfspaces])
        hs_b = np.array([h.b for h in halfspaces])
        row_ax = hs_ax[inverse]
        row_ay = hs_ay[inverse]
        row_b = hs_b[inverse]

        # ---- weights (quality gating stays scalar for error parity) --
        weights: list[float] = confidence
        needs_quality = any(qw is not None for qw in qw_list)
        if needs_quality:
            weights = []
            for conf, (q, i, j) in zip(confidence, meta):
                qw = qw_list[q]
                if qw is None:
                    weights.append(conf)
                    continue
                anchors = queries[q]
                name_i = anchors[i].name
                name_j = anchors[j].name
                quality = min(qw.get(name_i, 1.0), qw.get(name_j, 1.0))
                if not 0.0 < quality <= 1.0:
                    raise ValueError(
                        f"quality weight for pair {name_i}/{name_j} "
                        f"must be in (0, 1], got {quality}"
                    )
                weights.append(conf * quality)

        # ---- materialize rows + per-query matrices -------------------
        nomadic_list = nomadic_row.tolist()
        rows: list[WeightedConstraint] = []
        for r, (q, i, j) in enumerate(meta):
            anchors = queries[q]
            if near_is_i[r]:
                near_name, far_name = anchors[i].name, anchors[j].name
            else:
                near_name, far_name = anchors[j].name, anchors[i].name
            rows.append(
                WeightedConstraint(
                    halfspaces[inverse[r]],
                    weights[r],
                    ConstraintKind.NOMADIC
                    if nomadic_list[r]
                    else ConstraintKind.PAIRWISE,
                    label=f"{near_name}<{far_name}",
                )
            )
        w_arr = np.array(weights)
        out: list[
            tuple[
                tuple[WeightedConstraint, ...],
                tuple[np.ndarray, np.ndarray, np.ndarray],
            ]
        ] = []
        start = 0
        row_q = [q for q, _, _ in meta]
        for q in range(nq):
            end = start
            while end < len(meta) and row_q[end] == q:
                end += 1
            a_q = np.column_stack((row_ax[start:end], row_ay[start:end]))
            out.append(
                (
                    tuple(rows[start:end]),
                    (a_q, row_b[start:end].copy(), w_arr[start:end].copy()),
                )
            )
            start = end
        sp.incr("rows", len(rows))
        return out


def boundary_constraints(
    area: Polygon,
    anchor_position: Point | None = None,
    weight: float = BOUNDARY_WEIGHT,
    normalize: bool = True,
) -> list[WeightedConstraint]:
    """Area-boundary constraints via virtual APs (Eq. 9-11).

    ``area`` must be convex (non-convex areas are decomposed first by the
    localizer).  ``anchor_position`` defaults to the area centroid — the
    paper notes any interior site works.
    """
    if not area.is_convex():
        raise ValueError("boundary constraints require a convex area")
    anchor = anchor_position or area.centroid()
    out = []
    for edge_idx, hs in enumerate(boundary_halfspaces(anchor, area)):
        if normalize:
            hs = hs.normalized()
        out.append(
            WeightedConstraint(
                hs, weight, ConstraintKind.BOUNDARY, label=f"edge{edge_idx}"
            )
        )
    return out
