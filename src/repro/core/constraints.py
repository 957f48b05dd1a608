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
from typing import Mapping, Sequence

import numpy as np

from ..geometry import (
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

        The batched locate path stacks each query's shared rows once and
        concatenates that stack with every piece's cached boundary stack,
        so rebuilding ``(A, b, w)`` from the row objects per piece would
        be pure waste.  The caller guarantees the arrays match the rows
        exactly (same values, same order) — the preseed is then
        bit-identical to what :meth:`matrices` would build.
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
