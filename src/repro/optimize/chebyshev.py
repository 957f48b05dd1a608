"""Chebyshev centre of a polyhedron via LP.

The Chebyshev centre — the centre of the largest inscribed ball — is one of
the "centre of the feasible region" estimators NomLoc can use after space
partitioning.  For ``{x : a_i . x <= b_i}`` it solves

    maximize  r
    s.t.      a_i . x + r ||a_i|| <= b_i   for all i,   r >= 0

with our own simplex; the optimal ``r`` doubles as a feasibility
certificate (``r > 0`` iff the polyhedron has non-empty interior).

``chebyshev_center_batch`` solves many such centres in lockstep through
:func:`~repro.optimize.linprog.solve_lp_batch`: same-shape problems are
stacked and every problem replays its own scalar pivot sequence, so each
batched result is bit-identical to :func:`chebyshev_center` on that
polyhedron alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linprog import InequalityLP, solve_lp_batch
from .types import LPResult, LPStatus

__all__ = ["chebyshev_center", "chebyshev_center_batch"]


def _chebyshev_lp(
    a_ub: np.ndarray, b_ub: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | LPResult:
    """Build the inscribed-ball LP, or short-circuit with a result."""
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float).ravel()
    m, n = a.shape
    if b.size != m:
        raise ValueError("a_ub and b_ub row counts differ")
    if m == 0:
        return LPResult(LPStatus.UNBOUNDED, message="no constraints")

    norms = np.linalg.norm(a, axis=1)
    if np.any(norms <= 0):
        raise ValueError("constraint rows must have non-zero normals")

    # Variables: [x (free, n), r (nonneg, 1)]; minimize -r.
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_aug = np.hstack([a, norms[:, None]])
    nonneg = np.zeros(n + 1, dtype=bool)
    nonneg[-1] = True
    return c, a_aug, b, nonneg


def _finish_chebyshev(result: LPResult, n: int) -> LPResult:
    """Map the raw LP result back to centre + inscribed radius."""
    if result.status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, message="inscribed radius unbounded")
    if not result.ok:
        return result
    radius = float(result.x[-1])
    if radius < -1e-9:
        return LPResult(LPStatus.INFEASIBLE, message="polyhedron is empty")
    return LPResult(LPStatus.OPTIMAL, result.x[:n], radius, result.iterations)


def chebyshev_center(a_ub: np.ndarray, b_ub: np.ndarray) -> LPResult:
    """Chebyshev centre of ``{x : a_ub x <= b_ub}``.

    Returns
    -------
    LPResult
        ``x`` is the centre, ``objective`` the inscribed-ball radius.
        ``INFEASIBLE`` when the polyhedron is empty, ``UNBOUNDED`` when the
        inscribed radius is unbounded (region not bounded in all
        directions).
    """
    return chebyshev_center_batch([(a_ub, b_ub)])[0]


def chebyshev_center_batch(
    systems: Sequence[tuple[np.ndarray, np.ndarray]],
) -> list[LPResult]:
    """Chebyshev centres of many polyhedra in stacked lockstep passes.

    ``systems`` is a sequence of ``(a_ub, b_ub)`` pairs.  Problems are
    grouped by shape (the lockstep stack needs same-shape tableaux) and
    each group solves through :func:`solve_lp_batch`; degenerate inputs
    resolve without an LP.  Every result is **bit-identical** to solving
    that system alone (:func:`chebyshev_center` is the batch of one).
    """
    results: list[LPResult | None] = [None] * len(systems)
    groups: dict[tuple[int, int], list[int]] = {}
    built: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
    for i, (a_ub, b_ub) in enumerate(systems):
        lp = _chebyshev_lp(a_ub, b_ub)
        if isinstance(lp, LPResult):
            results[i] = lp
            continue
        built[i] = lp
        groups.setdefault(lp[1].shape, []).append(i)
    for idxs in groups.values():
        problems = [InequalityLP(*built[i]) for i in idxs]
        n = built[idxs[0]][1].shape[1] - 1
        for i, result in zip(idxs, solve_lp_batch(problems)):
            results[i] = _finish_chebyshev(result, n)
    return results  # type: ignore[return-value]  # every slot is filled
