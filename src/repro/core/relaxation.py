"""The weighted constraint-relaxation LP (Eq. 19).

Erroneous proximity judgements can make the raw constraint stack
infeasible, so NomLoc solves

    minimize   w . t
    subject to A z - t <= b,   t >= 0

retaining high-weight constraints and sacrificing cheap ones.  When the
stack is feasible the optimum has ``t = 0`` and the problem reduces to the
pure feasibility LP of Eq. 16.  The relaxed slacks then define the final
*feasible region* ``{z : A z <= b + t*}``, whose centre becomes the
location estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..optimize import LPStatus, solve_lp_batch
from ..optimize.linprog import InequalityLP
from .constraints import ConstraintSystem

__all__ = ["RelaxationResult", "solve_relaxation", "solve_relaxation_batch"]

#: Slacks below this are treated as exactly satisfied constraints.
_SLACK_TOL = 1e-7

#: Largest row violation ``A z - t - b`` a simplex answer may carry.
#: Rounding leaves ~1e-14 on venue-scale systems; more means a pivot went
#: wrong, and the reported cost then understates the violated rows'
#: weighted slack.
_RESIDUAL_TOL = 1e-11

#: HiGHS options for re-solving a system the simplex got wrong.  The
#: default feasibility tolerance (1e-7), times a row weight, can exceed
#: the cost precision the simplex gives; the tighter one is tried first,
#: and the defaults only if HiGHS stalls at it.
_PRECISE_HIGHS = (
    {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    {},
)


@dataclass(frozen=True)
class RelaxationResult:
    """Solution of the relaxation LP over one constraint system.

    Attributes
    ----------
    feasible_point:
        The LP's ``z`` — some point inside the relaxed region.
    slacks:
        Optimal ``t`` per constraint (0 for satisfied rows).
    cost:
        ``w . t``; 0 iff the original stack was feasible.
    system:
        The constraint system the LP was built from.
    """

    feasible_point: np.ndarray
    slacks: np.ndarray
    cost: float
    system: ConstraintSystem

    @property
    def was_feasible(self) -> bool:
        """True when no constraint needed relaxing (Eq. 16 had a solution)."""
        return self.cost <= _SLACK_TOL

    def violated_labels(self) -> list[str]:
        """Labels of constraints the optimum had to break."""
        return [
            c.label
            for c, t in zip(self.system.constraints, self.slacks)
            if t > _SLACK_TOL
        ]


#: Row count beyond which the dense from-scratch tableau becomes the
#: bottleneck and the solve is routed to a sparse interior-point backend.
#: Paper-scale deployments (4 APs + a handful of nomadic sites) stay well
#: below this.
_LARGE_SYSTEM_ROWS = 80


def solve_relaxation(system: ConstraintSystem) -> RelaxationResult:
    """Solve Eq. 19 for one constraint system.

    A batch of one through :func:`solve_relaxation_batch`, which holds the
    only construction of the LP and documents the backends and errors.
    """
    return solve_relaxation_batch([system])[0]


def solve_relaxation_batch(
    systems: Sequence[ConstraintSystem],
) -> list[RelaxationResult]:
    """Solve Eq. 19 for many constraint systems in stacked NumPy passes.

    Paper-scale systems (a handful of APs plus nomadic sites: tens of
    rows) are grouped by row count (the stacked-tableau shape) and each
    group is solved by the from-scratch two-phase simplex through
    :func:`~repro.optimize.solve_lp_batch`, which replays every problem's
    own pivot sequence, so a result does not depend on what else was in
    the batch.  Large systems — many nomadic APs or long site histories,
    above :data:`_LARGE_SYSTEM_ROWS` rows — are routed to a sparse
    interior-point backend (scipy's HiGHS), matching the paper's own
    reliance on an interior-point solver for scalability (Sec. IV-B4).

    The relaxed problem is always feasible (any ``z`` works with big
    enough ``t``) and bounded below by 0, so a simplex that stops short
    of an optimum has been misled by rounding.  So has one whose point
    breaks a row (``A z - t - b`` above :data:`_RESIDUAL_TOL`): a step
    along a column whose entry sits below the pivot tolerance can drive a
    basic variable negative.  Both take near-parallel rows; such a system
    is re-solved by HiGHS at tight tolerances instead of failing or
    returning an infeasible point.

    Raises
    ------
    ValueError
        If any system is empty.
    RuntimeError
        If the sparse backend fails too.
    """
    results: list[RelaxationResult | None] = [None] * len(systems)
    groups: dict[int, list[int]] = {}
    for i, system in enumerate(systems):
        m = len(system)
        if m == 0:
            raise ValueError("cannot relax an empty constraint system")
        if m > _LARGE_SYSTEM_ROWS:
            results[i] = _solve_relaxation_sparse(system)
        else:
            groups.setdefault(m, []).append(i)
    for m, idxs in groups.items():
        # Variables: [z_x, z_y (free), t_1..t_m (nonneg)].
        nonneg = np.array([False, False] + [True] * m)
        neg_eye = -np.eye(m)  # shared across the group: hstack copies it
        problems = []
        for i in idxs:
            a, b, w = systems[i].matrices()
            c = np.concatenate([[0.0, 0.0], w])
            a_lp = np.hstack([a, neg_eye])
            problems.append(InequalityLP(c, a_lp, b, nonneg))
        for i, result in zip(idxs, solve_lp_batch(problems)):
            if result.status is LPStatus.OPTIMAL:
                a, b, _w = systems[i].matrices()
                z = result.x[:2]
                t = np.maximum(result.x[2:], 0.0)
                if (a @ z - t - b).max() <= _RESIDUAL_TOL:
                    results[i] = RelaxationResult(
                        z, t, float(result.objective), systems[i]
                    )
                    continue
            results[i] = _solve_relaxation_sparse(systems[i], _PRECISE_HIGHS)
    return results  # type: ignore[return-value]  # every slot is filled


def _solve_relaxation_sparse(
    system: ConstraintSystem, attempts: Sequence[dict] = ({},)
) -> RelaxationResult:
    """Large-system path: sparse interior-point via scipy (HiGHS).

    ``attempts`` are HiGHS option sets, tried in order until one solves.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    a, b, w = system.matrices()
    m = len(system)
    c = np.concatenate([[0.0, 0.0], w])
    a_ub = sparse.hstack(
        [sparse.csr_matrix(a), -sparse.eye(m, format="csr")], format="csr"
    )
    bounds = [(None, None), (None, None)] + [(0, None)] * m
    for options in attempts:
        result = linprog(
            c, A_ub=a_ub, b_ub=b, bounds=bounds, method="highs", options=options
        )
        if result.status == 0:
            break
    else:
        raise RuntimeError(
            f"sparse relaxation LP failed: status {result.status} "
            f"({result.message})"
        )
    # HiGHS's own slacks may break a row by up to its feasibility
    # tolerance; the least slacks for its ``z`` make the answer feasible
    # by construction, and the cost is reported over those slacks.
    z = result.x[:2]
    t = np.maximum(a @ z - b, 0.0)
    return RelaxationResult(z, t, float(w @ t), system)
