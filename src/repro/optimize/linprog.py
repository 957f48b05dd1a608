"""Inequality-form LP facade over the simplex core.

NomLoc's optimization problems arrive in the natural inequality form

    minimize    c . x
    subject to  A x <= b

with *free* (sign-unrestricted) variables — the position ``z`` may be
anywhere in the plane, and the relaxation variables ``t`` are non-negative.
This module converts that form to the standard form the tableau simplex
consumes (free variables split as ``x = x+ - x-``, slacks appended) and maps
the solution back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .batched import simplex_standard_form_batch
from .types import LPResult, LPStatus

__all__ = ["InequalityLP", "solve_lp", "solve_lp_batch"]


@dataclass(frozen=True)
class InequalityLP:
    """``min c.x  s.t.  a_ub x <= b_ub`` with per-variable sign info.

    Attributes
    ----------
    c:
        Cost vector, length ``n``.
    a_ub, b_ub:
        Inequality stack, ``(m, n)`` and ``(m,)``.
    nonneg:
        Boolean mask of length ``n``; ``True`` entries are constrained to
        ``x_i >= 0``, ``False`` entries are free.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    nonneg: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float).ravel()
        a = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
        b = np.asarray(self.b_ub, dtype=float).ravel()
        nn = np.asarray(self.nonneg, dtype=bool).ravel()
        if a.shape[1] != c.size and not (a.size == 0 and c.size >= 0):
            raise ValueError(
                f"a_ub has {a.shape[1]} columns but c has {c.size} entries"
            )
        if a.shape[0] != b.size:
            raise ValueError("a_ub and b_ub row counts differ")
        if nn.size != c.size:
            raise ValueError("nonneg mask length must match variable count")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_ub", a)
        object.__setattr__(self, "b_ub", b)
        object.__setattr__(self, "nonneg", nn)

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.b_ub.size


def solve_lp(
    c: Sequence[float] | np.ndarray,
    a_ub: Sequence[Sequence[float]] | np.ndarray,
    b_ub: Sequence[float] | np.ndarray,
    nonneg: Sequence[bool] | np.ndarray | None = None,
    max_iterations: int = 10_000,
) -> LPResult:
    """Solve ``min c.x  s.t.  a_ub x <= b_ub``.

    Parameters
    ----------
    nonneg:
        Mask of variables constrained to be non-negative.  ``None`` means
        all variables are free (the natural setting for planar positions).

    Returns
    -------
    LPResult
        ``x`` has the original variable count and ordering.
    """
    c = np.asarray(c, dtype=float).ravel()
    if nonneg is None:
        nonneg = np.zeros(c.size, dtype=bool)
    problem = InequalityLP(c, np.asarray(a_ub, dtype=float), b_ub, nonneg)
    return solve_lp_batch([problem], max_iterations)[0]


def solve_lp_batch(
    problems: Sequence[InequalityLP],
    max_iterations: int = 10_000,
) -> list[LPResult]:
    """Solve many **same-shape** inequality LPs in one stacked pass.

    Every problem must share ``(num_constraints, num_vars)`` and the
    ``nonneg`` mask — the shape of the stacked standard-form tableaux.
    The serving layer's micro-batches satisfy this naturally (same
    topology piece, same anchor count); callers with mixed shapes group
    first.  :func:`solve_lp` is the batch of one.

    Each returned :class:`~repro.optimize.types.LPResult` is bit-identical
    to solving that problem alone: the batched simplex replays each
    problem's scalar pivot sequence (see :mod:`repro.optimize.batched`).
    """
    if not problems:
        return []
    shape = (problems[0].num_constraints, problems[0].num_vars)
    mask = problems[0].nonneg
    for problem in problems[1:]:
        if (problem.num_constraints, problem.num_vars) != shape or not (
            np.array_equal(problem.nonneg, mask)
        ):
            raise ValueError(
                "solve_lp_batch needs same-shape problems with identical "
                "nonneg masks; group by shape first"
            )
    standard = [_standard_form(p) for p in problems]
    raw = simplex_standard_form_batch(
        [(c, a, b) for c, a, b, _, _ in standard], max_iterations
    )
    return [
        _map_back(problem, result, plus_col, minus_col)
        for problem, result, (_, _, _, plus_col, minus_col) in zip(
            problems, raw, standard
        )
    ]


def _standard_form(
    problem: InequalityLP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Convert an inequality LP to standard form.

    Returns ``(c_std, a_std, b_std, plus_col, minus_col)`` where the
    column maps recover original variables from the standard-form point.
    """
    n = problem.num_vars
    m = problem.num_constraints
    free = ~problem.nonneg
    num_free = int(free.sum())

    # Column layout of the standard-form variable vector:
    #   [x_nonneg..., x_free_plus..., x_free_minus..., slack...]
    # Every standard-form variable is >= 0.
    total = n + num_free + m
    c_std = np.zeros(total)
    a_std = np.zeros((m, total))
    b_std = problem.b_ub.copy()

    # Map original variable j -> its positive-part column.
    plus_col = np.arange(n)
    minus_col = np.full(n, -1)
    next_col = n
    for j in np.flatnonzero(free):
        minus_col[j] = next_col
        next_col += 1

    c_std[plus_col] = problem.c
    for j in np.flatnonzero(free):
        c_std[minus_col[j]] = -problem.c[j]

    if m:
        a_std[:, :n] = problem.a_ub
        for j in np.flatnonzero(free):
            a_std[:, minus_col[j]] = -problem.a_ub[:, j]
        a_std[:, n + num_free :] = np.eye(m)
    return c_std, a_std, b_std, plus_col, minus_col


def _map_back(
    problem: InequalityLP,
    result: LPResult,
    plus_col: np.ndarray,
    minus_col: np.ndarray,
) -> LPResult:
    """Recover the original variables from a standard-form solution."""
    if not result.ok:
        return result
    x = result.x[plus_col].copy()
    for j in np.flatnonzero(~problem.nonneg):
        x[j] -= result.x[minus_col[j]]
    return LPResult(
        LPStatus.OPTIMAL,
        x,
        float(problem.c @ x),
        result.iterations,
        result.message,
    )

