"""Batched two-phase simplex: N same-shape tableaux, one NumPy pass.

The serving hot path is dominated by many *small* independent LP solves
(tens of rows each), so the scalar simplex spends its time in Python-level
loop overhead, not arithmetic — and the GIL serializes it across worker
threads.  This module stacks N problems' tableaux into one ``(N, m+1,
cols)`` array and runs every problem's own Bland-rule pivot sequence in
lockstep: each driver iteration performs one pivot *per still-active
problem* with a handful of vectorized operations, so one thread advances N
solves per GIL slice.

Bit-exactness contract: for every problem in the batch the returned
:class:`~repro.optimize.types.LPResult` is **bit-identical** to what
:func:`~repro.optimize.simplex.simplex_standard_form` returns for that
problem alone.  Three properties guarantee it:

* setup and transition steps either call the *same* helper functions as
  the scalar path on 2-D views of the stack (artificial drive-out,
  solution extraction) or replay their exact elementwise operation
  sequence across the stack (Phase-I tableau build, Phase-II objective
  install — see those helpers' docstrings for the order-preservation
  argument);
* the lockstep driver makes every decision (entering column, ratio test,
  Bland tie-break) per problem from that problem's own tableau, so pivot
  sequences match the scalar solver's exactly;
* every batched pivot applies the exact elementwise operation sequence of
  the scalar ``_pivot`` (one divide for the pivot row; one multiply and
  one subtract per updated element), and untouched rows receive a bitwise
  no-op (``t - 0.0``).

Problems that halt early (optimal, unbounded, budget) simply drop out of
the active set; stragglers keep pivoting until the whole batch is done.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import add_counter
from .simplex import (
    _PHASE1_TOL,
    _TOL,
    _drive_out_artificials,
    _extract_solution,
    simplex_standard_form,
)
from .types import LPResult, LPStatus

__all__ = ["simplex_standard_form_batch"]

# Driver termination codes (int8 for the per-problem status vector).
_OPTIMAL = 0
_UNBOUNDED = 2
_ITERATION_LIMIT = 3
_CODE_STATUS = {
    _OPTIMAL: LPStatus.OPTIMAL,
    _UNBOUNDED: LPStatus.UNBOUNDED,
    _ITERATION_LIMIT: LPStatus.ITERATION_LIMIT,
}

#: Sentinel larger than any variable index, for the Bland tie-break argmin.
_NO_CANDIDATE = np.iinfo(np.int64).max


def simplex_standard_form_batch(
    problems: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    max_iterations: int = 10_000,
) -> list[LPResult]:
    """Solve ``min c.x  s.t.  a_eq x = b_eq, x >= 0`` for a whole batch.

    Parameters
    ----------
    problems:
        ``(c, a_eq, b_eq)`` triples.  Every problem must have the same
        ``(m, n)`` shape — callers group by shape (the serving layer's
        micro-batches naturally do: same topology, same anchor count).
    max_iterations:
        Combined per-problem pivot budget across both phases.

    Returns
    -------
    list[LPResult]
        One result per problem, in input order, each bit-identical to the
        scalar :func:`~repro.optimize.simplex.simplex_standard_form`.
    """
    if not problems:
        return []
    if len(problems) == 1:
        # A batch of one gains nothing from stacking: the scalar path is
        # the reference, and it validates its own input.
        [(c, a_eq, b_eq)] = problems
        return [simplex_standard_form(c, a_eq, b_eq, max_iterations)]
    parsed: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for c, a_eq, b_eq in problems:
        c = np.asarray(c, dtype=float).ravel()
        a = np.asarray(a_eq, dtype=float)
        b = np.asarray(b_eq, dtype=float).ravel()
        if a.ndim != 2:
            raise ValueError("a_eq must be a 2-D matrix")
        m, n = a.shape
        if c.shape != (n,) or b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")
        parsed.append((c, a, b))
    m, n = parsed[0][1].shape
    if any(a.shape != (m, n) for _, a, _ in parsed):
        raise ValueError(
            "batched simplex needs same-shape problems; group by shape first"
        )
    if m == 0:
        # Constraint-free problems resolve without pivoting.
        return [simplex_standard_form(c, a, b, max_iterations) for c, a, b in parsed]

    batch = len(parsed)
    results: list[LPResult | None] = [None] * batch
    costs = np.stack([c for c, _, _ in parsed])

    # Phase I: all tableaux and crash bases built in one stacked pass
    # (bit-identical to stacking the scalar helper's per-problem output,
    # modulo padding — see the helper's docstring).
    tabs, basis = _phase1_tableau_batch(
        np.stack([a for _, a, _ in parsed]),
        np.stack([b for _, _, b in parsed]),
    )
    iterations = np.zeros(batch, dtype=np.int64)
    budgets = np.full(batch, max_iterations, dtype=np.int64)

    codes = _run_pivots_batch(
        tabs, basis, tabs.shape[2] - 1, budgets, iterations, np.arange(batch)
    )
    survivors: list[int] = []
    for k in range(batch):
        if codes[k] != _OPTIMAL:
            results[k] = LPResult(
                _CODE_STATUS[int(codes[k])],
                iterations=int(iterations[k]),
                message="phase 1 failed",
            )
        elif tabs[k, m, -1] < -_PHASE1_TOL:
            results[k] = LPResult(
                LPStatus.INFEASIBLE,
                iterations=int(iterations[k]),
                message=f"phase-1 objective {-tabs[k, m, -1]:.3e} > 0",
            )
        else:
            survivors.append(k)

    # Artificial drive-out pivots are rare (only lanes with redundant
    # constraint rows keep a basic artificial after Phase I), so the
    # scalar helper runs only on lanes that actually need it; everyone
    # else skips both the pivots and the list round-trip.  Lanes are
    # independent, so ordering drive-outs before the stacked objective
    # install leaves per-lane state identical to the interleaved order.
    if survivors:
        needs_drive_out = (basis >= n).any(axis=1)
        for k in survivors:
            if needs_drive_out[k]:
                basis_list = [int(v) for v in basis[k]]
                _drive_out_artificials(tabs[k], basis_list, n)
                basis[k] = basis_list
        _install_phase2_objective_batch(tabs, basis, costs, n, survivors)

    # Phase II: artificial columns are forbidden from re-entering by
    # restricting the entering-column scan to the first ``n`` columns.
    # Budgets stay cumulative: total pivots (both phases) <= max_iterations,
    # matching the scalar solver's budget hand-down.
    if survivors:
        # Phase II never *reads* the artificial block either: the
        # entering scan stops at ``n``, the ratio test uses the entering
        # column and the RHS, and extraction reads the RHS.  Under a
        # pivot each column's values depend only on itself and the factor
        # (entering) column, so dropping the artificial columns from the
        # stack leaves every kept value — hence every decision and
        # result — bit-identical while cutting per-pivot element work by
        # roughly the artificial block's share of the width.
        tabs = np.concatenate([tabs[:, :, :n], tabs[:, :, -1:]], axis=2)
        codes = _run_pivots_batch(
            tabs, basis, n, budgets, iterations, np.asarray(survivors)
        )
        for k in survivors:
            if codes[k] != _OPTIMAL:
                results[k] = LPResult(
                    _CODE_STATUS[int(codes[k])],
                    iterations=int(iterations[k]),
                    message="phase 2 failed",
                )
            else:
                results[k] = _extract_solution(
                    tabs[k],
                    [int(v) for v in basis[k]],
                    costs[k],
                    n,
                    m,
                    int(iterations[k]),
                )
    # One volume counter for the whole batch: same total as the scalar
    # path would accumulate solving each problem in turn.
    add_counter("simplex.pivots", int(iterations.sum()))
    return results  # type: ignore[return-value]  # every slot is filled


def _phase1_tableau_batch(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Phase-I tableaux: the scalar ``_phase1_tableau`` over a batch.

    Per lane this replays the scalar construction exactly — same sign
    normalization, same lowest-index crash-column rule (``minimum.at`` is
    an unbuffered scatter-reduce, so the per-row minimum is well defined),
    same packed artificial placement, and per-lane *subset* sums for the
    Phase-I objective row (a masked full-stack sum would flip signed
    zeros).  Lanes needing fewer artificials than the batch maximum are
    padded with all-zero columns whose reduced cost is 0: they are never
    selected as entering columns and stay identically zero under pivots,
    so every per-lane decision and value matches the scalar solver's
    unpadded tableau.
    """
    batch, m, n = a.shape
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Crash scan, all lanes at once: unit columns (exactly one nonzero,
    # equal to +1) cover their row; remaining rows take artificials.
    nonzero = a != 0.0
    single = nonzero.sum(axis=1) == 1
    rows = nonzero.argmax(axis=1)
    entry = np.take_along_axis(a, rows[:, None, :], axis=1)[:, 0, :]
    good = single & (entry == 1.0)
    basis = np.full((batch, m), n, dtype=np.int64)  # sentinel: uncovered
    ln, jn = np.nonzero(good)
    np.minimum.at(basis, (ln, rows[ln, jn]), jn)
    need_art = basis >= n

    lane_idx, row_idx = np.nonzero(need_art)  # row-major: rows ascending
    counts = need_art.sum(axis=1)
    n_art_max = int(counts.max()) if batch else 0
    offsets = np.cumsum(counts) - counts
    rank = np.arange(lane_idx.size) - offsets[lane_idx]

    tabs = np.zeros((batch, m + 1, n + n_art_max + 1))
    tabs[:, :m, :n] = a
    tabs[:, :m, -1] = b
    tabs[lane_idx, row_idx, n + rank] = 1.0
    basis[lane_idx, row_idx] = n + rank
    # Phase-I objective rows: per-lane reduced costs over that lane's
    # artificial rows only (zero when the lane is fully crashed).
    for k in np.flatnonzero(counts):
        sel = need_art[k]
        tabs[k, m, :n] = -a[k][sel].sum(axis=0)
        tabs[k, m, -1] = -b[k][sel].sum()
    return tabs, basis


def _install_phase2_objective_batch(
    tabs: np.ndarray,
    basis: np.ndarray,
    costs: np.ndarray,
    n: int,
    survivors: Sequence[int],
) -> None:
    """Install every survivor's real objective in its current basis.

    Row-lockstep version of the scalar ``_install_phase2_objective``: the
    elimination loop runs over *rows* (same 0..m-1 order every lane uses
    scalar-wise) with lanes whose factor is zero masked out of the
    subtraction — skipped, not subtracted-by-zero, because ``t - (-0.0)``
    would flip negative zeros the scalar path never touches.  Non-survivor
    lanes are masked out of every write.
    """
    m = tabs.shape[1] - 1
    batch = tabs.shape[0]
    sub = np.zeros(batch, dtype=bool)
    sub[list(survivors)] = True
    obj = tabs[:, m, :]
    obj[sub] = 0.0
    obj[sub, :n] = costs[sub]
    # factors[k, row] = c_k[basis[k, row]] for real basic variables, else 0.
    var_ok = basis < n
    factors = np.take_along_axis(costs, np.where(var_ok, basis, 0), axis=1)
    factors[~var_ok] = 0.0
    factors[~sub] = 0.0
    # Masked-out lanes still participate in the dense products; any 0 * inf
    # from a non-survivor's garbage tableau is never read.
    with np.errstate(invalid="ignore", over="ignore"):
        for row in range(m):
            f = factors[:, row]
            mask = np.abs(f) > 0
            if not mask.any():
                continue
            np.subtract(
                obj, f[:, None] * tabs[:, row, :], out=obj, where=mask[:, None]
            )


def _run_pivots_batch(
    tabs: np.ndarray,
    basis: np.ndarray,
    limit: int,
    budgets: np.ndarray,
    iterations: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Run per-problem Bland pivots in lockstep until every problem halts.

    ``tabs`` (batch, m+1, cols) and ``basis`` (batch, m) are updated in
    place; ``iterations`` accumulates per-problem pivot counts against
    ``budgets``.  Only problems listed in ``active`` participate.  Returns
    a per-problem termination-code vector (optimal/unbounded/budget).

    The loop deliberately operates on the *full* stack every iteration —
    halted problems execute bitwise no-op pivots (divide by 1.0, zero
    factors) instead of being gathered out, because batch-axis fancy
    indexing costs two full copies per step while a no-op lane is nearly
    free.  Decisions for halted lanes are garbage and masked out of the
    state updates.
    """
    batch, m1, cols = tabs.shape
    m = m1 - 1
    codes = np.full(batch, _OPTIMAL, dtype=np.int8)
    running = np.zeros(batch, dtype=bool)
    running[np.asarray(active, dtype=np.int64)] = True
    lanes = np.arange(batch)
    # Scratch reused across iterations: the (batch, m+1, cols) update block
    # is large enough that a fresh allocation per pivot would round-trip
    # through mmap, dwarfing the arithmetic.
    ratios = np.empty((batch, m))
    delta = np.empty((batch, m1, cols))
    update = np.empty((batch, m1), dtype=bool)
    # The budget comparison runs before the optimality scan (scalar check
    # order: a problem exactly at budget reports ITERATION_LIMIT even if
    # the next scan would have found it optimal), but it cannot *fire*
    # until the closest-to-budget running lane has pivoted ``headroom``
    # more times — so it is skipped until then.  A check that cannot
    # trigger is bitwise equivalent to one that runs and does nothing.
    headroom = 0
    # Halted lanes' no-op pivots can hit 0 * inf / inf * x in the dense
    # products; those entries are masked out of every read, so the
    # spurious warnings are silenced for the whole loop.
    with np.errstate(invalid="ignore", over="ignore"):
        while running.any():
            if headroom <= 0:
                over = running & (iterations >= budgets)
                codes[over] = _ITERATION_LIMIT
                running &= ~over
                if not running.any():
                    break
                headroom = int((budgets - iterations)[running].min())
            headroom -= 1
            # Bland's rule: first improving column, per problem.  argmax
            # returns the first True; when a lane has none it returns 0
            # and the gather reads False, so the single-element gather
            # replaces a full-width ``any`` reduction.
            improving = tabs[:, m, :limit] < -_TOL
            entering = improving.argmax(axis=1)
            running &= improving[lanes, entering]
            if not running.any():
                break
            # Each problem's entering column, objective row included — the
            # ratio test reads rows :m and the pivot reuses the same gather
            # as its factor column.
            colfull = tabs[lanes, :, entering]
            col = colfull[:, :m]
            rhs = tabs[:, :m, -1]
            positive = col > _TOL
            ratios.fill(np.inf)
            np.divide(rhs, col, out=ratios, where=positive)
            best = ratios.min(axis=1)
            # A lane is unbounded when no positive-coefficient row exists:
            # every ratio stays inf and the min is non-finite (a NaN min —
            # possible only from a non-finite tableau — also halts, where
            # the scalar path would fail its empty-candidates argmin).
            bounded = np.isfinite(best)
            codes[running & ~bounded] = _UNBOUNDED
            running &= bounded
            if not running.any():
                break
            # Bland's rule on ties: leave the row whose basic variable has
            # the smallest index.  Basis entries are distinct, so the
            # argmin over the candidate-masked basis row picks exactly the
            # scalar row.
            candidates = ratios <= (best + _TOL)[:, None]
            keyed = np.where(candidates, basis, _NO_CANDIDATE)
            leaving = keyed.argmin(axis=1)
            # Halted lanes pivot on (row 0, their own value forced to 1.0):
            # x / 1.0 and t - 0.0 are bitwise no-ops, so their tableaux are
            # untouched without any batch-axis gather/scatter.
            notrun = ~running
            leaving[notrun] = 0
            entering[notrun] = 0
            _pivot_batch(tabs, lanes, leaving, colfull, running, delta, update)
            basis[running, leaving[running]] = entering[running]
            iterations += running
    return codes


def _pivot_batch(
    tabs: np.ndarray,
    lanes: np.ndarray,
    rows: np.ndarray,
    colfull: np.ndarray,
    running: np.ndarray,
    delta: np.ndarray,
    update: np.ndarray,
) -> None:
    """Gaussian pivot on row ``rows[k]`` of each running problem ``k``.

    ``colfull`` is each problem's entering column (objective row
    included) as gathered by the driver *before* any update — it supplies
    both the pivot element and the per-row elimination factors, saving a
    second gather.  (The scalar path reads factors after normalizing the
    pivot row, but only the pivot row's own entry differs and that factor
    is forced to zero below, so the values used are identical.)

    Elementwise this is the exact operation sequence of the scalar
    ``_pivot`` — one divide for the pivot row, then one multiply and one
    subtract per updated element — so per-problem tableaux stay
    bit-identical to the scalar solver's.  Rows the scalar path skips
    (zero or non-finite factors) and entire halted lanes receive
    ``t - 0.0`` / ``x / 1.0``, both bitwise no-ops.
    """
    pivot_vals = np.where(running, colfull[lanes, rows], 1.0)
    pivot_rows = tabs[lanes, rows, :]  # advanced indexing: a fresh copy
    pivot_rows /= pivot_vals[:, None]
    tabs[lanes, rows, :] = pivot_rows
    factors = colfull
    factors[lanes, rows] = 0.0
    np.not_equal(factors, 0.0, out=update)
    update &= np.isfinite(factors)
    update &= running[:, None]
    # ``delta`` and ``update`` are caller-owned scratch (reused across
    # pivots); masked entries may hold 0 * inf garbage but are never read.
    np.multiply(factors[:, :, None], pivot_rows[:, None, :], out=delta)
    # Untouched rows are skipped outright — same as the scalar path's
    # boolean-mask row update, so their bits never change.
    np.subtract(tabs, delta, out=tabs, where=update[:, :, None])
