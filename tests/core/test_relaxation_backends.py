"""Cross-checks between the simplex and sparse relaxation backends."""

import numpy as np
import pytest

from repro.core import ConstraintSystem, solve_relaxation
from repro.core.relaxation import _solve_relaxation_sparse
from repro.core.constraints import ConstraintKind, WeightedConstraint
from repro.geometry import HalfSpace


def random_system(seed: int, rows: int) -> ConstraintSystem:
    rng = np.random.default_rng(seed)
    constraints = []
    for k in range(rows):
        theta = rng.uniform(0, 2 * np.pi)
        constraints.append(
            WeightedConstraint(
                HalfSpace(
                    float(np.cos(theta)),
                    float(np.sin(theta)),
                    float(rng.uniform(-3, 5)),
                ),
                float(rng.uniform(0.5, 2.0)),
                ConstraintKind.PAIRWISE,
                label=f"r{k}",
            )
        )
    # Bound the problem.
    constraints += [
        WeightedConstraint(HalfSpace(1, 0, 50), 100.0, ConstraintKind.BOUNDARY),
        WeightedConstraint(HalfSpace(-1, 0, 50), 100.0, ConstraintKind.BOUNDARY),
        WeightedConstraint(HalfSpace(0, 1, 50), 100.0, ConstraintKind.BOUNDARY),
        WeightedConstraint(HalfSpace(0, -1, 50), 100.0, ConstraintKind.BOUNDARY),
    ]
    return ConstraintSystem(tuple(constraints))


class TestBackendConsistency:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_optimal_cost(self, seed):
        """Both backends reach the same optimum (the LP is the same)."""
        system = random_system(seed, rows=20)
        a, b, w = system.matrices()
        dense = solve_relaxation(system)  # small -> simplex path
        sparse = _solve_relaxation_sparse(system)
        assert dense.cost == pytest.approx(sparse.cost, abs=1e-6)
        # Both solutions satisfy their own relaxed systems.
        for res in (dense, sparse):
            assert np.all(a @ res.feasible_point - res.slacks <= b + 1e-6)

    def test_large_system_routes_to_sparse_and_is_fast(self):
        import time

        system = random_system(99, rows=400)
        start = time.perf_counter()
        result = solve_relaxation(system)
        elapsed = time.perf_counter() - start
        assert result.slacks.shape == (len(system),)
        assert elapsed < 2.0  # the dense tableau would take far longer

    def test_feasible_large_system_zero_cost(self):
        rng = np.random.default_rng(5)
        constraints = []
        # All halfspaces contain the origin: jointly feasible.
        for k in range(200):
            theta = rng.uniform(0, 2 * np.pi)
            constraints.append(
                WeightedConstraint(
                    HalfSpace(
                        float(np.cos(theta)),
                        float(np.sin(theta)),
                        float(rng.uniform(0.5, 5.0)),
                    ),
                    1.0,
                    ConstraintKind.PAIRWISE,
                )
            )
        result = solve_relaxation(ConstraintSystem(tuple(constraints)))
        assert result.was_feasible
