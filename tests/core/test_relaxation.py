"""Tests for the weighted relaxation LP (Eq. 19)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Anchor,
    ConstraintKind,
    ConstraintSystem,
    WeightedConstraint,
    boundary_constraints,
    pairwise_constraints,
    solve_relaxation,
)
from repro.geometry import HalfSpace, Point, Polygon


def wc(ax, ay, b, weight, label=""):
    return WeightedConstraint(
        HalfSpace(ax, ay, b), weight, ConstraintKind.PAIRWISE, label
    )


class TestFeasibleCase:
    def test_zero_cost_when_feasible(self):
        """Eq. 19 equals Eq. 16 when a feasible point exists."""
        system = ConstraintSystem(
            (
                wc(1, 0, 5, 1.0),
                wc(-1, 0, 0, 1.0),
                wc(0, 1, 5, 1.0),
                wc(0, -1, 0, 1.0),
            )
        )
        result = solve_relaxation(system)
        assert result.was_feasible
        assert result.cost == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(result.slacks, 0.0, atol=1e-8)
        assert result.violated_labels() == []
        # The feasible point must satisfy the original constraints.
        a, b, _ = system.matrices()
        assert np.all(a @ result.feasible_point <= b + 1e-8)

    def test_relaxed_halfspaces_identical_when_feasible(self):
        system = ConstraintSystem((wc(1, 0, 5, 1.0), wc(-1, 0, 0, 1.0)))
        result = solve_relaxation(system)
        _, b, _ = system.matrices()
        np.testing.assert_allclose(b + result.slacks, b, atol=1e-8)


class TestInfeasibleCase:
    def test_cheapest_constraint_sacrificed(self):
        """x <= 0 (weight 10) conflicts with x >= 2 (weight 1)."""
        system = ConstraintSystem(
            (
                wc(1, 0, 0, 10.0, "keep"),
                wc(-1, 0, -2, 1.0, "break"),
                wc(0, 1, 1, 5.0),
                wc(0, -1, 1, 5.0),
            )
        )
        result = solve_relaxation(system)
        assert not result.was_feasible
        assert result.violated_labels() == ["break"]
        # Slack on the broken row is the gap (2), cost = w * t = 2.
        assert result.cost == pytest.approx(2.0, abs=1e-6)
        assert result.slacks[1] == pytest.approx(2.0, abs=1e-6)

    def test_weight_ordering_decides_victim(self):
        """Swapping the weights swaps which constraint gets broken."""
        base = [
            (1, 0, 0),  # x <= 0
            (-1, 0, -2),  # x >= 2
        ]
        for w_first, expect in ((10.0, "second"), (0.1, "first")):
            system = ConstraintSystem(
                (
                    wc(*base[0], w_first, "first"),
                    wc(*base[1], 1.0, "second"),
                    wc(0, 1, 1, 50.0),
                    wc(0, -1, 1, 50.0),
                )
            )
            result = solve_relaxation(system)
            assert result.violated_labels() == [expect]

    def test_relaxed_region_nonempty(self):
        system = ConstraintSystem(
            (
                wc(1, 0, 0, 3.0),
                wc(-1, 0, -2, 1.0),
                wc(0, 1, 1, 3.0),
                wc(0, -1, 1, 3.0),
            )
        )
        result = solve_relaxation(system)
        # Every row loosened by its slack: A z <= b + t holds at the LP's z.
        a, b, _ = system.matrices()
        assert np.all(a @ result.feasible_point <= b + result.slacks + 1e-6)

    def test_boundary_weight_protects_area(self):
        """A rogue high-PDP judgement cannot push z outside the boundary."""
        area = Polygon.rectangle(0, 0, 10, 10)
        # Wrong judgement: "closer to (50, 5) than (5, 5)" — outside pull.
        rogue = pairwise_constraints(
            [Anchor("far", Point(50, 5), 9.0), Anchor("near", Point(5, 5), 1.0)]
        )
        system = ConstraintSystem(
            tuple(rogue) + tuple(boundary_constraints(area))
        )
        result = solve_relaxation(system)
        z = result.feasible_point
        assert -1e-6 <= z[0] <= 10 + 1e-6
        assert -1e-6 <= z[1] <= 10 + 1e-6
        # The rogue row is the one relaxed, not the boundary.
        assert result.violated_labels() == ["far<near"]


class TestValidation:
    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            solve_relaxation(ConstraintSystem(()))


class TestRelaxationProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_cost_zero_iff_feasible_random_systems(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(2, 8))
        rows = []
        for k in range(n_rows):
            ax, ay = rng.uniform(-1, 1, 2)
            if abs(ax) + abs(ay) < 0.1:
                ax = 1.0
            rows.append(
                wc(
                    ax,
                    ay,
                    float(rng.uniform(-3, 3)),
                    float(rng.uniform(0.1, 5)),
                    f"r{k}",
                )
            )
        # Bound the problem so the LP stays bounded.
        rows += [
            wc(1, 0, 50, 100.0),
            wc(-1, 0, 50, 100.0),
            wc(0, 1, 50, 100.0),
            wc(0, -1, 50, 100.0),
        ]
        system = ConstraintSystem(tuple(rows))
        result = solve_relaxation(system)
        a, b, _ = system.matrices()
        # Exact geometric feasibility check via clipping.
        from repro.geometry import intersect_halfspaces

        region = intersect_halfspaces(
            [c.halfspace for c in system.constraints],
            Polygon.rectangle(-60, -60, 60, 60),
        )
        if region is not None:
            assert result.cost <= 1e-5
        # Always: the relaxed solution satisfies the relaxed constraints.
        assert np.all(a @ result.feasible_point - result.slacks <= b + 1e-6)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_slacks_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        rows = [
            wc(
                float(np.cos(t)),
                float(np.sin(t)),
                float(rng.uniform(-2, 2)),
                float(rng.uniform(0.5, 2)),
            )
            for t in rng.uniform(0, 2 * np.pi, 6)
        ]
        result = solve_relaxation(ConstraintSystem(tuple(rows)))
        assert np.all(result.slacks >= -1e-9)
