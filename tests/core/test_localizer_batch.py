"""Winner-only lazy geometry in the batched localizer.

``locate_batch`` only clips/centres the co-optimal winner pieces; losing
pieces get :class:`_LazyPieceSolution` stand-ins whose geometry
materializes on first access, as a one-piece group of the same path.  These tests pin
the laziness itself (losers really do skip the geometry), the
materialized values (bit-identical to the eager path), and the pickle
escape hatch (process pools must receive plain eager solutions).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LocalizerConfig,
    NomLocLocalizer,
    NomLocSystem,
    SystemConfig,
)
from repro.core.center import CenterMethod
from repro.core.localizer import PieceSolution, _LazyPieceSolution
from repro.environment import SCENARIOS, get_scenario


def gather_queries(name, count, seed=23, packets=6):
    """A scenario plus ``count`` deterministic anchor sets."""
    scenario = get_scenario(name)
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=packets))
    sites = scenario.test_sites
    queries = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        queries.append(system.gather_anchors(sites[i % len(sites)], rng))
    return scenario, queries


def split_lazy(estimates):
    """(lazy, eager) piece solutions across a batch of estimates."""
    lazy, eager = [], []
    for est in estimates:
        for sol in est.pieces:
            (lazy if isinstance(sol, _LazyPieceSolution) else eager).append(sol)
    return lazy, eager


class TestWinnerOnlyLaziness:
    """Losers stay lazy until read; winners come back eager."""

    def test_losers_lazy_winners_eager(self):
        # "lobby" is the non-convex scenario (2 pieces), so queries where
        # one piece clearly wins leave the other as a lazy loser.
        scenario, queries = gather_queries("lobby", 6)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        estimates = localizer.locate_batch(queries)
        lazy, eager = split_lazy(estimates)
        assert lazy, "expected at least one losing piece across 6 queries"
        assert eager, "every query must have an eager winner"
        tol = localizer.config.cost_merge_tolerance
        for est in estimates:
            best = min(sol.cost for sol in est.pieces)
            for sol in est.pieces:
                is_winner = sol.cost <= best + tol
                assert isinstance(sol, _LazyPieceSolution) == (not is_winner)
        # Losers have not run any geometry yet.
        for sol in lazy:
            assert sol._geometry is None

    def test_lazy_materialization_matches_scalar(self):
        scenario, queries = gather_queries("lobby", 6)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        estimates = localizer.locate_batch(queries)
        for anchors, est in zip(queries, estimates):
            shared = localizer.build_shared_constraints(anchors)
            for sol in est.pieces:
                ref = localizer.solve_piece(sol.piece_index, shared)
                # First access triggers materialization for lazy losers.
                assert sol.center == ref.center
                if ref.region is None:
                    assert sol.region is None
                else:
                    assert [(p.x, p.y) for p in sol.region.vertices] == [
                        (p.x, p.y) for p in ref.region.vertices
                    ]
                if isinstance(sol, _LazyPieceSolution):
                    assert sol._geometry is not None  # cached after read

    def test_pickle_materializes_to_eager_solution(self):
        scenario, queries = gather_queries("lobby", 6)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        estimates = localizer.locate_batch(queries)
        lazy, _ = split_lazy(estimates)
        assert lazy
        for sol in lazy:
            clone = pickle.loads(pickle.dumps(sol))
            assert type(clone) is PieceSolution  # the thunk never ships
            assert clone.piece_index == sol.piece_index
            assert clone.cost == sol.cost
            assert clone.center == sol.center
            if sol.region is None:
                assert clone.region is None
            else:
                assert [(p.x, p.y) for p in clone.region.vertices] == [
                    (p.x, p.y) for p in sol.region.vertices
                ]

    def test_solve_pieces_batch_matches_solve_piece(self):
        scenario, queries = gather_queries("lobby", 3)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        indices = list(range(len(localizer.pieces)))
        for anchors in queries:
            shared = localizer.build_shared_constraints(anchors)
            batched = localizer.solve_pieces_batch(indices, shared)
            for index, sol in zip(indices, batched):
                ref = localizer.solve_piece(index, shared)
                assert sol.cost == ref.cost
                assert sol.center == ref.center


class TestLazyVsEagerEstimates:
    """locate_batch must be bit-identical to locate, per query, always."""

    @given(
        name=st.sampled_from(sorted(SCENARIOS)),
        method=st.sampled_from(list(CenterMethod)),
        seed=st.integers(min_value=0, max_value=10**4),
    )
    @settings(max_examples=12, deadline=None)
    def test_positions_bit_identical(self, name, method, seed):
        scenario, queries = gather_queries(name, 2, seed=seed)
        localizer = NomLocLocalizer(
            scenario.plan.boundary, LocalizerConfig(center_method=method)
        )
        batched = localizer.locate_batch(queries)
        for anchors, est in zip(queries, batched):
            scalar = localizer.locate(anchors)
            assert scalar.position == est.position
            assert scalar.relaxation_cost == est.relaxation_cost
            assert scalar.num_constraints == est.num_constraints
            if scalar.region is None:
                assert est.region is None
            else:
                assert [(p.x, p.y) for p in scalar.region.vertices] == [
                    (p.x, p.y) for p in est.region.vertices
                ]

    def test_empty_batch(self):
        scenario, _ = gather_queries("lab", 0)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        assert localizer.locate_batch([]) == []

    def test_quality_weights_length_mismatch_rejected(self):
        scenario, queries = gather_queries("lab", 2)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        with pytest.raises(ValueError, match="length must match"):
            localizer.locate_batch(queries, quality_weights=[None])

    def test_empty_quality_weights_rejected_not_ignored(self):
        # An empty list is a length mismatch, not "no weights".
        scenario, queries = gather_queries("lab", 2)
        localizer = NomLocLocalizer(scenario.plan.boundary)
        with pytest.raises(ValueError, match="length must match"):
            localizer.locate_batch(queries, quality_weights=[])
