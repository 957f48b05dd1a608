"""Tests for retry policy, backoff and the retry budget."""

import random

import pytest

from repro.cluster import RetryBudget, RetryPolicy, backoff_s


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_backoff_s": -0.1},
            {"backoff_multiplier": 0.5},
            {"base_backoff_s": 0.2, "max_backoff_s": 0.1},
            {"jitter": 1.5},
            {"budget_ratio": -0.1},
            {"budget_burst": -1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_defaults_valid(self):
        RetryPolicy()  # does not raise


class TestBackoff:
    def test_retry_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_s(RetryPolicy(), 0)

    def test_deterministic_exponential_envelope(self):
        policy = RetryPolicy(
            base_backoff_s=0.01, backoff_multiplier=2.0, max_backoff_s=1.0
        )
        assert backoff_s(policy, 1) == pytest.approx(0.01)
        assert backoff_s(policy, 2) == pytest.approx(0.02)
        assert backoff_s(policy, 3) == pytest.approx(0.04)

    def test_capped_at_max(self):
        policy = RetryPolicy(
            base_backoff_s=0.01, backoff_multiplier=10.0, max_backoff_s=0.05
        )
        assert backoff_s(policy, 5) == pytest.approx(0.05)

    def test_jitter_shrinks_within_bounds_and_reproduces(self):
        policy = RetryPolicy(base_backoff_s=0.01, jitter=0.5)
        first = backoff_s(policy, 1, random.Random(7))
        again = backoff_s(policy, 1, random.Random(7))
        assert first == again  # seeded -> reproducible
        assert 0.005 <= first <= 0.01  # within [1 - jitter, 1] * base


class TestRetryBudget:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(burst=-1)

    def test_burst_grants_cold_start_retries(self):
        budget = RetryBudget(ratio=0.0, burst=2)
        assert budget.allow_retry()
        assert budget.allow_retry()
        assert not budget.allow_retry()

    def test_attempts_earn_retry_tokens(self):
        budget = RetryBudget(ratio=0.5, burst=0)
        assert not budget.allow_retry()  # nothing earned yet
        for _ in range(4):
            budget.note_attempt()
        assert budget.allow_retry()
        assert budget.allow_retry()
        assert not budget.allow_retry()  # 0.5 * 4 = 2 tokens spent

    def test_snapshot_reports_ledger(self):
        budget = RetryBudget(ratio=0.0, burst=1)
        budget.note_attempt()
        budget.allow_retry()
        budget.allow_retry()
        snap = budget.snapshot()
        assert snap["attempts"] == 1
        assert snap["retries"] == 1
        assert snap["denied"] == 1
        assert snap["ratio"] == 0.0
        assert snap["burst"] == 1
