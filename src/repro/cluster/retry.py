"""Per-query retry policy: exponential backoff, jitter, budget.

Retries are how the cluster turns a replica failure into a served answer
— and also how a dying shard amplifies its own load if left uncapped.
Two mechanisms keep them safe:

* **exponential backoff + jitter** spaces attempts out and decorrelates
  the retry storms of concurrent callers;
* a **retry budget** (token bucket fed by first attempts) bounds the
  cluster-wide retry ratio, so at most ``budget_ratio`` extra load can
  ever be generated no matter how many replicas are failing.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

__all__ = ["RetryPolicy", "RetryBudget", "backoff_s"]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the cluster's per-query retry loop.

    Attributes
    ----------
    max_attempts:
        Total tries per query (first attempt included).
    base_backoff_s / backoff_multiplier / max_backoff_s:
        Sleep before retry ``n`` is ``base * multiplier**(n-1)``, capped.
    jitter:
        Fraction of each backoff randomized away (``0`` = deterministic
        full backoff, ``0.5`` = uniform in ``[0.5, 1] * backoff``).
    budget_ratio / budget_burst:
        Retry budget: retries may never exceed
        ``budget_ratio * first_attempts + budget_burst``.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.005
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 0.1
    jitter: float = 0.5
    budget_ratio: float = 0.2
    budget_burst: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.base_backoff_s < 0:
            raise ValueError("base_backoff_s must be non-negative")
        if self.backoff_multiplier < 1:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError("max_backoff_s must be >= base_backoff_s")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget_ratio < 0:
            raise ValueError("budget_ratio must be non-negative")
        if self.budget_burst < 0:
            raise ValueError("budget_burst must be non-negative")


def backoff_s(
    policy: RetryPolicy, retry: int, rng: random.Random | None = None
) -> float:
    """Sleep before the ``retry``-th retry (1-based), jittered via ``rng``.

    With a seeded ``rng`` the sequence is reproducible; ``None`` skips
    jitter entirely (the deterministic upper envelope).
    """
    if retry < 1:
        raise ValueError("retry is 1-based")
    delay = min(
        policy.base_backoff_s * policy.backoff_multiplier ** (retry - 1),
        policy.max_backoff_s,
    )
    if rng is not None and policy.jitter > 0:
        delay *= 1.0 - policy.jitter * rng.random()
    return delay


class RetryBudget:
    """Token bucket capping cluster-wide retry amplification.

    Every first attempt deposits ``ratio`` tokens; every retry withdraws
    one.  ``burst`` tokens are granted up front so a cold cluster can
    still fail over.  When the bucket is empty, :meth:`allow_retry`
    refuses — the query degrades instead of hammering a dying shard.
    """

    def __init__(self, ratio: float = 0.2, burst: int = 3) -> None:
        if ratio < 0:
            raise ValueError("ratio must be non-negative")
        if burst < 0:
            raise ValueError("burst must be non-negative")
        self.ratio = ratio
        self.burst = burst
        self._lock = threading.Lock()
        self._attempts = 0
        self._retries = 0
        self._denied = 0

    def note_attempt(self) -> None:
        """Record one first attempt (earns ``ratio`` of a retry token)."""
        with self._lock:
            self._attempts += 1

    def allow_retry(self) -> bool:
        """Spend one retry token if any remain; False when exhausted."""
        with self._lock:
            allowed = self._retries < self.ratio * self._attempts + self.burst
            if allowed:
                self._retries += 1
            else:
                self._denied += 1
            return allowed

    def snapshot(self) -> dict:
        """Plain-dict budget state for metrics."""
        with self._lock:
            return {
                "attempts": self._attempts,
                "retries": self._retries,
                "denied": self._denied,
                "ratio": self.ratio,
                "burst": self.burst,
            }
