"""Service-side observability for the localization service.

A deliberately dependency-free metrics core: thread-safe counters, a
bounded latency reservoir with percentile queries, and a plain-dict
``snapshot()`` any exporter (logs, JSON endpoint, test assertion) can
consume.  Nothing here knows about the localizer — the service feeds it
events.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from collections import deque
from typing import Any, Mapping

from ..obs import percentile

__all__ = ["LatencyReservoir", "ServiceMetrics", "json_safe", "percentile"]


def json_safe(value: Any) -> Any:
    """Coerce a metrics snapshot into a strictly JSON-serializable form.

    The contract exporters rely on: dicts come back with **sorted,
    stringified keys** (stable wire order regardless of insertion
    history), tuples/sets become lists, enums collapse to their values,
    and non-finite floats — which ``json.dumps`` rejects or emits as
    non-standard ``NaN`` — become ``None``.  Unknown objects fall back to
    ``str``, so a snapshot never fails to serialize.
    """
    if isinstance(value, Mapping):
        return {
            str(key): json_safe(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [json_safe(item) for item in items]
    if isinstance(value, enum.Enum):
        return json_safe(value.value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (int, str)):
        return value
    return str(value)


class LatencyReservoir:
    """Bounded reservoir of recent per-query latencies (seconds).

    Keeps the most recent ``capacity`` observations — a sliding window,
    not a random sample, which is the right bias for a serving dashboard
    ("how slow are we *now*").
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self._window: deque[float] = deque(maxlen=capacity)
        self._count = 0
        self._total = 0.0

    def __len__(self) -> int:
        return len(self._window)

    def observe(self, latency_s: float) -> None:
        """Record one query latency."""
        self._window.append(float(latency_s))
        self._count += 1
        self._total += float(latency_s)

    @property
    def count(self) -> int:
        """Total observations ever recorded (not just the window)."""
        return self._count

    def mean(self) -> float:
        """Mean latency over *all* observations."""
        return self._total / self._count if self._count else 0.0

    def quantiles(self, ranks=(50.0, 95.0, 99.0)) -> dict[str, float]:
        """``{"p50": ..., ...}`` over the current window (empty → zeros)."""
        if not self._window:
            return {f"p{rank:g}": 0.0 for rank in ranks}
        snapshot = list(self._window)
        return {f"p{rank:g}": percentile(snapshot, rank) for rank in ranks}


class ServiceMetrics:
    """Thread-safe counters + latency reservoir for one service instance.

    Event vocabulary (all called by :class:`~repro.serving.service.\
LocalizationService`):

    * :meth:`record_admitted` / :meth:`record_rejected` — admission;
    * :meth:`record_queue_wait` — admission-to-worker-pickup delay;
    * :meth:`record_completed` — query finished (possibly degraded);
    * :meth:`record_cache` — topology-cache hit/miss per query.
    """

    def __init__(self, latency_window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._latencies = LatencyReservoir(latency_window)
        self._queue_waits = LatencyReservoir(latency_window)
        self._started = time.perf_counter()
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.degraded = 0
        self.timeouts = 0
        self.lp_failures = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.degraded_links_total = 0
        self.rejected_links_total = 0

    def record_admitted(self) -> None:
        """One request passed admission control."""
        with self._lock:
            self.admitted += 1

    def record_rejected(self) -> None:
        """One request bounced off the full queue (backpressure)."""
        with self._lock:
            self.rejected += 1

    def record_queue_wait(self, wait_s: float) -> None:
        """Time one request spent between admission and worker pickup.

        Only the pooled paths (``submit``/``batch``/``serve``) report
        this; a synchronous ``locate`` never waits.  Splitting queue wait
        from compute is what distinguishes "the solver got slower" from
        "the pool is saturated" — the two remedies are different.
        """
        with self._lock:
            self._queue_waits.observe(wait_s)

    def record_gating(self, degraded: int, rejected: int) -> None:
        """One gated query's link tallies from the guard layer.

        ``degraded`` links were kept with scaled weights; ``rejected``
        links were dropped before the LP (see :mod:`repro.guard`).
        Only queries carrying a gate result report here — ungated
        traffic leaves both counters untouched.
        """
        with self._lock:
            self.degraded_links_total += int(degraded)
            self.rejected_links_total += int(rejected)

    def record_cache(self, hit: bool) -> None:
        """One topology-cache lookup outcome."""
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def record_completed(
        self,
        latency_s: float,
        degraded: bool = False,
        timed_out: bool = False,
        lp_failed: bool = False,
    ) -> None:
        """One query finished (normally or via the degraded path)."""
        with self._lock:
            self.completed += 1
            self._latencies.observe(latency_s)
            if degraded:
                self.degraded += 1
            if timed_out:
                self.timeouts += 1
            if lp_failed:
                self.lp_failures += 1

    def snapshot(self, queue_depth: int = 0, queue_rejected: int = 0) -> dict:
        """Point-in-time view of the service as a plain dict.

        ``queue_depth`` and ``queue_rejected`` are passed in by the
        service because the queue, not the metrics object, owns that
        state; ``queue_rejected`` additionally counts blocking-admission
        timeouts the service-level ``rejected`` counter never sees.
        """
        with self._lock:
            elapsed = time.perf_counter() - self._started
            lookups = self.cache_hits + self.cache_misses
            snap = {
                "uptime_s": elapsed,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "degraded": self.degraded,
                "timeouts": self.timeouts,
                "lp_failures": self.lp_failures,
                "queue_depth": queue_depth,
                "queue_rejected_total": queue_rejected,
                "throughput_qps": self.completed / elapsed if elapsed > 0 else 0.0,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_hit_rate": self.cache_hits / lookups if lookups else 0.0,
                "degraded_links_total": self.degraded_links_total,
                "rejected_links_total": self.rejected_links_total,
                "latency_mean_s": self._latencies.mean(),
            }
            snap.update(
                {
                    f"latency_{k}_s": v
                    for k, v in self._latencies.quantiles().items()
                }
            )
            snap["queue_wait_mean_s"] = self._queue_waits.mean()
            snap.update(
                {
                    f"queue_wait_{k}_s": v
                    for k, v in self._queue_waits.quantiles(
                        (50.0, 95.0)
                    ).items()
                }
            )
            return snap

    def to_json(self, queue_depth: int = 0, queue_rejected: int = 0) -> dict:
        """:meth:`snapshot` as a JSON-serializable dict with sorted keys.

        The exporter-facing form (the gateway's ``/metrics`` endpoint,
        log shippers, test assertions): ``json.dumps`` never raises on
        it, and key order is stable across processes and runs.
        """
        return json_safe(
            self.snapshot(
                queue_depth=queue_depth, queue_rejected=queue_rejected
            )
        )
