"""Cluster-level metrics: routing counters + fleet-wide aggregation.

Two layers of observability meet here.  The cluster's own counters
(routed queries, failovers, retries, degraded/unavailable
answers) live in :class:`ClusterMetrics` with a latency reservoir
reused from the serving layer.  Per-replica
:class:`~repro.serving.metrics.ServiceMetrics` snapshots are merged by
:func:`merge_service_snapshots` into one fleet view — summed counters,
worst-case queue depth — so "how loaded is the cluster" is one dict, not
``shards × replicas`` of them.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping, Sequence

from ..serving.metrics import LatencyReservoir, json_safe

__all__ = ["ClusterMetrics", "merge_service_snapshots"]

#: ServiceMetrics counters that sum meaningfully across a fleet.
_SUMMED_KEYS = (
    "admitted",
    "rejected",
    "completed",
    "degraded",
    "timeouts",
    "lp_failures",
    "cache_hits",
    "cache_misses",
    "queue_rejected_total",
    "degraded_links_total",
    "rejected_links_total",
)


class ClusterMetrics:
    """Thread-safe counters + latency reservoir for one cluster.

    Event vocabulary (called by
    :class:`~repro.cluster.cluster.LocalizationCluster`):

    * :meth:`record_query` — one routed query finished, with its
      failover/retry history and outcome flags;
    * :meth:`record_retry_denied` — the retry budget refused a retry;
    * :meth:`record_heartbeat_round` — one probe sweep ran.
    """

    def __init__(self, latency_window: int = 2048) -> None:
        self._lock = threading.Lock()
        self._latencies = LatencyReservoir(latency_window)
        self._started = time.perf_counter()
        self.routed = 0
        self.answered = 0
        self.unavailable = 0
        self.degraded = 0
        self.stale_flagged = 0
        self.failovers = 0
        self.retries = 0
        self.retry_denied = 0
        self.heartbeat_rounds = 0

    def record_query(
        self,
        latency_s: float,
        *,
        degraded: bool = False,
        stale: bool = False,
        failovers: int = 0,
        retries: int = 0,
        unavailable: bool = False,
    ) -> None:
        """One routed query finished (possibly via the fallback)."""
        with self._lock:
            self.routed += 1
            self._latencies.observe(latency_s)
            if unavailable:
                self.unavailable += 1
            else:
                self.answered += 1
            if degraded:
                self.degraded += 1
            if stale:
                self.stale_flagged += 1
            self.failovers += failovers
            self.retries += retries

    def record_failover(self, n: int = 1) -> None:
        """Failover attempts seen outside :meth:`record_query`.

        The coalesced batch path fires fault hooks before routing; a
        query knocked out of its run there fails over exactly like the
        scalar path's mid-route failure, but its eventual ``_route``
        retry no longer sees that attempt — this keeps the fleet counter
        honest.
        """
        with self._lock:
            self.failovers += n

    def record_retry_denied(self) -> None:
        """The retry budget refused a retry (load-amplification guard)."""
        with self._lock:
            self.retry_denied += 1

    def record_heartbeat_round(self) -> None:
        """One probe sweep over every replica completed."""
        with self._lock:
            self.heartbeat_rounds += 1

    def snapshot(self) -> dict:
        """Point-in-time cluster counters as a plain dict.

        ``availability`` is the served fraction — every query the
        cluster answered from a replica (full or flagged-degraded)
        over every query routed; only the all-replicas-down fallback
        counts against it.
        """
        with self._lock:
            elapsed = time.perf_counter() - self._started
            snap = {
                "uptime_s": elapsed,
                "routed": self.routed,
                "answered": self.answered,
                "unavailable": self.unavailable,
                "degraded": self.degraded,
                "stale_flagged": self.stale_flagged,
                "failovers": self.failovers,
                "retries": self.retries,
                "retry_denied": self.retry_denied,
                "heartbeat_rounds": self.heartbeat_rounds,
                "availability": (
                    self.answered / self.routed if self.routed else 1.0
                ),
                "throughput_qps": self.routed / elapsed if elapsed > 0 else 0.0,
                "latency_mean_s": self._latencies.mean(),
            }
            snap.update(
                {
                    f"latency_{k}_s": v
                    for k, v in self._latencies.quantiles().items()
                }
            )
            return snap

    def to_json(self) -> dict:
        """:meth:`snapshot` as a JSON-serializable dict with sorted keys.

        Same contract as
        :meth:`repro.serving.metrics.ServiceMetrics.to_json` — the form
        the gateway's ``/metrics`` endpoint ships on the wire.
        """
        return json_safe(self.snapshot())


def merge_service_snapshots(snapshots: Sequence[Mapping]) -> dict:
    """Fleet-wide roll-up of per-replica ServiceMetrics snapshots.

    Counters sum; ``queue_depth`` takes the worst replica; cache hit
    rate is recomputed from the summed lookups.
    """
    merged: dict = {key: 0 for key in _SUMMED_KEYS}
    merged["queue_depth"] = 0
    for snap in snapshots:
        for key in _SUMMED_KEYS:
            merged[key] += int(snap.get(key, 0))
        merged["queue_depth"] = max(
            merged["queue_depth"], int(snap.get("queue_depth", 0))
        )
    lookups = merged["cache_hits"] + merged["cache_misses"]
    merged["cache_hit_rate"] = (
        merged["cache_hits"] / lookups if lookups else 0.0
    )
    merged["replica_count"] = len(snapshots)
    return merged
