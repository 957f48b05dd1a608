"""Cluster layer: sharded, replicated, fault-tolerant localization.

The distribution story over :mod:`repro.serving` (see DESIGN.md,
"Cluster architecture"): a :class:`LocalizationCluster` runs a fleet of
:class:`~repro.serving.LocalizationService` replicas behind a
deterministic consistent-hash router.  Topology keys pin each venue's
queries to one shard (hot constraint caches), N-way replica groups give
each shard redundancy, a heartbeat-driven health state machine feeds
automatic failover, and budget-capped retries with backoff bound the
blast radius of a dying replica.  A scripted
:class:`FaultPlan` injects crashes, latency spikes, queue-full storms
and stale-topology windows so all of it is provable:

* no faults → answers **bit-identical** to one sequential service, for
  any shard/replica count;
* faults → availability degrades gracefully and every non-fresh answer
  is flagged, never silently wrong.
"""

from .cluster import (
    ClusterConfig,
    ClusterReplica,
    ClusterResponse,
    LocalizationCluster,
)
from .faults import Fault, FaultInjector, FaultKind, FaultPlan, ReplicaCrashed
from .health import HealthMonitor, ReplicaState
from .metrics import ClusterMetrics, merge_service_snapshots
from .retry import RetryBudget, RetryPolicy, backoff_s
from .router import ShardRouter, route_key, stable_hash

__all__ = [
    "backoff_s",
    "ClusterConfig",
    "ClusterMetrics",
    "ClusterReplica",
    "ClusterResponse",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "HealthMonitor",
    "LocalizationCluster",
    "merge_service_snapshots",
    "ReplicaCrashed",
    "ReplicaState",
    "RetryBudget",
    "RetryPolicy",
    "route_key",
    "ShardRouter",
    "stable_hash",
]
