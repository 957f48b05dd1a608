"""Serving layer: batched, cached, concurrent localization queries.

The production-facing face of the reproduction (see DESIGN.md, "Serving
architecture"): a :class:`LocalizationService` that answers anchor-set
queries from a long-lived process, reusing the topology-dependent
constraint prefix across queries, running queries inline or on worker
processes, shedding load through a bounded admission queue, and
degrading gracefully to the weighted-centroid baseline when the LP
fails or a deadline expires.
"""

from .cache import BisectorCache, CacheStats, LocalizerCache, topology_key
from .metrics import LatencyReservoir, ServiceMetrics, json_safe, percentile
from .procpool import ProcessPool
from .queueing import AdmissionQueue, QueueFullError
from .service import (
    LocalizationRequest,
    LocalizationResponse,
    LocalizationService,
    ServiceClosedError,
    ServingConfig,
    weighted_centroid,
)

__all__ = [
    "AdmissionQueue",
    "BisectorCache",
    "CacheStats",
    "json_safe",
    "LatencyReservoir",
    "LocalizationRequest",
    "LocalizationResponse",
    "LocalizationService",
    "LocalizerCache",
    "percentile",
    "ProcessPool",
    "QueueFullError",
    "ServiceClosedError",
    "ServiceMetrics",
    "ServingConfig",
    "topology_key",
    "weighted_centroid",
]
