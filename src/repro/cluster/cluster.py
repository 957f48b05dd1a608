"""`LocalizationCluster`: sharded, replicated, fault-tolerant serving.

A fleet of :class:`~repro.serving.LocalizationService` replicas behind a
deterministic router.  Queries are consistent-hashed by topology key
(:func:`~repro.cluster.router.route_key`) onto shards so each shard's
constraint caches stay hot; each shard is an N-way replica group with
heartbeat-driven health states, automatic failover, budget-capped
retries with exponential backoff.

The contract that makes all of this verifiable:

* **No faults injected** → cluster answers are *bit-identical* to a
  single sequential :class:`~repro.serving.LocalizationService`, for any
  shard/replica count.  Every replica runs the same deterministic
  pipeline, and routing/failover only choose *which* replica computes —
  never *what* it computes.
* **Faults injected** → availability degrades gracefully (failover,
  retry, weighted-centroid fallback) and every answer that is
  not the full fresh SP estimate is **flagged** (``degraded`` +
  ``reason``), never silently wrong.  Stale-topology answers — a replica
  that missed a nomadic-AP move — are flagged ``"stale-topology"``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ..core import Anchor, LocalizerConfig, LocationEstimate
from ..geometry import Point, Polygon
from ..obs import aggregate, get_tracer, span
from ..serving import (
    LocalizationRequest,
    LocalizationResponse,
    LocalizationService,
    QueueFullError,
    ServingConfig,
    weighted_centroid,
)
from ..serving.cache import LocalizerCache
from ..serving.metrics import json_safe
from .faults import FaultInjector, FaultPlan, ReplicaCrashed
from .health import HealthMonitor, ReplicaState
from .metrics import ClusterMetrics, merge_service_snapshots
from .retry import RetryBudget, RetryPolicy, backoff_s
from .router import ShardRouter, route_key

__all__ = [
    "ClusterConfig",
    "ClusterReplica",
    "ClusterResponse",
    "LocalizationCluster",
]

#: Failures the router fails over on; anything else is a programming
#: error and propagates.
_FAILOVER_ERRORS = (ReplicaCrashed, QueueFullError, TimeoutError)


@dataclass(frozen=True)
class ClusterConfig:
    """Operational knobs of a :class:`LocalizationCluster`.

    Attributes
    ----------
    num_shards / replicas_per_shard / vnodes_per_shard:
        Fleet shape (see :class:`~repro.cluster.router.ShardRouter`).
    retry:
        Per-query :class:`~repro.cluster.retry.RetryPolicy` (backoff,
        budget).
    serving:
        Per-replica :class:`~repro.serving.ServingConfig`; the default
        sequential config is the bit-exactness reference.
    suspect_after / dead_after / rejoin_after:
        Health state-machine thresholds
        (see :class:`~repro.cluster.health.HealthMonitor`).
    heartbeat_every:
        Run a heartbeat sweep every N routed queries (``0`` = only when
        :meth:`LocalizationCluster.heartbeat` is called explicitly).
        Count-based, not time-based, so drills are deterministic.
    seed:
        Seed of the backoff-jitter RNG (timing only, never results).
    latency_window:
        Size of the cluster-level latency reservoir.
    """

    num_shards: int = 1
    replicas_per_shard: int = 1
    vnodes_per_shard: int = 64
    retry: RetryPolicy = RetryPolicy()
    serving: ServingConfig = ServingConfig()
    suspect_after: int = 1
    dead_after: int = 3
    rejoin_after: int = 2
    heartbeat_every: int = 0
    seed: int = 0
    latency_window: int = 2048

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if self.replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be positive")
        if self.heartbeat_every < 0:
            raise ValueError("heartbeat_every must be non-negative")
        if self.latency_window < 1:
            raise ValueError("latency_window must be positive")
        # suspect/dead/rejoin thresholds are validated by HealthMonitor.


@dataclass(frozen=True)
class ClusterResponse:
    """Outcome of one routed query.

    ``position`` is always present.  ``degraded`` is True whenever the
    answer is anything but the full, fresh SP estimate — a replica-level
    degradation (``reason`` ``"timeout"``/``"lp-failure"``), a stale
    topology view (``"stale-topology"``, estimate kept but flagged), or
    the all-replicas-down weighted-centroid fallback (``"unavailable"``,
    ``estimate is None``).
    """

    query_id: str
    position: Point
    estimate: LocationEstimate | None
    degraded: bool = False
    reason: str = ""
    shard: int = 0
    replica: int | None = None
    attempts: int = 1
    failovers: int = 0
    cache_hit: bool = False
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when a replica served the full fresh SP estimate."""
        return not self.degraded

    @property
    def confidence(self) -> float:
        """Measurement-layer confidence of the routed answer.

        Mirrors :attr:`repro.serving.LocalizationResponse.confidence`:
        the estimate's guard confidence, or 0.0 when the cluster fell
        back to the weighted centroid (``estimate is None``) — so the
        session layer and wire payloads read one field regardless of
        which serving tier answered.
        """
        return self.estimate.confidence if self.estimate is not None else 0.0

    def error_to(self, truth: Point) -> float:
        """Euclidean error of the served position against ground truth."""
        return self.position.distance_to(truth)


class ClusterReplica:
    """One service replica in a shard's replica group.

    Wraps a :class:`~repro.serving.LocalizationService` with the
    replica's cluster identity, its fault-injection touchpoints and its
    topology-version bookkeeping.  All replicas are constructed equal;
    only the router's choices (and injected faults) distinguish them.
    """

    def __init__(
        self,
        shard_id: int,
        index: int,
        area: Polygon,
        localizer_config: LocalizerConfig | None,
        serving_config: ServingConfig,
        injector: FaultInjector,
    ) -> None:
        self.shard_id = shard_id
        self.index = index
        self.replica_id = (shard_id, index)
        self.injector = injector
        self.service = LocalizationService(
            area, localizer_config, serving_config
        )
        self.topology_version = 0

    def handle(
        self, request: LocalizationRequest, query_index: int
    ) -> LocalizationResponse:
        """Serve one query (fault hooks first, then the real service)."""
        self.injector.on_query(self.shard_id, self.index, query_index)
        # Request-preserving path: optional fields (the guard layer's
        # gate result among them) must survive the replica hop.
        return self.service.locate_request(request)

    def ping(self, query_index: int) -> bool:
        """Heartbeat probe: True when the replica would answer queries."""
        try:
            self.injector.on_heartbeat(self.shard_id, self.index, query_index)
        except Exception:
            return False
        return not self.service.closed

    def sync_topology(self, version: int) -> None:
        """Adopt the cluster's current topology version."""
        self.topology_version = version

    def drain(self, timeout_s: float | None = None) -> dict:
        """Gracefully drain the wrapped service; returns final metrics."""
        return self.service.drain(timeout_s)

    def close(self) -> None:
        """Drain and shut the wrapped service down."""
        self.service.close()


class LocalizationCluster:
    """Sharded, replicated localization serving with failover.

    Parameters
    ----------
    area:
        Default venue polygon (requests may override, multi-tenant).
    localizer_config:
        SP knobs shared by every replica.
    config:
        Operational :class:`ClusterConfig`.
    fault_plan:
        Optional :class:`~repro.cluster.faults.FaultPlan` for drills and
        tests; the default empty plan injects nothing.
    """

    def __init__(
        self,
        area: Polygon,
        localizer_config: LocalizerConfig | None = None,
        config: ClusterConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.area = area
        self.localizer_config = localizer_config or LocalizerConfig()
        self.config = config or ClusterConfig()
        self.router = ShardRouter(
            self.config.num_shards,
            self.config.replicas_per_shard,
            self.config.vnodes_per_shard,
        )
        self.injector = FaultInjector(fault_plan)
        self.health = HealthMonitor(
            self.config.suspect_after,
            self.config.dead_after,
            self.config.rejoin_after,
        )
        self.metrics = ClusterMetrics(self.config.latency_window)
        self.budget = RetryBudget(
            self.config.retry.budget_ratio, self.config.retry.budget_burst
        )
        self.shards: list[list[ClusterReplica]] = []
        for shard_id in range(self.config.num_shards):
            group = []
            for index in range(self.config.replicas_per_shard):
                replica = ClusterReplica(
                    shard_id,
                    index,
                    area,
                    self.localizer_config,
                    self.config.serving,
                    self.injector,
                )
                self.health.register(replica.replica_id)
                group.append(replica)
            self.shards.append(group)
        # Small warm cache backing the all-replicas-down fallback only.
        self._fallback_cache = LocalizerCache(4)
        self._jitter = random.Random(self.config.seed)
        self._lock = threading.Lock()
        self._routed = 0
        self._topology_version = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout_s: float | None = None) -> dict:
        """Drain every replica; returns the final cluster snapshot."""
        for group in self.shards:
            for replica in group:
                replica.drain(timeout_s)
        snapshot = self.metrics_snapshot()
        self._closed = True
        return snapshot

    def close(self) -> None:
        """Drain and shut down the whole fleet (idempotent)."""
        self.drain()

    def __enter__(self) -> "LocalizationCluster":
        """Context-manager entry: the cluster itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the cluster."""
        self.close()

    # ------------------------------------------------------------------
    # Query paths
    # ------------------------------------------------------------------
    def locate(
        self,
        anchors: Sequence[Anchor],
        query_id: str = "",
        area: Polygon | None = None,
        timeout_s: float | None = None,
    ) -> ClusterResponse:
        """Route and serve one query."""
        request = LocalizationRequest(
            tuple(anchors), query_id=query_id, area=area, timeout_s=timeout_s
        )
        return self._route(request)

    def locate_request(self, request: LocalizationRequest) -> ClusterResponse:
        """Route one already-built request (the network entry point).

        The request-preserving sibling of :meth:`locate`, mirroring
        :meth:`repro.serving.LocalizationService.locate_request`: callers
        that construct a :class:`~repro.serving.LocalizationRequest`
        themselves — the gateway's protocol decoder chief among them —
        route through here so optional fields (``gate``, per-request
        ``timeout_s``, ``area``) survive into the replica.
        """
        return self._route(request)

    def batch(
        self, requests: Iterable[LocalizationRequest | Sequence[Anchor]]
    ) -> list[ClusterResponse]:
        """Serve a batch in input order.

        Queries are routed sequentially so the fault clock (the global
        query counter) is deterministic — the property fault drills and
        the bit-exactness benchmark rely on.

        When the per-replica serving config enables LP micro-batching
        (``serving.lp_batch > 1``), consecutive queries that route to the
        same healthy replica are handed to that replica's
        :meth:`~repro.serving.LocalizationService.batch` in one call, so
        their relaxation LPs solve as stacked tableaux.  Fault hooks
        still fire once per query *before* its run is served, and any
        query whose hook (or whose run's batched serve) raises a failover
        error falls back to the retried scalar routing path — failures
        stay per-query, never per-batch.  Count-based heartbeats
        (``heartbeat_every``) don't compose with run coalescing, so that
        setting forces the scalar path.
        """
        reqs = [self._coerce(r) for r in requests]
        if self.config.serving.lp_batch <= 1 or self.config.heartbeat_every:
            return [self._route(r) for r in reqs]
        out: list[ClusterResponse] = []
        run: list[LocalizationRequest] = []
        run_dest: tuple[int, int] | None = None
        for req in reqs:
            area = req.area if req.area is not None else self.area
            shard_id, order = self.router.route(
                route_key(area, self.localizer_config)
            )
            primary = self._pick(shard_id, order, set())
            if primary is None:
                # Whole replica group unroutable: flush, then let the
                # scalar path produce the flagged fallback answer.
                if run:
                    out.extend(self._serve_run(run_dest, run))
                    run, run_dest = [], None
                out.append(self._route(req))
                continue
            dest = (shard_id, primary)
            if run and dest != run_dest:
                out.extend(self._serve_run(run_dest, run))
                run = []
            run_dest = dest
            run.append(req)
        if run:
            out.extend(self._serve_run(run_dest, run))
        return out

    def _serve_run(
        self, dest: tuple[int, int], run: list[LocalizationRequest]
    ) -> list[ClusterResponse]:
        """Serve one same-replica run through the replica's batch path.

        Fires the fault hook per query first (preserving the sequential
        fault clock), serves the survivors in one
        ``service.batch`` call, and falls back to :meth:`_route` for any
        query the hook or the batched serve failed — those queries spend
        fresh clock ticks, exactly like a client retrying.
        """
        shard_id, idx = dest
        replica = self.shards[shard_id][idx]
        out: list[ClusterResponse | None] = [None] * len(run)
        serve: list[int] = []
        fallback: list[int] = []
        started = time.perf_counter()
        for pos in range(len(run)):
            query_index = self._next_query_index()
            try:
                self.injector.on_query(shard_id, idx, query_index)
            except _FAILOVER_ERRORS:
                self.health.record_failure(replica.replica_id)
                fallback.append(pos)
            else:
                serve.append(pos)
        if serve:
            with span(
                "cluster.batch", shard=shard_id, replica=idx, size=len(serve)
            ) as run_sp:
                try:
                    resps = replica.service.batch([run[p] for p in serve])
                except _FAILOVER_ERRORS:
                    self.health.record_failure(replica.replica_id)
                    fallback.extend(serve)
                else:
                    for pos, resp in zip(serve, resps):
                        out[pos] = self._finish(
                            run[pos],
                            resp,
                            replica,
                            shard_id,
                            started,
                            attempts=1,
                            failovers=0,
                            retries=0,
                            route_sp=run_sp,
                        )
        for pos in fallback:
            # The failed coalesced attempt was a failover the re-route
            # below never sees; count it on the response and the fleet.
            resp = self._route(run[pos])
            out[pos] = replace(resp, failovers=resp.failovers + 1)
            self.metrics.record_failover()
        return out  # type: ignore[return-value]  # every slot is filled

    def _coerce(
        self, request: LocalizationRequest | Sequence[Anchor]
    ) -> LocalizationRequest:
        """Accept bare anchor sequences anywhere a request is expected."""
        if isinstance(request, LocalizationRequest):
            return request
        return LocalizationRequest(tuple(request))

    # ------------------------------------------------------------------
    # Topology + health
    # ------------------------------------------------------------------
    def note_topology_change(self) -> int:
        """A nomadic AP moved: bump the version, push it to the fleet.

        Replicas under an active stale-topology fault miss the push (the
        injected failure mode); they re-sync on a later heartbeat once
        the fault clears.  Returns the new version.
        """
        with self._lock:
            self._topology_version += 1
            version = self._topology_version
            query_index = self._routed
        for group in self.shards:
            for replica in group:
                if not self.injector.stale_active(
                    replica.shard_id, replica.index, query_index
                ):
                    replica.sync_topology(version)
        return version

    def heartbeat(self) -> dict:
        """Probe every replica; update health states, re-sync topology.

        The anti-entropy sweep: dead replicas whose faults have cleared
        come back as REJOINING, and reachable replicas that missed a
        topology push catch up.  Returns ``{replica_id: ReplicaState}``.
        """
        with self._lock:
            query_index = self._routed
            version = self._topology_version
        states = {}
        for group in self.shards:
            for replica in group:
                state = self.health.probe(
                    replica.replica_id,
                    lambda r=replica: r.ping(query_index),
                )
                if state is not ReplicaState.DEAD and not (
                    self.injector.stale_active(
                        replica.shard_id, replica.index, query_index
                    )
                ):
                    replica.sync_topology(version)
                states[replica.replica_id] = state
        self.metrics.record_heartbeat_round()
        return states

    def replica_states(self) -> dict:
        """Current health state of every replica (no probing)."""
        return self.health.states()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Cluster counters + fleet roll-up + per-replica detail.

        Layout: cluster-level routing/availability counters at the top;
        ``"services"`` is the summed fleet view of every replica's
        ServiceMetrics; ``"replicas"`` the per-replica snapshots;
        ``"states"`` the health states; ``"spans"`` the per-stage span
        aggregates (route → queue → solve) when tracing is enabled.
        """
        snap = self.metrics.snapshot()
        per_replica = {}
        for group in self.shards:
            for replica in group:
                rsnap = replica.service.metrics_snapshot()
                # The global span aggregate is reported once, cluster-wide.
                rsnap.pop("spans", None)
                per_replica[f"shard{replica.shard_id}/replica{replica.index}"] = (
                    rsnap
                )
        snap["replicas"] = per_replica
        snap["services"] = merge_service_snapshots(list(per_replica.values()))
        snap["states"] = {
            f"shard{shard}/replica{index}": state.value
            for (shard, index), state in self.health.states().items()
        }
        snap["retry_budget"] = self.budget.snapshot()
        snap["topology_version"] = self._topology_version
        tracer = get_tracer()
        if tracer is not None:
            snap["spans"] = aggregate(tracer.finished())
        return snap

    def metrics_json(self) -> dict:
        """:meth:`metrics_snapshot` coerced to JSON-serializable form.

        Health-state enums collapse to their string values and keys come
        back sorted — see :func:`repro.serving.metrics.json_safe`.  The
        gateway's ``/metrics`` endpoint serves this dict verbatim.
        """
        return json_safe(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # Routing internals
    # ------------------------------------------------------------------
    def _next_query_index(self) -> int:
        with self._lock:
            index = self._routed
            self._routed += 1
        return index

    def _route(self, request: LocalizationRequest) -> ClusterResponse:
        """The routed query path: shard → replica group → retry loop."""
        if self._closed:
            raise RuntimeError("cluster is closed")
        query_index = self._next_query_index()
        every = self.config.heartbeat_every
        if every and query_index and query_index % every == 0:
            self.heartbeat()
        area = request.area if request.area is not None else self.area
        key = route_key(area, self.localizer_config)
        shard_id, order = self.router.route(key)
        group = self.shards[shard_id]
        policy = self.config.retry
        with span(
            "cluster.route", query_id=request.query_id, shard=shard_id
        ) as route_sp:
            started = time.perf_counter()
            tried: set[int] = set()
            failovers = retries = 0
            attempt = 0
            while attempt < policy.max_attempts:
                candidate_idx = self._pick(shard_id, order, tried)
                if candidate_idx is None:
                    break  # whole replica group unroutable
                if attempt == 0:
                    self.budget.note_attempt()
                else:
                    if not self.budget.allow_retry():
                        self.metrics.record_retry_denied()
                        break
                    retries += 1
                    delay = backoff_s(policy, retries, self._jitter)
                    if delay > 0:
                        time.sleep(delay)
                replica = group[candidate_idx]
                try:
                    resp = self._attempt(replica, request, query_index)
                except _FAILOVER_ERRORS:
                    self.health.record_failure(replica.replica_id)
                    tried.add(replica.index)
                    failovers += 1
                    attempt += 1
                    continue
                return self._finish(
                    request,
                    resp,
                    replica,
                    shard_id,
                    started,
                    attempts=attempt + 1,
                    failovers=failovers,
                    retries=retries,
                    route_sp=route_sp,
                )
            return self._unavailable(
                request,
                area,
                shard_id,
                started,
                attempts=attempt,
                failovers=failovers,
                retries=retries,
                route_sp=route_sp,
            )

    def _pick(
        self, shard_id: int, order: Sequence[int], tried: set[int]
    ) -> int | None:
        """Best routable replica: health rank, then key preference order.

        DEAD replicas never serve.  When every routable replica has
        already failed this query, the tried set resets so later
        attempts can re-try the least-bad one (it may have recovered).
        """
        routable = [
            idx for idx in order if self.health.available((shard_id, idx))
        ]
        if not routable:
            return None
        fresh = [idx for idx in routable if idx not in tried]
        if not fresh:
            tried.clear()
            fresh = routable
        return min(
            fresh,
            key=lambda idx: (self.health.rank((shard_id, idx)), order.index(idx)),
        )

    def _attempt(
        self, replica: ClusterReplica, request: LocalizationRequest, query_index: int
    ):
        """One synchronous attempt, nested under the route span."""
        with span(
            "cluster.attempt", shard=replica.shard_id, replica=replica.index
        ):
            return replica.handle(request, query_index)

    def _finish(
        self,
        request: LocalizationRequest,
        resp,
        replica: ClusterReplica,
        shard_id: int,
        started: float,
        *,
        attempts: int,
        failovers: int,
        retries: int,
        route_sp,
    ) -> ClusterResponse:
        """Wrap a replica answer: health, staleness flag, metrics, span."""
        self.health.record_success(replica.replica_id)
        with self._lock:
            current_version = self._topology_version
        stale = replica.topology_version < current_version
        degraded = resp.degraded or stale
        reason = resp.reason if resp.degraded else (
            "stale-topology" if stale else ""
        )
        latency = time.perf_counter() - started
        self.metrics.record_query(
            latency,
            degraded=degraded,
            stale=stale,
            failovers=failovers,
            retries=retries,
        )
        route_sp.set(
            replica=replica.index,
            attempts=attempts,
            failovers=failovers,
            degraded=degraded,
        )
        return ClusterResponse(
            query_id=request.query_id,
            position=resp.position,
            estimate=resp.estimate,
            degraded=degraded,
            reason=reason,
            shard=shard_id,
            replica=replica.index,
            attempts=attempts,
            failovers=failovers,
            cache_hit=resp.cache_hit,
            latency_s=latency,
        )

    def _unavailable(
        self,
        request: LocalizationRequest,
        area: Polygon,
        shard_id: int,
        started: float,
        *,
        attempts: int,
        failovers: int,
        retries: int,
        route_sp,
    ) -> ClusterResponse:
        """Last resort: the whole replica group is down (or the retry
        budget refused further attempts).  Answer with the flagged
        weighted-centroid fallback — coarse, O(anchors), never silent."""
        localizer, _ = self._fallback_cache.get(area, self.localizer_config)
        position = localizer.project_into_area(
            weighted_centroid(request.anchors)
        )
        latency = time.perf_counter() - started
        self.metrics.record_query(
            latency,
            degraded=True,
            failovers=failovers,
            retries=retries,
            unavailable=True,
        )
        route_sp.set(
            attempts=attempts,
            failovers=failovers,
            degraded=True,
            unavailable=True,
        )
        return ClusterResponse(
            query_id=request.query_id,
            position=position,
            estimate=None,
            degraded=True,
            reason="unavailable",
            shard=shard_id,
            replica=None,
            attempts=attempts,
            failovers=failovers,
            cache_hit=False,
            latency_s=latency,
        )
