"""`LocalizationService`: the batched, cached, concurrent serving façade.

Wraps :class:`~repro.core.NomLocLocalizer` the way a production NomLoc
backend would be deployed — a long-lived process answering a stream of
anchor-set queries — instead of the one-shot CLI path that rebuilds the
whole constraint system per call:

* the topology-dependent constraint prefix (convex decomposition,
  boundary/virtual-AP rows) comes from an LRU
  :class:`~repro.serving.cache.LocalizerCache`, so only the
  PDP-dependent pairwise rows are rebuilt per query;
* queries run inline on the caller's thread (``max_workers=0``, the
  reference path) or on a
  :class:`~repro.serving.procpool.ProcessPool`
  (``max_workers >= 1``) — results are bit-identical either way;
* a bounded :class:`~repro.serving.queueing.AdmissionQueue` sheds load
  instead of buffering it, a cooperative per-query deadline bounds tail
  latency, and LP failures or timeouts degrade gracefully to the
  PDP-weighted-centroid baseline with the degraded path flagged in the
  response;
* :class:`~repro.serving.metrics.ServiceMetrics` tracks latency
  percentiles, throughput, cache hit rates, queue depth and fallbacks.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..core import Anchor, LocalizerConfig, LocationEstimate, NomLocLocalizer
from ..geometry import Point, Polygon
from ..obs import aggregate, get_tracer, span
from .cache import BisectorCache, LocalizerCache
from .metrics import ServiceMetrics, json_safe
from .procpool import ProcessPool
from .queueing import AdmissionQueue, QueueFullError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layer cycle
    from ..guard.policy import GateResult

__all__ = [
    "ServiceClosedError",
    "ServingConfig",
    "LocalizationRequest",
    "LocalizationResponse",
    "LocalizationService",
    "weighted_centroid",
]


class _DeadlineExceeded(Exception):
    """Internal: a query's cooperative deadline expired mid-solve."""


class ServiceClosedError(RuntimeError):
    """Raised on submissions to a service that is draining or closed."""


def _resolved(fn, *args) -> Future:
    """Run ``fn`` now and wrap the outcome in a completed future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except BaseException as exc:  # noqa: BLE001 — future carries it
        future.set_exception(exc)
    return future


def weighted_centroid(anchors: Sequence[Anchor]) -> Point:
    """PDP-weighted centroid of an anchor set (degradation estimator).

    The same estimator as the
    :class:`~repro.baselines.WeightedCentroidLocalizer` baseline
    (exponent 1): coarse, calibration-free, O(anchors).  Shared by the
    service's degraded path and the cluster's all-replicas-down fallback;
    callers project the result into their venue.
    """
    total = sum(a.pdp for a in anchors)
    if total <= 0:  # PDPs are validated positive; belt and braces
        total = float(len(anchors))
        return Point(
            sum(a.position.x for a in anchors) / total,
            sum(a.position.y for a in anchors) / total,
        )
    return Point(
        sum(a.pdp * a.position.x for a in anchors) / total,
        sum(a.pdp * a.position.y for a in anchors) / total,
    )


@dataclass(frozen=True)
class ServingConfig:
    """Operational knobs of a :class:`LocalizationService`.

    Attributes
    ----------
    max_workers:
        ``0`` serves every query inline on the caller's thread (the
        reference path).  ``N >= 1`` runs :meth:`submit`, :meth:`batch`
        and :meth:`serve` on ``N`` worker processes
        (:class:`~repro.serving.procpool.ProcessPool`) — real
        parallelism for the GIL-bound LP solves, with the warmed
        topology/bisector caches fork-inherited by every worker.
        :meth:`locate` always runs inline.  Results stay bit-identical
        either way.
    lp_batch:
        Micro-batch size for :meth:`batch`: groups of up to this many
        queries are solved through the stacked-LP path
        (:meth:`~repro.core.NomLocLocalizer.locate_batch`), advancing N
        queries per NumPy pass instead of one per Python pivot loop.
        ``0``/``1`` disables batching.  Composes with ``max_workers``:
        each worker process solves whole chunks.
    queue_capacity:
        In-flight request bound; non-blocking submissions beyond it are
        rejected with :class:`~repro.serving.queueing.QueueFullError`.
    timeout_s:
        Default per-query deadline (seconds), checked cooperatively
        between piece solves; ``None`` disables it.  On expiry the query
        degrades to the weighted-centroid fallback.
    degrade_on_failure:
        Answer LP failures/timeouts with the flagged fallback estimate
        instead of propagating the exception.
    cache_topologies / max_cached_topologies:
        Reuse warmed localizers (decomposition + boundary rows) per
        (area, config) topology, LRU-bounded.
    cache_bisectors / max_cached_bisectors:
        Memoize normalized bisector halfspaces by anchor-position pair.
    latency_window:
        Size of the sliding latency reservoir behind the percentiles.
    """

    max_workers: int = 0
    lp_batch: int = 0
    queue_capacity: int = 64
    timeout_s: float | None = None
    degrade_on_failure: bool = True
    cache_topologies: bool = True
    max_cached_topologies: int = 8
    cache_bisectors: bool = True
    max_cached_bisectors: int = 4096
    latency_window: int = 2048

    def __post_init__(self) -> None:
        # Every knob is validated here, at construction, so a bad config
        # fails loudly instead of deep inside some later query.
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        if self.lp_batch < 0:
            raise ValueError("lp_batch must be >= 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")
        if self.max_cached_topologies < 1:
            raise ValueError("max_cached_topologies must be positive")
        if self.max_cached_bisectors < 1:
            raise ValueError("max_cached_bisectors must be positive")
        if self.latency_window < 1:
            raise ValueError("latency_window must be positive")


@dataclass(frozen=True)
class LocalizationRequest:
    """One serving query: an anchor set, optionally its own venue.

    Attributes
    ----------
    anchors:
        The measured anchor set (positions + PDPs), as produced by
        :meth:`repro.core.NomLocSystem.gather_anchors` or a recorded
        dataset.
    query_id:
        Caller-chosen correlation id echoed in the response.
    area:
        Venue override for multi-tenant serving; ``None`` uses the
        service default.
    timeout_s:
        Per-request deadline override (``None`` inherits the service's).
    gate:
        Optional measurement-gating outcome
        (:class:`repro.guard.GateResult`) from the guard layer.  When
        present, its quality weights scale the relaxation LP's rows,
        its per-link rulings feed the ``degraded_links_total`` /
        ``rejected_links_total`` service counters, and the served
        estimate carries its ``confidence`` and reasons.  ``None`` (the
        default) serves exactly the historical ungated pipeline.
    """

    anchors: tuple[Anchor, ...]
    query_id: str = ""
    area: Polygon | None = None
    timeout_s: float | None = None
    gate: "GateResult | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", tuple(self.anchors))
        if not self.anchors:
            raise ValueError("a localization request needs at least one anchor")


@dataclass(frozen=True)
class LocalizationResponse:
    """Outcome of one serving query.

    ``position`` is always present; ``estimate`` carries the full SP
    diagnostics and is ``None`` exactly when the query ``degraded`` to
    the weighted-centroid fallback (``reason`` says why: ``"timeout"``
    or ``"lp-failure"``).
    """

    query_id: str
    position: Point
    estimate: LocationEstimate | None
    degraded: bool = False
    reason: str = ""
    cache_hit: bool = False
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the full SP pipeline answered (not the fallback)."""
        return not self.degraded

    @property
    def confidence(self) -> float:
        """Measurement-layer confidence of the served answer.

        The estimate's guard confidence (1.0 on the ungated path), or
        0.0 for degraded fallback answers — a weighted-centroid guess
        deserves no measurement-layer trust.  This is the value
        downstream consumers (the session layer's confidence-to-noise
        mapping, wire payloads) read; before it existed, the gate's
        confidence died here (ROADMAP item 2's "dropped on the floor").
        """
        return self.estimate.confidence if self.estimate is not None else 0.0

    def error_to(self, truth: Point) -> float:
        """Euclidean error of the served position against ground truth."""
        return self.position.distance_to(truth)


class LocalizationService:
    """Long-lived serving façade over the NomLoc SP pipeline.

    Parameters
    ----------
    area:
        Default venue polygon for requests that don't carry their own.
    localizer_config:
        SP knobs shared by every served query.
    config:
        Operational :class:`ServingConfig`.

    Bit-exactness contract: for any request, the served ``position`` and
    ``estimate`` equal what a fresh
    ``NomLocLocalizer(area, localizer_config).locate(anchors)`` returns —
    caching and process workers only move or reuse deterministic work,
    they never change it.  The degraded fallback is the only exception
    and is always flagged.
    """

    def __init__(
        self,
        area: Polygon,
        localizer_config: LocalizerConfig | None = None,
        config: ServingConfig | None = None,
    ) -> None:
        self.area = area
        self.localizer_config = localizer_config or LocalizerConfig()
        self.config = config or ServingConfig()
        self.metrics = ServiceMetrics(self.config.latency_window)
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.proc_pool = (
            ProcessPool(
                area,
                self.localizer_config,
                self.config,
                self.config.max_workers,
            )
            if self.config.max_workers >= 1
            else None
        )
        self.topology_cache = (
            LocalizerCache(self.config.max_cached_topologies)
            if self.config.cache_topologies
            else None
        )
        self.bisector_cache = (
            BisectorCache(self.config.max_cached_bisectors)
            if self.config.cache_bisectors
            else None
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`drain`/:meth:`close` stopped admissions."""
        return self._closed

    def drain(self, timeout_s: float | None = None) -> dict:
        """Graceful shutdown: stop admissions, finish in-flight, flush.

        The clean replica-shutdown path: new submissions raise
        :class:`ServiceClosedError` immediately, every already-admitted
        query runs to completion, and the final metrics snapshot is
        returned before the worker pool is torn down.  Idempotent — a
        second call just re-snapshots.

        Raises
        ------
        TimeoutError
            When in-flight queries are still running after ``timeout_s``
            seconds (``None`` waits indefinitely); admissions stay
            stopped and the pool is left running so the caller can retry.
        """
        self._closed = True
        if not self.queue.wait_idle(timeout_s):
            raise TimeoutError(
                f"{self.queue.depth} queries still in flight "
                f"after {timeout_s}s drain"
            )
        snapshot = self.metrics_snapshot()
        if self.proc_pool is not None:
            self.proc_pool.shutdown()
        return snapshot

    def close(self) -> None:
        """Drain and shut down the worker pool (idempotent)."""
        self.drain()

    def __enter__(self) -> "LocalizationService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the service."""
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
        gate: "GateResult | None" = None,
    ) -> LocalizationResponse:
        """Serve one query synchronously on the caller's thread.

        ``gate`` optionally carries the guard layer's verdicts (see
        :class:`LocalizationRequest`).
        """
        request = LocalizationRequest(
            tuple(anchors),
            query_id=query_id,
            area=area,
            timeout_s=timeout_s,
            gate=gate,
        )
        return self._handle(request)

    def locate_request(
        self, request: LocalizationRequest
    ) -> LocalizationResponse:
        """Serve one already-built request synchronously.

        The request-preserving sibling of :meth:`locate` — callers that
        construct a :class:`LocalizationRequest` (the cluster's replicas,
        gated pipelines) route through here so optional fields like
        ``gate`` survive the hop.
        """
        return self._handle(request)

    def submit(self, request: LocalizationRequest | Sequence[Anchor]):
        """Enqueue one query without blocking; returns its future.

        Raises
        ------
        QueueFullError
            When the service already has ``queue_capacity`` requests in
            flight — the caller should shed or retry later
            (backpressure).
        """
        self._check_open()
        request = self._coerce(request)
        try:
            self.queue.try_acquire()
        except QueueFullError:
            self.metrics.record_rejected()
            raise
        self.metrics.record_admitted()
        return self._dispatch(request, time.perf_counter())

    def batch(
        self, requests: Iterable[LocalizationRequest | Sequence[Anchor]]
    ) -> list[LocalizationResponse]:
        """Serve a batch, blocking for admission; responses in input order.

        Unlike :meth:`submit`, a full queue here *waits* for a slot
        instead of rejecting — a batch caller wants all answers.  With
        :attr:`ServingConfig.lp_batch` set, consecutive requests are
        grouped into micro-batches that each worker solves through the
        stacked-LP path — positions stay bit-identical to per-request
        serving.
        """
        chunk_size = self.config.lp_batch
        if chunk_size > 1:
            return self._batch_chunked(requests, chunk_size)
        futures = []
        for request in requests:
            self._check_open()
            request = self._coerce(request)
            self.queue.acquire()
            self.metrics.record_admitted()
            futures.append(self._dispatch(request, time.perf_counter()))
        return [f.result() for f in futures]

    def _batch_chunked(
        self,
        requests: Iterable[LocalizationRequest | Sequence[Anchor]],
        chunk_size: int,
    ) -> list[LocalizationResponse]:
        """Micro-batched :meth:`batch`: chunks of requests per worker."""
        futures = []
        chunk: list[LocalizationRequest] = []

        def flush() -> None:
            if chunk:
                futures.append(
                    self._dispatch_chunk(list(chunk), time.perf_counter())
                )
                chunk.clear()

        for request in requests:
            self._check_open()
            request = self._coerce(request)
            self.queue.acquire()
            self.metrics.record_admitted()
            chunk.append(request)
            if len(chunk) >= chunk_size:
                flush()
        flush()
        return [response for f in futures for response in f.result()]

    def serve(
        self,
        requests: Iterable[LocalizationRequest | Sequence[Anchor]],
        window: int | None = None,
    ) -> Iterator[LocalizationResponse]:
        """Stream responses for a request stream, preserving order.

        Keeps at most ``window`` queries in flight (default:
        ``2 * max_workers``, min 1), yielding each response as soon as
        its turn completes — the shape of a server's ingest loop without
        the sockets.
        """
        if window is None:
            window = max(1, 2 * self.config.max_workers)
        pending: list = []
        for request in requests:
            self._check_open()
            request = self._coerce(request)
            self.queue.acquire()
            self.metrics.record_admitted()
            pending.append(self._dispatch(request, time.perf_counter()))
            while len(pending) >= window:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Plain-dict service state: latency, throughput, caches, queue.

        When tracing is enabled (:func:`repro.obs.enable` /
        :func:`repro.obs.capture`), the snapshot additionally carries a
        ``"spans"`` key with the per-stage latency aggregates of every
        span finished so far — the serving metrics and the pipeline
        stage breakdown read as one observable state.
        """
        snap = self.metrics.snapshot(
            queue_depth=self.queue.depth,
            queue_rejected=self.queue.rejected_total,
        )
        tracer = get_tracer()
        if tracer is not None:
            snap["spans"] = aggregate(tracer.finished())
        if self.topology_cache is not None:
            stats = self.topology_cache.stats()
            snap["topology_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "hit_rate": stats.hit_rate,
            }
        if self.bisector_cache is not None:
            stats = self.bisector_cache.stats()
            snap["bisector_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "hit_rate": stats.hit_rate,
            }
        return snap

    def metrics_json(self) -> dict:
        """:meth:`metrics_snapshot` coerced to JSON-serializable form.

        Sorted keys, enum values collapsed, non-finite floats nulled —
        see :func:`repro.serving.metrics.json_safe`.  This is what
        network exporters (the gateway ``/metrics`` endpoint) serve
        directly, without any per-caller conversion shims.
        """
        return json_safe(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        """Refuse admissions once the service is draining/closed."""
        if self._closed:
            raise ServiceClosedError("service is draining; admissions stopped")

    def _coerce(
        self, request: LocalizationRequest | Sequence[Anchor]
    ) -> LocalizationRequest:
        """Accept bare anchor sequences anywhere a request is expected."""
        if isinstance(request, LocalizationRequest):
            return request
        return LocalizationRequest(tuple(request))

    def _localizer_for(self, area: Polygon) -> tuple[NomLocLocalizer, bool]:
        """``(localizer, cache_hit)`` for one venue topology."""
        if self.topology_cache is not None:
            return self.topology_cache.get(area, self.localizer_config)
        return NomLocLocalizer(area, self.localizer_config).warm(), False

    def _dispatch(self, request: LocalizationRequest, admitted_at: float):
        """Run one admitted request inline or on a worker process."""
        if self.proc_pool is not None:
            return self._wrap_process_future(
                self.proc_pool.submit_request(request),
                [request],
                admitted_at,
                unwrap_single=True,
            )
        return _resolved(self._handle_and_release, request, admitted_at)

    def _dispatch_chunk(
        self, chunk: list[LocalizationRequest], admitted_at: float
    ):
        """Run one admitted micro-batch inline or on a worker process."""
        if self.proc_pool is not None:
            return self._wrap_process_future(
                self.proc_pool.submit_chunk(chunk), chunk, admitted_at
            )
        return _resolved(self._handle_chunk_and_release, chunk, admitted_at)

    def _wrap_process_future(
        self,
        raw,
        requests: list[LocalizationRequest],
        admitted_at: float,
        unwrap_single: bool = False,
    ):
        """Account for process-worker results on the parent side.

        Worker processes record metrics into *their own* (discarded)
        service instance, so the parent re-records each response's
        observable outcome — queue wait, cache hit, completion, gating —
        into its metrics, then frees the admission slots.  The returned
        future resolves to the response (``unwrap_single``) or the
        response list.
        """
        wrapped: Future = Future()

        def _done(f) -> None:
            try:
                responses = f.result()
            except BaseException as exc:  # noqa: BLE001 — future carries it
                for _ in requests:
                    self.queue.release()
                wrapped.set_exception(exc)
                return
            if unwrap_single:
                responses = [responses]
            round_trip_s = max(0.0, time.perf_counter() - admitted_at)
            try:
                for request, response in zip(requests, responses):
                    # Queue wait = round trip minus the worker's compute
                    # time; transport (pickling) counts as wait, which is
                    # honest — it is serving overhead, not solving.
                    self.metrics.record_queue_wait(
                        max(0.0, round_trip_s - response.latency_s)
                    )
                    self.metrics.record_cache(response.cache_hit)
                    if request.gate is not None:
                        self.metrics.record_gating(
                            len(request.gate.degraded),
                            len(request.gate.rejected),
                        )
                    self.metrics.record_completed(
                        response.latency_s,
                        degraded=response.degraded,
                        timed_out=response.reason == "timeout",
                        lp_failed=response.reason == "lp-failure",
                    )
            finally:
                for _ in requests:
                    self.queue.release()
            wrapped.set_result(responses[0] if unwrap_single else responses)

        raw.add_done_callback(_done)
        return wrapped

    def _handle_chunk_and_release(
        self,
        chunk: list[LocalizationRequest],
        admitted_at: float,
    ) -> list[LocalizationResponse]:
        """Inline entry point for a micro-batch: handle, free the slots."""
        queue_wait_s = max(0.0, time.perf_counter() - admitted_at)
        for _ in chunk:
            self.metrics.record_queue_wait(queue_wait_s)
        try:
            return self._handle_batch(chunk)
        finally:
            for _ in chunk:
                self.queue.release()

    def _handle_and_release(
        self,
        request: LocalizationRequest,
        admitted_at: float,
    ) -> LocalizationResponse:
        """Inline entry point: handle, then free the admission slot.

        ``admitted_at`` is the admission timestamp; the gap to now is the
        request's queue wait — the load component of its latency,
        reported separately from compute.
        """
        queue_wait_s = time.perf_counter() - admitted_at
        self.metrics.record_queue_wait(queue_wait_s)
        try:
            return self._handle(request, queue_wait_s=queue_wait_s)
        finally:
            self.queue.release()

    def _handle(
        self,
        request: LocalizationRequest,
        queue_wait_s: float = 0.0,
    ) -> LocalizationResponse:
        """Run one query through cache + solver, degrading on failure."""
        with span(
            "serve.query",
            query_id=request.query_id,
            anchors=len(request.anchors),
        ) as sp:
            started = time.perf_counter()
            area = request.area if request.area is not None else self.area
            localizer, cache_hit = self._localizer_for(area)
            self.metrics.record_cache(cache_hit)
            timeout = (
                request.timeout_s
                if request.timeout_s is not None
                else self.config.timeout_s
            )
            deadline = started + timeout if timeout is not None else None
            gate = request.gate
            if gate is not None:
                self.metrics.record_gating(
                    len(gate.degraded), len(gate.rejected)
                )
            timed_out = lp_failed = False
            estimate: LocationEstimate | None = None
            reason = ""
            try:
                estimate = self._solve(
                    localizer,
                    request.anchors,
                    deadline,
                    quality_weights=(
                        gate.quality_weights if gate is not None else None
                    ),
                )
            except _DeadlineExceeded:
                if not self.config.degrade_on_failure:
                    raise TimeoutError(
                        f"query {request.query_id!r} exceeded {timeout}s"
                    ) from None
                timed_out = True
                reason = "timeout"
            except (RuntimeError, ArithmeticError):
                # The relaxation LP "should not" fail (it is always
                # feasible) but solver pathologies happen under load; a
                # flagged coarse answer beats a 500.
                if not self.config.degrade_on_failure:
                    raise
                lp_failed = True
                reason = "lp-failure"
            if estimate is not None:
                if gate is not None:
                    estimate = replace(
                        estimate,
                        confidence=gate.confidence,
                        degradation_reasons=gate.reasons,
                    )
                position = estimate.position
                degraded = False
            else:
                position = self._fallback_position(localizer, request.anchors)
                degraded = True
            latency = time.perf_counter() - started
            self.metrics.record_completed(
                latency,
                degraded=degraded,
                timed_out=timed_out,
                lp_failed=lp_failed,
            )
            # The queue-wait vs compute split: ``queue_wait_s`` is load
            # (time spent admitted but unpicked), ``compute_s`` is work.
            sp.set(
                queue_wait_s=queue_wait_s,
                compute_s=latency,
                cache_hit=cache_hit,
                degraded=degraded,
            )
            if gate is not None:
                sp.set(
                    link_confidence=gate.confidence,
                    degraded_links=len(gate.degraded),
                    rejected_links=len(gate.rejected),
                )
            return LocalizationResponse(
                query_id=request.query_id,
                position=position,
                estimate=estimate,
                degraded=degraded,
                reason=reason,
                cache_hit=cache_hit,
                latency_s=latency,
            )

    def _handle_batch(
        self, requests: list[LocalizationRequest]
    ) -> list[LocalizationResponse]:
        """Serve a micro-batch through the stacked-LP path.

        Requests carrying a deadline run the scalar cooperative-deadline
        path; the rest are grouped by venue topology and solved with one
        :meth:`~repro.core.NomLocLocalizer.locate_batch` pass per group.
        Any group whose stacked solve fails falls back to per-request
        scalar handling, so one poisoned query degrades only itself —
        exactly the scalar path's failure isolation.  Served positions
        are bit-identical to per-request serving either way.
        """
        responses: list[LocalizationResponse | None] = [None] * len(requests)
        groups: dict[int, list[int]] = {}
        localizers: dict[int, tuple[NomLocLocalizer, list[bool]]] = {}
        for i, request in enumerate(requests):
            timeout = (
                request.timeout_s
                if request.timeout_s is not None
                else self.config.timeout_s
            )
            if timeout is not None:
                # Deadlines are enforced cooperatively *between* piece
                # solves; a stacked pass has no such boundary, so these
                # take the scalar path.
                responses[i] = self._handle(request)
                continue
            area = request.area if request.area is not None else self.area
            localizer, cache_hit = self._localizer_for(area)
            key = id(localizer)
            if key not in localizers:
                localizers[key] = (localizer, [])
            localizers[key][1].append(cache_hit)
            groups.setdefault(key, []).append(i)
        for key, members in groups.items():
            localizer, cache_hits = localizers[key]
            group = [requests[i] for i in members]
            try:
                served = self._solve_group(localizer, group, cache_hits)
            except (RuntimeError, ArithmeticError):
                # Per-request fallback: re-serving scalar re-runs the
                # cache lookup and degrades (or raises) per query.
                served = [self._handle(request) for request in group]
            for i, response in zip(members, served):
                responses[i] = response
        return responses  # type: ignore[return-value]  # every slot filled

    def _solve_group(
        self,
        localizer: NomLocLocalizer,
        requests: list[LocalizationRequest],
        cache_hits: list[bool],
    ) -> list[LocalizationResponse]:
        """One topology group's stacked solve + per-request bookkeeping."""
        with span("serve.batch", queries=len(requests)) as sp:
            started = time.perf_counter()
            estimates = localizer.locate_batch(
                [request.anchors for request in requests],
                quality_weights=[
                    request.gate.quality_weights
                    if request.gate is not None
                    else None
                    for request in requests
                ],
                bisector_cache=self.bisector_cache,
            )
            latency = time.perf_counter() - started
            sp.set(compute_s=latency)
            responses = []
            for request, estimate, cache_hit in zip(
                requests, estimates, cache_hits
            ):
                gate = request.gate
                if gate is not None:
                    self.metrics.record_gating(
                        len(gate.degraded), len(gate.rejected)
                    )
                    estimate = replace(
                        estimate,
                        confidence=gate.confidence,
                        degradation_reasons=gate.reasons,
                    )
                self.metrics.record_cache(cache_hit)
                # Every request in the chunk completes when the chunk
                # does, so the chunk wall time is each one's latency.
                self.metrics.record_completed(latency, degraded=False)
                responses.append(
                    LocalizationResponse(
                        query_id=request.query_id,
                        position=estimate.position,
                        estimate=estimate,
                        cache_hit=cache_hit,
                        latency_s=latency,
                    )
                )
            return responses

    def _solve(
        self,
        localizer: NomLocLocalizer,
        anchors: Sequence[Anchor],
        deadline: float | None,
        quality_weights=None,
    ) -> LocationEstimate:
        """The full SP pipeline with a cooperative between-piece deadline."""
        shared = localizer.build_shared_constraints(
            anchors,
            bisector_cache=self.bisector_cache,
            quality_weights=quality_weights,
        )

        def solve_one(index: int):
            if deadline is not None and time.perf_counter() > deadline:
                raise _DeadlineExceeded
            return localizer.solve_piece(index, shared)

        solutions = [solve_one(idx) for idx in range(len(localizer.pieces))]
        if deadline is not None and time.perf_counter() > deadline:
            raise _DeadlineExceeded
        return localizer.estimate_from_solutions(solutions)

    def _fallback_position(
        self, localizer: NomLocLocalizer, anchors: Sequence[Anchor]
    ) -> Point:
        """Graceful degradation: :func:`weighted_centroid` of the
        anchors, projected into the venue — coarse, but calibration-free
        and O(anchors)."""
        return localizer.project_into_area(weighted_centroid(anchors))
