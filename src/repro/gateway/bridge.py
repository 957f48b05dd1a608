"""The async/sync boundary: bounded thread offload into the solver.

The gateway's event loop must never block on an LP — the solver
(:class:`repro.cluster.LocalizationCluster` /
:class:`repro.serving.LocalizationService`) is synchronous and
CPU-bound, so every solve hops onto a small thread pool via
``loop.run_in_executor``.  Two bounds keep the loop healthy:

* the executor's worker count caps solver concurrency (more would just
  thrash the GIL — see ``BENCH_serving_throughput.json``);
* an :class:`asyncio.Semaphore` caps *admitted-but-unsolved* requests,
  so a flood of connections backs up in the kernel's accept queue
  instead of ballooning the process heap (the async sibling of the
  serving layer's :class:`~repro.serving.queueing.AdmissionQueue`).

Observability crosses the thread boundary too: the solve runs under a
``gateway.solve`` span on the pool thread (where the solver's own spans
nest naturally), the async side records a ``gateway.request`` span with
the request's full wall time, and the solve's root span is re-parented
under it
(:meth:`repro.obs.Tracer.reparent`) — one tree per request, across the
async/sync seam.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from ..obs import get_tracer, span
from ..serving import LocalizationRequest

__all__ = ["SolverBridge"]


class SolverBridge:
    """Bounded executor bridge from coroutines into a sync solver.

    Parameters
    ----------
    target:
        Anything with a ``locate_request(LocalizationRequest)`` method —
        a cluster or a bare service.
    max_workers:
        Solver threads (also the executor size for ledger writes routed
        through :meth:`run`).
    max_inflight:
        Admission bound: at most this many requests may be past the
        semaphore at once; further submitters await their turn.
    """

    def __init__(self, target, max_workers: int = 2, max_inflight: int = 64):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.target = target
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-gateway-solve"
        )
        self._sema = asyncio.Semaphore(max_inflight)
        self._inflight = 0
        self._closed = False

    @property
    def inflight(self) -> int:
        """Requests currently admitted past the semaphore."""
        return self._inflight

    def _solve_sync(self, request: LocalizationRequest):
        """Pool-thread body: the solve, under its boundary span."""
        sp = span(
            "gateway.solve",
            query_id=request.query_id,
            anchors=len(request.anchors),
        )
        span_id = getattr(sp, "span_id", None)
        with sp:
            response = self.target.locate_request(request)
        return response, span_id

    async def locate(self, request: LocalizationRequest):
        """Solve one request off-loop; returns the solver's response.

        Backpressure point: awaits the admission semaphore first.  The
        caller's cancellation is honoured while waiting; once admitted
        the solve itself runs to completion on its thread.
        """
        if self._closed:
            raise RuntimeError("solver bridge is closed")
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        async with self._sema:
            self._inflight += 1
            try:
                response, solve_span_id = await loop.run_in_executor(
                    self._pool, self._solve_sync, request
                )
            finally:
                self._inflight -= 1
        self._record_request_span(
            request, started, time.perf_counter() - started, solve_span_id
        )
        return response

    async def run(self, fn, *args):
        """Run any blocking callable (ledger writes) on the pool."""
        if self._closed:
            raise RuntimeError("solver bridge is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn, *args)

    def _record_request_span(
        self, request, started: float, duration: float, solve_span_id
    ) -> None:
        """Record the request-level span and adopt the solve under it.

        The event-loop thread can't hold a ``with span(...)`` open across
        awaits without mis-nesting concurrent requests' spans, so the
        request span is recorded after the fact with its measured wall
        time, then the solve tree is re-homed under it.
        """
        tracer = get_tracer()
        if tracer is None:
            return
        sp = tracer.start(
            "gateway.request",
            query_id=request.query_id,
            anchors=len(request.anchors),
        )
        with sp:
            pass
        sp.start_s = started
        sp.duration_s = duration
        if solve_span_id is not None:
            tracer.reparent([solve_span_id], sp.span_id)

    def shutdown(self) -> None:
        """Stop accepting and join the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
