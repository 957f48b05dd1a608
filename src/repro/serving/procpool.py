"""Process-based serving workers: real parallelism past the GIL.

The per-query LP solves hold the GIL, so in-process threads add
contention, not parallelism.  This module is the service's only
concurrent path (``ServingConfig.max_workers >= 1``): it runs the solves
in worker **processes**, with the warmed read-only state shared instead
of rebuilt:

* each worker holds a full sequential :class:`LocalizationService`
  template (localizer, boundary rows, bisector cache) in a module
  global;
* under the ``fork`` start method (Linux default) the parent builds and
  warms that template *before* spawning, so every worker inherits the
  caches copy-on-write — zero per-worker warm-up, zero serialization of
  the topology state;
* under ``spawn``/``forkserver`` an initializer rebuilds the template
  from the pickled ``(area, localizer_config, serving_config)`` triple —
  slower start-up, identical behaviour.  A fork-inherited template
  built for a different venue or config (a later pool replaced the
  global before this pool's first fork) is rebuilt the same way.

One entry point, :meth:`ProcessPool.submit`, ships a chunk of requests
(a single request is a chunk of one); the worker serves it with the
inline reference pipeline (``max_workers=0``),
:meth:`LocalizationService._handle_batch`, which picks the scalar or
the stacked-LP solve from the chunk.  Responses are therefore
bit-identical to inline serving; only queue/latency metadata differs.

Tracing crosses the process boundary the way campaign workers do (see
:mod:`repro.eval.runner`): when the parent tracer is on at submit time,
the worker traces into a private :func:`~repro.obs.capture` and ships
``to_dict`` records back, which the parent adopts
(:meth:`~repro.obs.Tracer.adopt`) under the submitting thread's active
span.  Untraced submissions take the plain entry point.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from ..core import LocalizerConfig
from ..obs import capture, disable, get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..geometry import Polygon
    from .service import (
        LocalizationRequest,
        LocalizationResponse,
        LocalizationService,
        ServingConfig,
    )

__all__ = ["ProcessPool"]

#: The per-process template service.  In the parent it is set (and
#: warmed) before the executor forks, so fork-started workers inherit the
#: caches copy-on-write; spawn-started workers build their own copy in
#: :func:`_init_worker`.
_WORKER_SERVICE: "LocalizationService | None" = None


def _build_template(
    area: "Polygon",
    localizer_config: "LocalizerConfig | None",
    config: "ServingConfig",
) -> "LocalizationService":
    """A warmed sequential service for one worker process."""
    from .service import LocalizationService

    service = LocalizationService(area, localizer_config, config)
    # Prime the topology cache for the default venue so the first query
    # in every worker skips the convex decomposition + boundary rows.
    service._localizer_for(area)
    return service


def _init_worker(
    area: "Polygon",
    localizer_config: "LocalizerConfig | None",
    config: "ServingConfig",
) -> None:
    """Executor initializer: ensure the worker serves *this* pool's venue.

    Fork-started workers inherited ``_WORKER_SERVICE`` from the parent
    and keep it when it matches the initargs.  The executor forks lazily,
    at its first submit, so another pool built in between may have
    replaced the global with a different template; that one, like a
    spawn-started worker's empty global, is rebuilt here.  A tracer
    inherited through the fork is dropped: traced submissions install
    their own private one (see :func:`_traced`).
    """
    global _WORKER_SERVICE
    disable()
    template = _WORKER_SERVICE
    if (
        template is None
        or template.area != area
        or template.localizer_config != (localizer_config or LocalizerConfig())
        or template.config != config
    ):
        _WORKER_SERVICE = _build_template(area, localizer_config, config)


def _handle_batch(
    requests: list["LocalizationRequest"],
) -> list["LocalizationResponse"]:
    """Worker entry point: one chunk through the service's batch path."""
    assert _WORKER_SERVICE is not None, "worker initializer did not run"
    return _WORKER_SERVICE._handle_batch(requests)


def _traced(
    requests: list["LocalizationRequest"],
) -> tuple[list["LocalizationResponse"], list[dict]]:
    """:func:`_handle_batch` under a private tracer; ship its spans."""
    with capture() as tracer:
        responses = _handle_batch(requests)
    return responses, [sp.to_dict() for sp in tracer.finished()]


class ProcessPool:
    """Order-preserving pool of process workers for localization solves.

    Parameters
    ----------
    area, localizer_config, serving_config:
        The template the workers serve with.  ``serving_config`` is
        normalized to the inline reference (``max_workers=0``) inside
        each worker so a worker never nests pools.
    max_workers:
        Process count, at least 1.
    """

    def __init__(
        self,
        area: "Polygon",
        localizer_config: "LocalizerConfig | None",
        serving_config: "ServingConfig",
        max_workers: int,
    ) -> None:
        global _WORKER_SERVICE
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        template_config = replace(serving_config, max_workers=0, lp_batch=0)
        ctx = multiprocessing.get_context()
        if ctx.get_start_method() == "fork":
            # Build + warm before forking so workers inherit the caches
            # copy-on-write.
            _WORKER_SERVICE = _build_template(
                area, localizer_config, template_config
            )
        self._executor = ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_init_worker,
            initargs=(area, localizer_config, template_config),
        )

    def submit(
        self, requests: Sequence["LocalizationRequest"]
    ) -> "Future[list[LocalizationResponse]]":
        """Schedule one chunk on a worker; traced when the parent is.

        The worker serves the chunk the way the inline service does
        (:meth:`LocalizationService._handle_batch`).  The traced future
        resolves only after the worker's spans were adopted under the
        span active on the submitting thread, so a caller reading the
        tracer after ``result()`` sees them.
        """
        requests = list(requests)
        tracer = get_tracer()
        if tracer is None:
            return self._executor.submit(_handle_batch, requests)
        parent = tracer.current()
        parent_id = parent.span_id if parent is not None else None
        adopted: Future = Future()

        def _adopt(raw: Future) -> None:
            try:
                result, records = raw.result()
            except BaseException as exc:  # noqa: BLE001 — future carries it
                adopted.set_exception(exc)
                return
            tracer.adopt(records, parent_id=parent_id)
            adopted.set_result(result)

        self._executor.submit(_traced, requests).add_done_callback(_adopt)
        return adopted

    def shutdown(self) -> None:
        """Stop the worker processes (idempotent)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ProcessPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: shut the pool down."""
        self.shutdown()
