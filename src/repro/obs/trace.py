"""Lightweight span tracing for the NomLoc pipeline.

A *span* is one timed stage of a localization query — ``csi.synthesize``,
``lp.solve``, ``serve.query`` — with monotonic start/duration, arbitrary
attributes, and accumulating counters (e.g. simplex pivots).  Spans nest:
each thread keeps its own active-span stack, so the tracer is safe under
the gateway's solver-bridge threads without any cross-thread locking on
the hot path (only finishing a span takes the tracer lock, to append it
to the shared finished list).  Spans recorded in worker processes come
back as :meth:`Span.to_dict` records and are merged with
:meth:`Tracer.adopt`.

Design constraints, in order:

1. **Zero behavioural impact** — spans only observe wall time; every
   instrumented code path computes bit-identical results with tracing on
   or off (asserted in ``tests/obs`` and the overhead benchmark).
2. **Cheap when off** — call sites go through
   :func:`repro.obs.instrument.span`, which returns a shared no-op when
   no tracer is installed; this module is only on the hot path when
   tracing is actually enabled.
3. **Zero dependencies** — stdlib only, so the lowest layers of the
   stack (``repro.channel``, ``repro.optimize``) can import it without
   cycles.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Iterable

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, attributed, countable stage of the pipeline.

    Spans are context managers::

        with tracer.start("lp.solve", piece=3) as sp:
            ...
            sp.incr("simplex.pivots", result.iterations)

    ``span_id``/``parent_id`` encode the nesting that was active on this
    span's thread when it started; ``parent_id`` is ``None`` for roots.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "thread_name",
        "start_s",
        "duration_s",
        "attributes",
        "counters",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        tracer: "Tracer | None" = None,
        attributes: dict | None = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_name = threading.current_thread().name
        self.start_s = 0.0
        self.duration_s = 0.0
        self.attributes: dict = dict(attributes) if attributes else {}
        self.counters: dict[str, float] = {}
        self._tracer = tracer

    # -- recording ------------------------------------------------------
    def set(self, **attrs) -> "Span":
        """Attach key/value attributes to the span (last write wins)."""
        self.attributes.update(attrs)
        return self

    def incr(self, counter: str, value: float = 1.0) -> "Span":
        """Accumulate ``value`` onto a named counter of the span."""
        self.counters[counter] = self.counters.get(counter, 0.0) + value
        return self

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self.start_s
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- (de)serialization ----------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form, the JSONL exporter's record schema."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread_name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """Rebuild a finished span from its :meth:`to_dict` record."""
        span = cls(
            record["name"],
            record["span_id"],
            record.get("parent_id"),
            attributes=record.get("attributes") or {},
        )
        span.thread_name = record.get("thread", span.thread_name)
        span.start_s = float(record.get("start_s", 0.0))
        span.duration_s = float(record.get("duration_s", 0.0))
        span.counters = dict(record.get("counters") or {})
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_s * 1e3:.3f} ms)"
        )


class Tracer:
    """Collects finished spans from any number of threads.

    Each thread sees its own active-span stack (``threading.local``), so
    nested ``with`` blocks on one thread parent correctly while other
    threads start independent span trees — exactly the shape of a
    gateway solve, where ``gateway.solve`` runs on a bridge thread and
    the solver's nested spans land under it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._finished: list[Span] = []
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------
    def start(self, name: str, **attrs) -> Span:
        """Create a span parented to this thread's currently active span."""
        parent = self.current()
        parent_id = parent.span_id if parent is not None else None
        return Span(name, next(self._ids), parent_id, tracer=self, attributes=attrs)

    def current(self) -> Span | None:
        """This thread's innermost active span, if any."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1]

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # unwound out of order (generators)
            stack.remove(span)
        with self._lock:
            self._finished.append(span)

    # -- cross-process merging ------------------------------------------
    def adopt(
        self,
        records: Iterable[dict],
        parent_id: int | None = None,
    ) -> list[Span]:
        """Merge spans recorded by another process into this tracer.

        ``records`` are :meth:`Span.to_dict` dicts from one *single*
        foreign tracer — every worker tracer numbers its spans from 1, so
        batches from different workers collide and must be adopted one
        batch at a time.  Each span receives a fresh id from this
        tracer's counter; intra-batch parent links are remapped to the
        new ids, and the batch's roots are re-parented under
        ``parent_id`` (``None`` leaves them roots).  Completion order
        within the batch is preserved.
        """
        spans = [Span.from_dict(r) for r in records]
        with self._lock:
            id_map = {sp.span_id: next(self._ids) for sp in spans}
            for sp in spans:
                # Children finish (and therefore serialize) before their
                # parents, so the full id map must exist before any link
                # is rewritten — hence the two passes.
                if sp.parent_id in id_map:
                    sp.parent_id = id_map[sp.parent_id]
                else:
                    sp.parent_id = parent_id
                sp.span_id = id_map[sp.span_id]
            self._finished.extend(spans)
        return spans

    def reparent(
        self, span_ids: Iterable[int], parent_id: int | None
    ) -> int:
        """Re-home already-finished spans under a new parent.

        The in-process sibling of :meth:`adopt`: spans recorded on a
        *different thread* of the same tracer (a gateway bridge solve)
        start as thread-local roots, because the
        per-thread active stack cannot see the caller's span.  Once the
        caller knows which root spans belong to it, it re-parents them —
        ids are already unique within one tracer, so unlike ``adopt`` no
        re-issuing is needed.  Returns the number of spans re-homed.
        """
        wanted = set(span_ids)
        moved = 0
        with self._lock:
            for sp in self._finished:
                if sp.span_id in wanted:
                    sp.parent_id = parent_id
                    moved += 1
        return moved

    # -- inspection -----------------------------------------------------
    def finished(self) -> tuple[Span, ...]:
        """Snapshot of every finished span, in completion order."""
        with self._lock:
            return tuple(self._finished)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def reset(self) -> None:
        """Drop all finished spans (active stacks are left alone)."""
        with self._lock:
            self._finished.clear()
