"""Span recording around the public callables of each layer.

The benchmark measures the program from outside: :func:`install` swaps a
callable on its class or module for a wrapper that records one span per
call, and :func:`uninstall` puts the original back.  Nothing under
``src/`` is edited.  Spans live in memory (a plain list) until the run
ends; :func:`dump` writes them out as JSON lines.

A span is ``[name, start, end, parent, request, thread, detached]``.  The
parent is the innermost span open on the same thread when the call began,
so synchronous nesting (cluster → service → localizer) links itself.
Spans of coroutines are *detached*: their lifetimes interleave on the
event-loop thread, so they take no parent and open no scope; instead a
root span that carries the same request id (``batch_id`` / ``query_id``)
and lies within its interval counts as its child.

A span's *self time* is its duration minus the time covered by its
children; children on one thread never overlap, so that is the span's
duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "dump", "install", "since", "summarize", "uninstall"]


class Tracer:
    """In-memory span store; recording is switched with :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: str, nest: bool = True) -> int | None:
        if not self.enabled:
            return None
        stack = self._stack() if nest else None
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), None, parent, request,
                  threading.get_ident(), not nest]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        if stack is not None:
            stack.append(index)
        return index

    def end(self, index: int | None, nest: bool = True) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        if nest:
            stack = self._stack()
            if stack and stack[-1] == index:
                stack.pop()


def dump(spans: list[list], path) -> None:
    """Write every finished span as one JSON object per line."""
    with open(path, "w") as out:
        for i, (name, start, end, parent, request, thread, detached) in (
            enumerate(spans)
        ):
            if end is None:
                continue
            out.write(json.dumps({
                "id": i, "name": name, "start": start, "end": end,
                "parent": parent, "request": request, "thread": thread,
                "detached": detached,
            }) + "\n")


def since(spans: list[list], first: int) -> list[list]:
    """The spans from index ``first`` on, parent links rebased."""
    return [
        [name, start, end,
         parent - first if parent is not None and parent >= first else None,
         request, thread, detached]
        for name, start, end, parent, request, thread, detached in spans[first:]
    ]


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds."""
    by_request = {
        span[4]: i for i, span in enumerate(spans) if span[6] and span[4]
    }
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, request, _thread, is_detached in spans:
        if end is None or is_detached:
            continue
        if parent is None and request in by_request:
            owner = spans[by_request[request]]
            if owner[2] is not None and owner[1] <= start and end <= owner[2]:
                parent = by_request[request]
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        if end is None:
            continue
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time.get(i, 0.0)
    return out


def _request_id(args, kwargs, request_arg) -> str:
    if request_arg is None:
        return ""
    value = request_arg(*args, **kwargs)
    return value if isinstance(value, str) else ""


def _make_wrapper(tracer: Tracer, original, name: str, request_arg):
    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            index = tracer.begin(
                name, _request_id(args, kwargs, request_arg), nest=False
            )
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.end(index, nest=False)

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name, _request_id(args, kwargs, request_arg))
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def install(tracer: Tracer, points) -> list[tuple]:
    """Wrap every ``(owner, attribute, span name, request_arg)`` point.

    ``request_arg`` maps the call's arguments to its request id (or is
    ``None``).  Returns the undo list for :func:`uninstall`.
    """
    undo = []
    for owner, attribute, name, request_arg in points:
        original = owner.__dict__[attribute]
        wrapped = _make_wrapper(tracer, original, name, request_arg)
        setattr(owner, attribute, wrapped)
        undo.append((owner, attribute, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)
