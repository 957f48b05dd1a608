"""Load generator for the gateway: many connections, measured latency.

Drives a running gateway over real sockets the way a device fleet
would: ``connections`` persistent HTTP clients, each submitting either
ephemeral ``/v1/locate`` queries or durable ``/v1/measurements``
batches, in one of two arrival disciplines:

* **closed loop** (``rate_hz = None``) — each connection sends its next
  request the moment the previous answer lands; total offered load
  scales with connection count.  The discipline for "sustained QPS under
  N concurrent connections".
* **open loop** (``rate_hz`` set) — requests are launched on a global
  Poisson-free fixed schedule regardless of completions, the discipline
  that exposes queueing collapse (latency grows without bound once the
  rate exceeds capacity).

The report separates acked work from errors and keeps the acked batch
ids — the durability benchmark kills the gateway mid-run and asserts
every one of them survived into the ledger.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..core import Anchor
from ..obs import percentile
from .client import AsyncGatewayClient, GatewayError
from .http import HttpError

__all__ = ["LoadGenConfig", "LoadReport", "run_loadgen", "run_loadgen_sync"]


@dataclass(frozen=True)
class LoadGenConfig:
    """One load-generation campaign.

    Attributes
    ----------
    connections:
        Concurrent persistent client connections.
    duration_s:
        Campaign wall-clock budget; connections stop *launching* new
        requests after it elapses (in-flight ones finish).
    mode:
        ``"locate"`` (ephemeral) or ``"measurements"`` (durable ingest).
    rate_hz:
        Open-loop aggregate arrival rate; ``None`` = closed loop.
    wait:
        ``measurements`` only: ask the gateway to answer inline.
    batch_prefix:
        Prefix of generated batch ids (kept unique per request).
    """

    connections: int = 8
    duration_s: float = 3.0
    mode: str = "locate"
    rate_hz: float | None = None
    wait: bool = False
    batch_prefix: str = "loadgen"

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError("connections must be at least 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.mode not in ("locate", "measurements"):
            raise ValueError(f"unknown loadgen mode {self.mode!r}")
        if self.rate_hz is not None and self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive or None")


@dataclass
class LoadReport:
    """Outcome of one campaign."""

    completed: int = 0
    errors: int = 0
    duration_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    acked_batch_ids: list[str] = field(default_factory=list)
    positions: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """Latency percentile in seconds (0.0 for an empty campaign)."""
        if not self.latencies_s:
            return 0.0
        return percentile(self.latencies_s, q)

    def summary(self) -> dict:
        """Plain-dict roll-up for benchmarks and CLI output."""
        return {
            "completed": self.completed,
            "errors": self.errors,
            "duration_s": self.duration_s,
            "qps": self.qps,
            "latency_p50_ms": self.latency_quantile(50.0) * 1e3,
            "latency_p95_ms": self.latency_quantile(95.0) * 1e3,
            "latency_p99_ms": self.latency_quantile(99.0) * 1e3,
            "acked_batches": len(self.acked_batch_ids),
        }


async def run_loadgen(
    host: str,
    port: int,
    anchor_sets: Sequence[Sequence[Anchor]],
    config: LoadGenConfig | None = None,
) -> LoadReport:
    """Run one campaign against a gateway; returns its report.

    ``anchor_sets`` are cycled round-robin across requests, so a small
    pre-generated pool drives an arbitrarily long campaign.
    """
    cfg = config or LoadGenConfig()
    if not anchor_sets:
        raise ValueError("loadgen needs at least one anchor set")
    report = LoadReport()
    lock = asyncio.Lock()
    counter = 0
    deadline = time.perf_counter() + cfg.duration_s
    # Open loop: a global ticket clock; each ticket has a scheduled
    # launch time and any free connection takes the next one.
    interval = (
        None if cfg.rate_hz is None else 1.0 / cfg.rate_hz
    )
    start = time.perf_counter()

    async def next_ticket() -> int | None:
        nonlocal counter
        async with lock:
            now = time.perf_counter()
            if now >= deadline:
                return None
            ticket = counter
            counter += 1
        if interval is not None:
            launch_at = start + ticket * interval
            delay = launch_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if launch_at >= deadline:
                return None
        return ticket

    async def one_request(client: AsyncGatewayClient, ticket: int) -> None:
        anchors = anchor_sets[ticket % len(anchor_sets)]
        sent = time.perf_counter()
        try:
            if cfg.mode == "locate":
                reply = await client.locate(anchors, query_id=f"q{ticket}")
                key = f"q{ticket}"
            else:
                batch_id = f"{cfg.batch_prefix}-{ticket:08d}"
                reply = await client.submit_batch(
                    batch_id,
                    anchors,
                    object_id=f"obj{ticket % 4}",
                    wait=cfg.wait,
                )
                key = batch_id
        except (
            GatewayError,
            HttpError,
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            async with lock:
                report.errors += 1
            raise ConnectionError  # reconnect-or-stop signal to the worker
        latency = time.perf_counter() - sent
        async with lock:
            report.completed += 1
            report.latencies_s.append(latency)
            if cfg.mode == "measurements":
                report.acked_batch_ids.append(key)
            position = reply.get("position") or (
                (reply.get("estimate") or {}).get("position")
            )
            if position is not None:
                report.positions[key] = (position["x"], position["y"])

    async def worker() -> None:
        client = AsyncGatewayClient(host, port)
        try:
            await client.connect()
        except ConnectionError:
            async with lock:
                report.errors += 1
            return
        try:
            while True:
                ticket = await next_ticket()
                if ticket is None:
                    return
                try:
                    await one_request(client, ticket)
                except ConnectionError:
                    # Server went away (kill drill) — campaign over for
                    # this connection; acked work is already recorded.
                    return
        finally:
            await client.close()

    await asyncio.gather(*(worker() for _ in range(cfg.connections)))
    report.duration_s = time.perf_counter() - start
    return report


def run_loadgen_sync(
    host: str,
    port: int,
    anchor_sets: Sequence[Sequence[Anchor]],
    config: LoadGenConfig | None = None,
) -> LoadReport:
    """Blocking wrapper around :func:`run_loadgen` (own event loop)."""
    return asyncio.run(run_loadgen(host, port, anchor_sets, config))
