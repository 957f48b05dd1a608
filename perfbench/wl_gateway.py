"""gateway-ingest: measurements over the wire into the whole serving stack.

The gateway runs in its own process (``gateway_host.py``): lab venue,
default ``GatewayConfig`` / ``ServingConfig`` (one request per solve,
``lp_batch=0``), fsynced ledger on local disk, Kalman sessions over a
zone grid.  The load comes from this process over two connections:

* connection 1 posts ``/v1/measurements`` with ``wait=false`` for 32
  objects — first closed-loop back-to-back (each post waits only for its
  durable ack) in half-second bursts that saturate the solver, each
  counted until its backlog drains, then open-loop at a fixed 40
  requests per second;
* connection 2 is one WebSocket subscribed to all 32 objects, receiving
  the ``position`` and ``track`` pushes.

Every request is timed from the moment it was *due* (its slot in the
open-loop schedule, or the previous ack in the closed loop), not from
when it was sent, so a stalled generator cannot hide queueing.  Latency
percentiles are taken per window of 100 requests and throughput per
burst, reported as medians over windows and scaled to reference machine
speed (``common.SpeedScale``, timed inside the gateway process while it
is idle, median over the run).

Anchor sets come from a pool of 512 gathered with the Fig. 10 nomadic
position error ER = 1 m, so nomadic anchor positions rarely repeat and
the bisector cache is mostly bypassed (unlike ``locate-batch``).

Gates: every ack is a fresh ``accepted``; every acked batch yields
exactly one ``position`` and one ``track`` push; every pushed position
equals, bit for bit, an in-process ``LocalizationService`` answer on the
same anchors.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .common import (
    MISSED,
    Outcome,
    Report,
    SpeedScale,
    cleanup,
    median,
    median_setup,
    percentile,
    work_dir,
)
from .layers import traced_metrics

#: The open-loop rate: about a tenth of the solver's saturated capacity,
#: so requests seldom queue behind each other.  The shared machine's
#: speed drifts by a fifth or more, and nearer the knee a slow spell makes
#: queueing swamp the latency figures.
RATE_PER_S = 40.0
#: Share of the run spent in the open loop (the rest is closed-loop).
OPEN_SHARE = 0.75
OBJECTS = 32
POOL = 512
PACKETS = 6
POSITION_ERROR_M = 1.0
SETUP_REPEATS = 5
DRAIN_TIMEOUT_S = 10.0
STOP_TIMEOUT_S = 30.0
#: How long a speed sample or a burst waits for its track pushes.
PUSH_TIMEOUT_S = 2.0
#: Latency percentiles are taken per this many consecutive open-loop
#: requests (2.5 s at 40/s) and reported as the median over windows.  The
#: bounded tail is the upper quartile: on the shared machine the p90 of a
#: window swings by a third from run to run, the p75 by a tenth, like the
#: median.  The p90 per window and the phase's p95 and p99 are printed.
LATENCY_WINDOW = 100
TAIL_PERCENTILE = 75
SPEED_SAMPLE_EVERY = 50
#: Closed-loop burst length; each burst is drained before the next.
BURST_S = 0.5
HOST = Path(__file__).resolve().parent / "gateway_host.py"
LOAD_CPU, GATEWAY_CPU = 0, 1


def make_pool(seed: int):
    """``(requests' anchor sets, truth sites, reference positions)``."""
    from repro.core import NomLocSystem, SystemConfig
    from repro.environment import get_scenario
    from repro.serving import LocalizationRequest, LocalizationService

    scenario = get_scenario("lab")
    config = SystemConfig(packets_per_link=PACKETS).with_error_range(
        POSITION_ERROR_M)
    system = NomLocSystem(scenario, config)
    anchor_sets, truths = [], []
    for i in range(POOL):
        site = scenario.test_sites[i % len(scenario.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        anchor_sets.append(tuple(system.gather_anchors(site, rng)))
        truths.append(site)
    with LocalizationService(scenario.plan.boundary) as service:
        reference = [
            service.locate_request(LocalizationRequest(a)).position
            for a in anchor_sets
        ]
    return anchor_sets, truths, [(p.x, p.y) for p in reference]


class GatewayProcess:
    """One launched ``gateway_host.py``; always stopped and waited for."""

    def __init__(self, directory: Path, name: str, trace: bool,
                 cpu: int) -> None:
        self.out = directory / f"{name}.json"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HOST), "--db", str(directory / f"{name}.db"),
             "--out", str(self.out), "--trace", str(int(trace)),
             "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self.proc.stdout.readline().split()
            if len(ready) != 2 or ready[0] != "READY":
                raise RuntimeError(f"gateway did not start: {ready!r}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.port = int(ready[1])

    def command(self, line: str, answer: str) -> str:
        """Send one control line; the reply must start with ``answer``."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        got = self.proc.stdout.readline().strip()
        if got.split(" ", 1)[0] != answer:
            raise RuntimeError(f"gateway answered {got!r} to {line!r}")
        return got

    def kernel_seconds(self) -> float:
        """The calibration kernel's time inside the gateway process."""
        return float(self.command("speed", "SPEED").split()[1])

    def stop(self) -> dict:
        """Drain and stop the gateway; returns its spans and counters."""
        try:
            self.command("stop", "DONE")
            self.proc.wait(timeout=STOP_TIMEOUT_S)
            return json.loads(self.out.read_text())
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class _Stream:
    """The WebSocket subscriber: arrival time of every push, by batch."""

    def __init__(self) -> None:
        self.positions: dict[str, list] = {}  # batch -> [(t, x, y, degraded)]
        self.tracks: dict[str, list[float]] = {}  # batch -> [t]
        self._last_batch: dict[str, str] = {}  # object -> last position batch
        self.changed = asyncio.Event()

    async def open(self, port: int, objects) -> None:
        from repro.gateway import protocol
        from repro.gateway.ws import OP_TEXT, encode_frame

        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port)
        key = base64.b64encode(b"perfbench-stream").decode()
        self.writer.write((
            "GET /v1/stream HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        ).encode("latin-1"))
        head = await self.reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0]:
            raise RuntimeError(f"websocket upgrade refused: {head[:80]!r}")
        for object_id in objects:
            self.writer.write(encode_frame(OP_TEXT, protocol.dumps({
                "v": protocol.PROTOCOL_VERSION, "type": "subscribe",
                "object_id": object_id}).encode(), mask=True))
        await self.writer.drain()
        pending = set(objects)
        while pending:
            event = await self._next()
            if event.get("type") == "subscribed":
                pending.discard(event["object_id"])
        self.task = asyncio.ensure_future(self._pump())

    async def _next(self) -> dict:
        from repro.gateway import protocol
        from repro.gateway.ws import OP_TEXT, read_frame

        while True:
            opcode, payload = await read_frame(self.reader)
            if opcode == OP_TEXT:
                return protocol.loads(payload)

    async def _pump(self) -> None:
        while True:
            event = await self._next()
            now = time.perf_counter()
            kind, object_id = event.get("type"), event.get("object_id")
            if kind == "position":
                batch = event["batch_id"]
                self._last_batch[object_id] = batch
                pos = event["position"]
                self.positions.setdefault(batch, []).append(
                    (now, pos["x"], pos["y"], event["degraded"]))
            elif kind == "track":
                # A track push directly follows its position push on the
                # object's stream.
                batch = self._last_batch.get(object_id, "")
                self.tracks.setdefault(batch, []).append(now)
                self.changed.set()

    async def wait_for(self, batches, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        while any(b not in self.tracks for b in batches):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            self.changed.clear()
            try:
                await asyncio.wait_for(self.changed.wait(), remaining)
            except asyncio.TimeoutError:
                return

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError,
                asyncio.IncompleteReadError):
            pass
        self.writer.close()


class _Load:
    """Connection 1: the request generator and its bookkeeping."""

    def __init__(self, gateway: GatewayProcess, anchor_sets) -> None:
        from repro.gateway import AsyncGatewayClient

        self.client = AsyncGatewayClient("127.0.0.1", gateway.port)
        self.anchor_sets = anchor_sets
        self.next = 0
        self.sent: dict[str, tuple] = {}  # batch -> (pool index, due, ack t)
        self.refused: dict[str, int] = {}  # batch -> HTTP status
        self.late: list[float] = []
        # The speed the gateway process gets, sampled in it while it is
        # idle: every SPEED_SAMPLE_EVERY open-loop requests (in the gap
        # before the next is due) and after each closed-loop burst has
        # drained.  Single samples are disturbed by the gateway's own
        # leftover work, so timings are scaled by the median over the run.
        self.scale = SpeedScale(gateway.kernel_seconds)
        self._since_sample = 0

    def _sample(self) -> None:
        self.scale.window()
        self._since_sample = 0

    @property
    def factor(self) -> float:
        return median(self.scale.factors)

    async def post(self, due: float) -> str:
        from repro.gateway import GatewayError

        k = self.next
        self.next += 1
        batch = f"b{k:07d}"
        index = k % len(self.anchor_sets)
        self.late.append(time.perf_counter() - due)
        try:
            ack = await self.client.submit_batch(
                batch, self.anchor_sets[index], f"obj-{k % OBJECTS:02d}")
        except GatewayError as exc:
            self.refused[batch] = exc.status
            return batch
        if ack.get("status") != "accepted" or ack.get("duplicate"):
            self.refused[batch] = 200
        self.sent[batch] = (index, due, time.perf_counter())
        self._since_sample += 1
        return batch

    async def open_loop(self, seconds: float, stream: "_Stream") -> list[str]:
        """Post on a fixed schedule of RATE_PER_S for ``seconds``.

        The gateway's speed is sampled every SPEED_SAMPLE_EVERY requests,
        once it has answered and while the next request is not yet due.
        """
        start = time.perf_counter()
        batches = []
        count = int(seconds * RATE_PER_S)
        for k in range(count):
            due = start + k / RATE_PER_S
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            batches.append(await self.post(due))
            if self._since_sample >= SPEED_SAMPLE_EVERY:
                await stream.wait_for(batches[-1:], PUSH_TIMEOUT_S)
                next_due = start + (k + 1) / RATE_PER_S
                if next_due - time.perf_counter() > 4 * self.scale.last:
                    self._sample()
        if self._since_sample:
            await stream.wait_for(batches[-1:], PUSH_TIMEOUT_S)
            self._sample()
        return batches

    async def closed_loop(self, seconds: float, stream: "_Stream"):
        """Back-to-back bursts of BURST_S, each drained before the next.

        Returns the batches and, per burst, its answers per second until
        its last track push, as measured.
        """
        start = time.perf_counter()
        batches, rates = [], []
        while time.perf_counter() - start < seconds:
            burst_start = time.perf_counter()
            burst = []
            while time.perf_counter() - burst_start < BURST_S:
                burst.append(await self.post(time.perf_counter()))
            await stream.wait_for(burst, PUSH_TIMEOUT_S)
            ends = [stream.tracks[b][0] for b in burst if b in stream.tracks]
            self._sample()
            if ends:
                rates.append(len(ends) / (max(ends) - burst_start))
            batches += burst
        return batches, rates


class _Run:
    """Phase bookkeeping over one gateway process."""

    def __init__(self, seed: int, outcome: Outcome) -> None:
        self.outcome = outcome
        self.anchor_sets, truths, self.reference = make_pool(seed)
        # Served positions must equal the references (gated below), so
        # the error over the pool is the error of what the gateway serves.
        self.error_m = median(
            float(np.hypot(x - t.x, y - t.y))
            for (x, y), t in zip(self.reference, truths))

    def account(self, phase: str, batches, stream: _Stream, load: _Load):
        """Gate and count one phase; returns per-batch ack/track latency."""
        acks, tracks, failed = [], [], 0
        factor = load.factor
        mismatched = lost = 0
        for batch in batches:
            positions = stream.positions.get(batch, [])
            pushes = stream.tracks.get(batch, [])
            if batch in load.refused:
                failed += 1
                acks.append(MISSED)
                tracks.append(MISSED)
                continue
            index, due, acked = load.sent[batch]
            acks.append((acked - due) * 1e3 / factor)
            if len(positions) != 1 or len(pushes) != 1:
                lost += 1
                failed += 1
                tracks.append(MISSED)
                continue
            _t, x, y, degraded = positions[0]
            if not degraded and (x, y) != self.reference[index]:
                mismatched += 1
            if degraded or (x, y) != self.reference[index]:
                failed += 1
                tracks.append(MISSED)
                continue
            tracks.append((pushes[0] - due) * 1e3 / factor)
        self.outcome.count(phase, len(batches), failed)
        self.outcome.gate(lost == 0, f"{phase}: {lost} acked batches without "
                          "exactly one position and one track push")
        self.outcome.gate(mismatched == 0, f"{phase}: {mismatched} positions "
                          "differ from the in-process service answer")
        return acks, tracks


async def _phases(run: _Run, gateway: GatewayProcess, seconds: float,
                  trace: bool):
    loop = asyncio.get_running_loop()
    stream = _Stream()
    objects = [f"obj-{i:02d}" for i in range(OBJECTS)]
    await stream.open(gateway.port, objects)
    load = _Load(gateway, run.anchor_sets)
    results = {}
    try:
        rounds = [("", seconds)] if not trace else [
            ("untraced ", seconds / 2), ("traced ", seconds / 2)]
        for label, span_s in rounds:
            if label == "traced ":
                await loop.run_in_executor(
                    None, gateway.command, "trace on", "OK")
            round_start = time.perf_counter()
            # The closed loop runs first: besides measuring saturation it
            # warms the fresh gateway (sessions of all 32 objects, caches,
            # the ledger's pages), whose first seconds are twice as slow.
            closed, burst_rates = await load.closed_loop(
                span_s * (1 - OPEN_SHARE), stream)
            late_from = len(load.late)
            opened = await load.open_loop(span_s * OPEN_SHARE, stream)
            await stream.wait_for(opened + closed, DRAIN_TIMEOUT_S)
            if label == "traced ":
                await loop.run_in_executor(
                    None, gateway.command, "trace off", "OK")
            ack, track = run.account(label + "open-loop", opened, stream, load)
            run.account(label + "closed-loop", closed, stream, load)
            results[label] = {
                "factors": list(load.scale.factors),
                "ack": ack,
                "track": track,
                "saturated": median(burst_rates) * load.factor
                if burst_rates else 0.0,
                "late_ms": [x * 1e3 for x in load.late[late_from:]],
                "backlog_max": _backlog_max(opened + closed, load, stream),
                "fixes": len(opened) + len(closed),
                "wall_s": time.perf_counter() - round_start,
            }
    finally:
        await load.client.close()
        await stream.close()
    return results


def _windowed(latencies, q: float) -> float:
    """Median over consecutive windows of requests of the q-th percentile
    (over all requests when a short run has less than one window)."""
    windows = [latencies[i:i + LATENCY_WINDOW]
               for i in range(0, len(latencies) - LATENCY_WINDOW + 1,
                              LATENCY_WINDOW)] or [latencies]
    return median(percentile(w, q) for w in windows)


def _backlog_max(batches, load: _Load, stream: _Stream) -> int:
    """Largest number of acked batches still waiting for their track push."""
    steps = []
    for batch in batches:
        if batch in load.sent:
            steps.append((load.sent[batch][2], 1))
        if batch in stream.tracks:
            steps.append((stream.tracks[batch][0], -1))
    level = peak = 0
    for _t, step in sorted(steps):
        level += step
        peak = max(peak, level)
    return peak


def run(seed: int, seconds: float, trace: bool) -> Report:
    outcome = Outcome()
    directory = work_dir("gateway-ingest")
    launched: list[GatewayProcess] = []
    # The load generator and the gateway each get a CPU of their own, so
    # the generator never takes the gateway's CPU and the two stay on the
    # same CPUs from run to run.
    affinity = os.sched_getaffinity(0)
    pinned = {LOAD_CPU, GATEWAY_CPU} <= affinity
    if pinned:
        os.sched_setaffinity(0, {LOAD_CPU})
    try:
        run_state = _Run(seed, outcome)

        def start():
            launched.append(GatewayProcess(
                directory, f"gw{len(launched)}", trace,
                GATEWAY_CPU if pinned else -1))
            return launched[-1], launched[-1].setup_s

        gateway, setup_s = median_setup(
            start, lambda g: g.stop(), SETUP_REPEATS)
        results = asyncio.run(_phases(run_state, gateway, seconds, trace))
        final = gateway.stop()
        if not trace:
            r = results[""]
            metrics = {
                "setup_s": setup_s,
                "fixes_per_s": r["saturated"],
                "p50_ms": _windowed(r["track"], 50),
                "tail_ms": _windowed(r["track"], TAIL_PERCENTILE),
                "error_m": run_state.error_m,
            }
            return Report(outcome, metrics, [
                f"open loop at {RATE_PER_S:g}/s: "
                f"{len(r['ack'])} requests",
                f"ack_p50_ms {_windowed(r['ack'], 50):.3f} ms, ack p75 "
                f"{_windowed(r['ack'], 75):.3f} ms, p90 "
                f"{_windowed(r['ack'], 90):.3f} ms; over the phase ack_p95_ms "
                f"{percentile(r['ack'], 95):.3f} ms, p99 "
                f"{percentile(r['ack'], 99):.3f} ms",
                f"track_p50_ms {metrics['p50_ms']:.3f} ms, track p75 "
                f"{metrics['tail_ms']:.3f} ms, p90 "
                f"{_windowed(r['track'], 90):.3f} ms; over the phase "
                f"track_p95_ms {percentile(r['track'], 95):.3f} ms, p99 "
                f"{percentile(r['track'], 99):.3f} ms",
                f"saturated_fixes_per_s {r['saturated']:.1f} 1/s",
                f"generator late p50 {percentile(r['late_ms'], 50):.3f} ms, "
                f"p95 {percentile(r['late_ms'], 95):.3f} ms",
                f"median_error_m {metrics['error_m']:.4f} m",
                f"machine speed factor median {median(r['factors']):.3f}",
            ])
        spans = final["spans"]
        counters = final["counters"]
        u, t = results["untraced "], results["traced "]
        fixes = t["fixes"]
        updates = counters["session_updates"]
        metrics, lines = traced_metrics(
            outcome, spans, t["wall_s"], fixes,
            {
                "serving.bisector_hit_rate": counters["bisector_hits"] / max(
                    1, counters["bisector_hits"] + counters["bisector_misses"]),
                "serving.degraded": float(outcome.failed),
                "cluster.failovers": float(counters["failovers"]),
                "gateway.backlog_max": float(t["backlog_max"]),
                "gateway.generator_late_ms": percentile(t["late_ms"], 95),
                "sessions.events": counters["session_events"] / max(
                    1, updates) * 1e3,
                "obs.trace_overhead_frac": u["saturated"] / t["saturated"] - 1.0,
            },
            {
                "gateway.ledger_batch": fixes,
                "gateway.ledger_estimate": fixes,
                "gateway.decode": 3 * fixes,
                "gateway.bridge": fixes,
                "cluster.route": fixes,
                "serving.locate_request": fixes,
                "localizer.assemble": fixes,
                "localizer.solve": fixes,
                "localizer.merge": fixes,
                "localizer.locate_batch": 0,
                "sessions.observe": fixes,
                "sessions.evict": fixes,
                "durable.append": 0,
            },
        )
        return Report(outcome, metrics, lines, spans)
    finally:
        for gateway in launched:
            gateway.kill()
        os.sched_setaffinity(0, affinity)
        cleanup(directory)
