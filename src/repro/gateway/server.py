"""`GatewayServer`: the asyncio network front door of the NomLoc stack.

The first component that lets anything *outside* the Python process
submit measurements or receive estimates.  One asyncio event loop owns
all connections (HTTP keep-alive + WebSocket streams); every solve hops
across the :class:`~repro.gateway.bridge.SolverBridge` into the
sharded/replicated :class:`~repro.cluster.LocalizationCluster`, and
every measurement batch is acked only after the
:class:`~repro.gateway.store.MeasurementLedger` committed it (WAL +
fsync), so the ingest path is durable across a SIGKILL.

Request lifecycle of a durable submission::

    POST /v1/measurements ──▶ decode+validate ──▶ ledger INSERT (fsync)
         ◀── ack {"status": "accepted"} ─────────────┘
    background: bridge.locate() ──▶ ledger estimate row
                                └─▶ WebSocket push to the object's
                                    subscribers

Crash recovery: on :meth:`GatewayServer.start`, every acked batch
without an estimate row (the backlog a kill left behind) is re-solved
and answered from the ledger alone — acked means answered, eventually,
across restarts.

Graceful shutdown (:meth:`GatewayServer.stop`, wired to
SIGTERM/SIGINT by :meth:`serve_forever`): stop accepting, let in-flight
requests finish, complete the background solve backlog, drain the
cluster's services (:meth:`~repro.cluster.LocalizationCluster.drain`),
checkpoint + close the WAL ledger, and flush tracer spans.  A test
asserts no acked write is lost across a drain.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cluster import ClusterConfig, LocalizationCluster
from ..core import LocalizerConfig
from ..geometry import Polygon
from ..obs import dump_jsonl, get_tracer
from ..serving import LocalizationRequest
from ..serving.metrics import json_safe
from . import protocol
from .bridge import SolverBridge
from .http import (
    HttpError,
    HttpRequest,
    read_request,
    write_json_response,
)
from .store import MeasurementLedger
from .ws import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    WebSocketError,
    accept_key,
    encode_frame,
    read_frame,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layer cycle
    from ..sessions import SessionManager

__all__ = ["GatewayConfig", "GatewayServer"]


@dataclass(frozen=True)
class GatewayConfig:
    """Operational knobs of one gateway process.

    Attributes
    ----------
    host / port:
        Bind address; port ``0`` asks the kernel for an ephemeral port
        (read the bound one off :attr:`GatewayServer.port`).
    db_path:
        Ledger file; ``":memory:"`` serves without durability (tests).
    num_shards / replicas_per_shard:
        Shape of the backing localization cluster.
    solver_workers:
        Threads in the solve/ledger executor.
    max_inflight:
        Admission bound across the async/sync boundary.
    synchronous:
        Ledger ``PRAGMA synchronous`` level (``"FULL"`` = acks fsync).
    drain_timeout_s:
        Grace budget for in-flight work during :meth:`GatewayServer.stop`.
    trace_out:
        When set and tracing is enabled, finished spans are flushed to
        this JSONL path on shutdown.
    ws_replay_buffer:
        Events retained per object for ``resume_from`` replay after a
        dropped stream (0 disables resume).
    ws_heartbeat_s:
        Seconds of stream silence before the server pings a WebSocket
        client (0 disables heartbeats — streams then live until the
        peer closes).
    ws_idle_pings:
        Consecutive unanswered heartbeats before the connection is
        declared dead and closed.
    """

    host: str = "127.0.0.1"
    port: int = 0
    db_path: str = "gateway.db"
    num_shards: int = 1
    replicas_per_shard: int = 1
    solver_workers: int = 2
    max_inflight: int = 64
    synchronous: str = "FULL"
    drain_timeout_s: float = 10.0
    trace_out: str | None = None
    ws_replay_buffer: int = 256
    ws_heartbeat_s: float = 0.0
    ws_idle_pings: int = 2

    def __post_init__(self) -> None:
        if self.num_shards < 1 or self.replicas_per_shard < 1:
            raise ValueError("cluster shape must be at least 1x1")
        if self.solver_workers < 1:
            raise ValueError("solver_workers must be at least 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")
        if self.ws_replay_buffer < 0:
            raise ValueError("ws_replay_buffer must be non-negative")
        if self.ws_heartbeat_s < 0:
            raise ValueError("ws_heartbeat_s must be non-negative")
        if self.ws_idle_pings < 1:
            raise ValueError("ws_idle_pings must be at least 1")


class _Connection:
    """Book-keeping for one accepted socket."""

    __slots__ = ("writer", "busy", "is_ws", "queue")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.busy = False
        self.is_ws = False
        self.queue: asyncio.Queue | None = None


class GatewayServer:
    """The network edge: HTTP + WebSocket over one localization cluster.

    Parameters
    ----------
    area:
        Default venue polygon served by the backing cluster.
    localizer_config:
        SP knobs, passed through to the cluster.
    config:
        Operational :class:`GatewayConfig`.
    sessions:
        Optional :class:`~repro.sessions.SessionManager`.  When set,
        every answered measurement batch with an ``object_id`` also
        feeds the session layer, and subscribers of that object receive
        ``track`` (filtered position) and ``session-event``
        (zone/geofence) pushes alongside the raw ``position`` events.
        Session timestamps come from the gateway's monotonic clock.
    """

    def __init__(
        self,
        area: Polygon,
        localizer_config: LocalizerConfig | None = None,
        config: GatewayConfig | None = None,
        sessions: "SessionManager | None" = None,
    ) -> None:
        self.config = config or GatewayConfig()
        self.area = area
        self.sessions = sessions
        self._session_t0 = time.monotonic()
        self.cluster = LocalizationCluster(
            area,
            localizer_config,
            ClusterConfig(
                num_shards=self.config.num_shards,
                replicas_per_shard=self.config.replicas_per_shard,
            ),
        )
        self.ledger = MeasurementLedger(
            self.config.db_path, synchronous=self.config.synchronous
        )
        self.bridge = SolverBridge(
            self.cluster,
            max_workers=self.config.solver_workers,
            max_inflight=self.config.max_inflight,
        )
        self.host = self.config.host
        self.port = self.config.port
        self.replayed = 0  # backlog batches answered during start()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._solve_tasks: set[asyncio.Task] = set()
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        #: per-object monotonic stream sequence (stamped on every push).
        self._stream_seq: dict[str, int] = {}
        #: per-object bounded replay ring for `resume_from` reconnects.
        self._replay: dict[str, deque] = {}
        self._closing = False
        self._stopped = False
        self.requests_total = 0
        self.ingested_total = 0
        self.duplicates_total = 0
        self.answered_total = 0
        self.published_total = 0
        self.resumed_total = 0
        self.idle_closed_total = 0
        self.errors_total = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover the ledger backlog, then start accepting connections."""
        await self._replay_backlog()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]

    async def _replay_backlog(self) -> None:
        """Idempotently answer every acked-but-unanswered batch.

        The crash-recovery path: a previous gateway acked these batches
        (they are committed) but died before storing their estimates.
        Solving from the ledger payload re-serves them bit-identically —
        the solver is deterministic and the payload carries the exact
        anchors (and gate) of the original submission.
        """
        for pending in self.ledger.pending_batches():
            request = self._request_from_payload(
                pending["batch_id"], pending["payload"]
            )
            await self._answer_batch(
                pending["batch_id"], pending["object_id"], request
            )
            self.replayed += 1

    async def serve_forever(self, stop_signals=(signal.SIGTERM, signal.SIGINT)):
        """Run until a stop signal arrives, then shut down gracefully."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        installed = []
        for sig in stop_signals:
            try:
                loop.add_signal_handler(sig, stop_event.set)
                installed.append(sig)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass  # non-Unix loop; rely on KeyboardInterrupt
        try:
            await stop_event.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.stop()

    async def stop(self) -> None:
        """Graceful drain: see the module docstring for the sequence."""
        if self._stopped:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Wake WS pumps and close idle keep-alive connections; busy ones
        # finish their current request and then exit their loops.
        for conn in list(self._connections):
            if conn.queue is not None:
                # Streams: stop the pump and abort the blocked frame read.
                conn.queue.put_nowait(None)
                conn.writer.close()
            elif not conn.busy:
                conn.writer.close()
        if self._conn_tasks:
            await asyncio.wait(
                self._conn_tasks, timeout=self.config.drain_timeout_s
            )
        # Background solve backlog: every acked batch gets its estimate
        # row before the ledger closes — the no-acked-write-lost half of
        # the durability contract that drain (vs kill) guarantees.
        while self._solve_tasks:
            await asyncio.wait(
                list(self._solve_tasks), timeout=self.config.drain_timeout_s
            )
            if any(not t.done() for t in self._solve_tasks):  # pragma: no cover
                break
            self._solve_tasks = {t for t in self._solve_tasks if not t.done()}
        await self.bridge.run(self.cluster.drain)
        self._stopped = True
        self.bridge.shutdown()
        self.ledger.close()
        self._flush_spans()

    def _flush_spans(self) -> None:
        tracer = get_tracer()
        if tracer is not None and self.config.trace_out:
            dump_jsonl(tracer.finished(), self.config.trace_out)

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while not self._closing:
                try:
                    request = await read_request(reader)
                except (HttpError, ConnectionError):
                    break
                if request is None:
                    break
                conn.busy = True
                try:
                    if self._is_ws_upgrade(request):
                        await self._serve_websocket(conn, reader, writer, request)
                        break
                    keep_alive = request.keep_alive and not self._closing
                    await self._dispatch(request, writer, keep_alive)
                except (ConnectionError, HttpError):
                    break
                finally:
                    conn.busy = False
                if not request.keep_alive:
                    break
        finally:
            self._connections.discard(conn)
            writer.close()

    @staticmethod
    def _is_ws_upgrade(request: HttpRequest) -> bool:
        return (
            request.headers.get("upgrade", "").lower() == "websocket"
            and "sec-websocket-key" in request.headers
        )

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        """Route one HTTP request, mapping protocol errors to 4xx JSON."""
        self.requests_total += 1
        try:
            status, payload = await self._route(request)
        except protocol.ProtocolError as exc:
            self.errors_total += 1
            status, payload = 400, {"error": exc.code, "detail": str(exc)}
        except Exception as exc:  # solver/ledger pathologies: flagged 500
            self.errors_total += 1
            status, payload = 500, {
                "error": "internal",
                "detail": f"{type(exc).__name__}: {exc}",
            }
        await write_json_response(writer, status, payload, keep_alive)

    async def _route(self, request: HttpRequest) -> tuple[int, dict]:
        method, path = request.method, request.path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            return 200, {
                "v": protocol.PROTOCOL_VERSION,
                "status": "closing" if self._closing else "ok",
            }
        if method == "GET" and path == "/metrics":
            return 200, self._metrics_payload()
        if method == "POST" and path == "/v1/locate":
            return await self._handle_locate(request)
        if method == "POST" and path == "/v1/measurements":
            return await self._handle_measurements(request)
        if method == "GET" and path.startswith("/v1/estimates/"):
            return self._handle_get_estimate(path.rsplit("/", 1)[1])
        if path in ("/healthz", "/metrics", "/v1/locate", "/v1/measurements"):
            return 405, {"error": "method-not-allowed", "detail": method}
        return 404, {"error": "not-found", "detail": path}

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _handle_locate(self, request: HttpRequest) -> tuple[int, dict]:
        """Ephemeral query: solve and answer, nothing persisted."""
        loc_request = protocol.decode_locate(request.json())
        response = await self.bridge.locate(loc_request)
        return 200, protocol.response_to_dict(response)

    async def _handle_measurements(
        self, request: HttpRequest
    ) -> tuple[int, dict]:
        """Durable ingest: persist (fsync), ack, then answer."""
        batch = protocol.decode_measurement_batch(request.json())
        batch_id, object_id = batch["batch_id"], batch["object_id"]
        payload = request.json()
        payload.pop("wait", None)
        gate = batch["gate"]
        inserted = await self.bridge.run(
            functools.partial(
                self.ledger.record_batch,
                batch_id,
                object_id,
                batch["anchors"],
                json.dumps(payload, sort_keys=True),
                verdicts=(
                    [v.to_dict() for v in gate.verdicts] if gate else ()
                ),
            )
        )
        # From here on the batch is committed: whatever happens next, a
        # restart will find and answer it.
        if inserted:
            self.ingested_total += 1
        else:
            self.duplicates_total += 1
        ack = {
            "v": protocol.PROTOCOL_VERSION,
            "status": "accepted",
            "batch_id": batch_id,
            "duplicate": not inserted,
        }
        loc_request = LocalizationRequest(
            batch["anchors"], query_id=batch_id, gate=gate
        )
        if batch["wait"]:
            stored = self.ledger.get_estimate(batch_id) if not inserted else None
            ack["estimate"] = (
                stored
                if stored is not None
                else await self._answer_batch(batch_id, object_id, loc_request)
            )
            return 200, ack
        if inserted:
            task = asyncio.ensure_future(
                self._answer_batch(batch_id, object_id, loc_request)
            )
            self._solve_tasks.add(task)
            task.add_done_callback(self._solve_tasks.discard)
        return 200, ack

    async def _answer_batch(
        self, batch_id: str, object_id: str, request: LocalizationRequest
    ) -> dict:
        """Solve one acked batch, persist its estimate, notify streams."""
        response = await self.bridge.locate(request)
        wire = protocol.response_to_dict(response)
        await self.bridge.run(self.ledger.record_estimate, batch_id, wire)
        self.answered_total += 1
        self._publish(object_id, protocol.position_event(object_id, batch_id, wire))
        if self.sessions is not None and object_id:
            self._feed_sessions(object_id, response)
        return wire

    def _feed_sessions(self, object_id: str, response) -> None:
        """Feed one answered estimate to the session layer and fan out.

        Runs on the event loop (SessionManager is not thread-safe);
        ingest at gateway scale is a few filter multiplies and an O(1)
        zone lookup.  Idle eviction piggybacks on the same tick so a
        quiet gateway still ages out stale sessions as long as *any*
        object keeps reporting.
        """
        now_s = time.monotonic() - self._session_t0
        update, events = self.sessions.ingest(object_id, now_s, response)
        self._publish(object_id, protocol.track_event(object_id, update))
        for event in events:
            self._publish(object_id, protocol.session_event(object_id, event.to_dict()))
        for event in self.sessions.evict_idle(now_s):
            self._publish(
                event.object_id,
                protocol.session_event(event.object_id, event.to_dict()),
            )

    def _handle_get_estimate(self, batch_id: str) -> tuple[int, dict]:
        estimate = self.ledger.get_estimate(batch_id)
        if estimate is not None:
            return 200, {
                "v": protocol.PROTOCOL_VERSION,
                "status": "answered",
                "estimate": estimate,
                "verdicts": self.ledger.get_verdicts(batch_id),
            }
        if self.ledger.get_batch(batch_id) is not None:
            return 200, {
                "v": protocol.PROTOCOL_VERSION,
                "status": "pending",
                "batch_id": batch_id,
            }
        return 404, {"error": "unknown-batch", "detail": batch_id}

    def _metrics_payload(self) -> dict:
        """The ``/metrics`` document: gateway + ledger + cluster state."""
        gateway = {
            "connections_open": len(self._connections),
            "requests_total": self.requests_total,
            "ingested_total": self.ingested_total,
            "duplicates_total": self.duplicates_total,
            "answered_total": self.answered_total,
            "published_total": self.published_total,
            "resumed_total": self.resumed_total,
            "idle_closed_total": self.idle_closed_total,
            "replay_buffered": sum(len(r) for r in self._replay.values()),
            "errors_total": self.errors_total,
            "replayed_on_start": self.replayed,
            "solve_backlog": len(self._solve_tasks),
            "inflight": self.bridge.inflight,
            "subscriptions": sum(len(q) for q in self._subscribers.values()),
            "closing": self._closing,
            "ledger": self.ledger.counts(),
        }
        payload = {
            "v": protocol.PROTOCOL_VERSION,
            "gateway": gateway,
            "cluster": self.cluster.metrics_json(),
        }
        if self.sessions is not None:
            payload["sessions"] = self.sessions.metrics_json()
        return json_safe(payload)

    # ------------------------------------------------------------------
    # WebSocket streaming
    # ------------------------------------------------------------------
    def _publish(self, object_id: str, event: dict) -> None:
        """Stamp, buffer, and fan one event out to the subscribers.

        Every push for an object gets the next ``stream_seq`` (1-based,
        per object, across position/track/session-event kinds alike)
        and lands in the object's bounded replay ring — stamping happens
        whether or not anyone is subscribed, so a client that drops and
        reconnects with ``resume_from`` receives exactly the frames it
        missed, including ones published while it was away.
        """
        seq = self._stream_seq.get(object_id, 0) + 1
        self._stream_seq[object_id] = seq
        event["stream_seq"] = seq
        if self.config.ws_replay_buffer > 0:
            ring = self._replay.get(object_id)
            if ring is None:
                ring = self._replay[object_id] = deque(
                    maxlen=self.config.ws_replay_buffer
                )
            ring.append(event)
        for queue in self._subscribers.get(object_id, ()):
            queue.put_nowait(event)
            self.published_total += 1

    async def _serve_websocket(
        self,
        conn: _Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: HttpRequest,
    ) -> None:
        """Upgrade and run one streaming connection until close/stop."""
        key = request.headers["sec-websocket-key"]
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept_key(key)}\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        conn.is_ws = True
        conn.queue = asyncio.Queue()
        subscribed: set[str] = set()
        pump = asyncio.ensure_future(self._ws_pump(conn.queue, writer))
        heartbeat_s = self.config.ws_heartbeat_s
        unanswered = 0
        try:
            while not self._closing:
                try:
                    if heartbeat_s > 0:
                        try:
                            opcode, payload = await asyncio.wait_for(
                                read_frame(reader), timeout=heartbeat_s
                            )
                        except asyncio.TimeoutError:
                            # Silence: ping, and give up after enough
                            # unanswered heartbeats (dead peer / half-
                            # open TCP — the socket would otherwise pin
                            # its queue and subscriber slots forever).
                            unanswered += 1
                            if unanswered > self.config.ws_idle_pings:
                                self.idle_closed_total += 1
                                break
                            writer.write(encode_frame(OP_PING, b"hb"))
                            await writer.drain()
                            continue
                    else:
                        opcode, payload = await read_frame(reader)
                except (
                    asyncio.IncompleteReadError,
                    WebSocketError,
                    ConnectionError,
                ):
                    break
                unanswered = 0  # any frame (incl. PONG) proves liveness
                if opcode == OP_CLOSE:
                    break
                if opcode == OP_PING:
                    writer.write(encode_frame(OP_PONG, payload))
                    await writer.drain()
                    continue
                if opcode != OP_TEXT:
                    continue
                await self._ws_message(conn, subscribed, payload)
        finally:
            for object_id in subscribed:
                queues = self._subscribers.get(object_id)
                if queues is not None:
                    queues.discard(conn.queue)
                    if not queues:
                        del self._subscribers[object_id]
            conn.queue.put_nowait(None)
            await pump
            try:
                writer.write(encode_frame(OP_CLOSE, b""))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    async def _ws_message(
        self, conn: _Connection, subscribed: set[str], payload: bytes
    ) -> None:
        """Handle one client text frame (subscribe/unsubscribe/ping)."""
        backlog: list[dict] = []
        try:
            message = protocol.loads(payload)
            protocol.check_version(message)
            kind = message.get("type")
            if kind == "subscribe":
                object_id = message["object_id"]
                if not isinstance(object_id, str) or not object_id:
                    raise protocol.ProtocolError(
                        "bad-field", "'object_id' must be a non-empty string"
                    )
                resume_from = message.get("resume_from")
                if resume_from is not None and (
                    not isinstance(resume_from, int) or resume_from < 0
                ):
                    raise protocol.ProtocolError(
                        "bad-field",
                        "'resume_from' must be a non-negative integer",
                    )
                self._subscribers.setdefault(object_id, set()).add(conn.queue)
                subscribed.add(object_id)
                reply = {
                    "type": "subscribed",
                    "object_id": object_id,
                    "stream_seq": self._stream_seq.get(object_id, 0),
                }
                if resume_from is not None:
                    backlog = self._resume_backlog(object_id, resume_from)
                    reply["resumed"] = len(backlog)
                    # The oldest retained frame tells the client whether
                    # the ring still covers its position; a gap means
                    # frames were evicted and a full resync is needed.
                    ring = self._replay.get(object_id)
                    oldest = ring[0]["stream_seq"] if ring else None
                    reply["gap"] = bool(
                        resume_from < self._stream_seq.get(object_id, 0)
                        and (oldest is None or oldest > resume_from + 1)
                    )
            elif kind == "unsubscribe":
                object_id = message.get("object_id", "")
                queues = self._subscribers.get(object_id)
                if queues is not None:
                    queues.discard(conn.queue)
                subscribed.discard(object_id)
                reply = {"type": "unsubscribed", "object_id": object_id}
            elif kind == "ping":
                reply = {"type": "pong"}
            else:
                raise protocol.ProtocolError(
                    "bad-field", f"unknown stream message type {kind!r}"
                )
            reply["v"] = protocol.PROTOCOL_VERSION
        except KeyError as exc:
            reply = {
                "v": protocol.PROTOCOL_VERSION,
                "type": "error",
                "error": "missing-field",
                "detail": f"missing {exc.args[0]!r}",
            }
        except protocol.ProtocolError as exc:
            reply = {
                "v": protocol.PROTOCOL_VERSION,
                "type": "error",
                "error": exc.code,
                "detail": str(exc),
            }
        conn.queue.put_nowait(reply)
        # Replayed frames follow the ack, before any live push can
        # interleave (this whole handler is one event-loop step).
        for event in backlog:
            conn.queue.put_nowait(event)
            self.published_total += 1
            self.resumed_total += 1

    def _resume_backlog(self, object_id: str, resume_from: int) -> list[dict]:
        """Buffered events after ``resume_from``, in stream order."""
        ring = self._replay.get(object_id)
        if not ring:
            return []
        return [e for e in ring if e["stream_seq"] > resume_from]

    async def _ws_pump(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Drain one connection's event queue onto the socket."""
        while True:
            event = await queue.get()
            if event is None:
                return
            try:
                writer.write(
                    encode_frame(OP_TEXT, protocol.dumps(event).encode())
                )
                await writer.drain()
            except (ConnectionError, RuntimeError):
                return

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _request_from_payload(
        self, batch_id: str, payload: dict
    ) -> LocalizationRequest:
        """Rebuild the solver request of a stored ingest payload."""
        batch = protocol.decode_measurement_batch(payload)
        return LocalizationRequest(
            batch["anchors"], query_id=batch_id, gate=batch["gate"]
        )
