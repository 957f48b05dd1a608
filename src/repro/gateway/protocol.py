"""The gateway's versioned JSON wire protocol.

Every HTTP body and WebSocket text frame the gateway speaks is one JSON
object from the small vocabulary defined here.  The module owns three
things:

* the **codec** between wire dicts and the serving layer's types —
  anchors (:class:`repro.core.Anchor`), optional guard gate sections
  (:class:`repro.guard.GateResult`), and responses
  (:class:`repro.serving.LocalizationResponse` /
  :class:`repro.cluster.ClusterResponse`).  Floats round-trip through
  JSON bit-exactly (Python serializes the shortest repr that parses
  back to the same double), which is what makes the gateway's
  "answers are bit-identical to calling the service in-process"
  contract checkable over a real socket;
* **validation**: malformed payloads raise :class:`ProtocolError` with
  a machine-readable ``code``, which the HTTP layer maps to a 4xx
  response instead of a traceback;
* the **version gate**: requests may carry ``"v"``; anything other than
  :data:`PROTOCOL_VERSION` (or absence, which means "current") is
  rejected up front so incompatible clients fail loudly.

Message reference (see DESIGN.md §11 for example payloads):

========================  =============================================
``POST /v1/measurements`` ``{"v", "batch_id", "object_id", "anchors",
                          ["gate"], ["wait"]}`` → durable ack
                          (+ estimate when ``wait`` is true)
``POST /v1/locate``       ``{"v", ["query_id"], "anchors", ["gate"]}``
                          → estimate (not persisted)
``GET /v1/estimates/<id>`` stored estimate for one acked batch
``GET /metrics``          gateway + cluster counters, JSON-safe
``GET /healthz``          liveness + protocol version
``GET /v1/stream`` (WS)   ``{"type": "subscribe", "object_id"}`` then
                          server-pushed ``{"type": "position", ...}``
========================  =============================================
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

from ..core import Anchor
from ..geometry import Point, Polygon
from ..serving import LocalizationRequest

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "anchor_to_dict",
    "anchor_from_dict",
    "anchors_from_wire",
    "decode_locate",
    "decode_measurement_batch",
    "dumps",
    "loads",
    "position_event",
    "response_to_dict",
    "session_event",
    "track_event",
]

#: Current wire protocol version; bumped on any incompatible change.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A malformed or incompatible protocol payload.

    ``code`` is a stable machine-readable slug (``"bad-json"``,
    ``"bad-version"``, ``"bad-anchor"``, ``"missing-field"``, ...);
    ``str()`` is the human-readable detail.
    """

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code


def dumps(payload: Mapping) -> str:
    """Serialize one protocol message (compact separators, sorted keys)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads(raw: str | bytes) -> dict:
    """Parse one protocol message; must be a JSON object."""
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad-json", f"payload is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError("bad-json", "payload must be a JSON object")
    return payload


def check_version(payload: Mapping) -> None:
    """Reject payloads from an incompatible protocol version."""
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad-version",
            f"protocol version {version!r} unsupported "
            f"(this gateway speaks v{PROTOCOL_VERSION})",
        )


# ----------------------------------------------------------------------
# Anchors
# ----------------------------------------------------------------------

def anchor_to_dict(anchor: Anchor) -> dict:
    """One anchor as its wire dict (floats round-trip bit-exactly)."""
    return {
        "name": anchor.name,
        "x": anchor.position.x,
        "y": anchor.position.y,
        "pdp": anchor.pdp,
        "nomadic": anchor.nomadic,
    }


def anchor_from_dict(record: Mapping) -> Anchor:
    """Rebuild one anchor from its wire dict, validating as we go."""
    if not isinstance(record, Mapping):
        raise ProtocolError("bad-anchor", "each anchor must be an object")
    try:
        name = record["name"]
        x = float(record["x"])
        y = float(record["y"])
        pdp = float(record["pdp"])
    except KeyError as exc:
        raise ProtocolError(
            "bad-anchor", f"anchor is missing required field {exc.args[0]!r}"
        )
    except (TypeError, ValueError):
        raise ProtocolError(
            "bad-anchor", "anchor coordinates and pdp must be numbers"
        )
    if not isinstance(name, str) or not name:
        raise ProtocolError("bad-anchor", "anchor name must be a non-empty string")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ProtocolError("bad-anchor", "anchor coordinates must be finite")
    try:
        return Anchor(
            name=name,
            position=Point(x, y),
            pdp=pdp,
            nomadic=bool(record.get("nomadic", False)),
        )
    except ValueError as exc:  # e.g. non-positive or non-finite PDP
        raise ProtocolError("bad-anchor", str(exc))


def anchors_from_wire(payload: Mapping) -> tuple[Anchor, ...]:
    """The validated anchor tuple of one request payload."""
    anchors = payload.get("anchors")
    if not isinstance(anchors, Sequence) or isinstance(anchors, (str, bytes)):
        raise ProtocolError(
            "missing-field", "request needs an 'anchors' array"
        )
    if not anchors:
        raise ProtocolError("bad-anchor", "request needs at least one anchor")
    return tuple(anchor_from_dict(a) for a in anchors)


def _gate_from_wire(payload: Mapping):
    """Optional guard gate section → GateResult (None when absent)."""
    record = payload.get("gate")
    if record is None:
        return None
    if not isinstance(record, Mapping):
        raise ProtocolError("bad-gate", "'gate' must be an object")
    from ..guard import GateResult  # deferred: guard pulls in numpy-heavy deps

    try:
        return GateResult.from_dict(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("bad-gate", f"malformed gate section: {exc}")


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

def decode_locate(
    payload: Mapping, area: Polygon | None = None
) -> LocalizationRequest:
    """``POST /v1/locate`` body → a serving-layer request."""
    check_version(payload)
    anchors = anchors_from_wire(payload)
    query_id = payload.get("query_id", "")
    if not isinstance(query_id, str):
        raise ProtocolError("bad-field", "'query_id' must be a string")
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        try:
            timeout_s = float(timeout_s)
        except (TypeError, ValueError):
            raise ProtocolError("bad-field", "'timeout_s' must be a number")
        if timeout_s <= 0:
            raise ProtocolError("bad-field", "'timeout_s' must be positive")
    return LocalizationRequest(
        anchors,
        query_id=query_id,
        area=area,
        timeout_s=timeout_s,
        gate=_gate_from_wire(payload),
    )


def decode_measurement_batch(payload: Mapping) -> dict:
    """``POST /v1/measurements`` body → validated ingest fields.

    Returns ``{"batch_id", "object_id", "anchors", "gate", "wait"}``.
    The anchors are already decoded (and therefore validated) so a batch
    is only ever acked after it is known to be solvable input.
    """
    check_version(payload)
    batch_id = payload.get("batch_id")
    if not isinstance(batch_id, str) or not batch_id:
        raise ProtocolError(
            "missing-field", "request needs a non-empty string 'batch_id'"
        )
    object_id = payload.get("object_id", "")
    if not isinstance(object_id, str):
        raise ProtocolError("bad-field", "'object_id' must be a string")
    return {
        "batch_id": batch_id,
        "object_id": object_id,
        "anchors": anchors_from_wire(payload),
        "gate": _gate_from_wire(payload),
        "wait": bool(payload.get("wait", False)),
    }


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------

def response_to_dict(response: Any) -> dict:
    """A serving/cluster response as its wire dict.

    Works for both :class:`~repro.serving.LocalizationResponse` and
    :class:`~repro.cluster.ClusterResponse` (the cluster's extra routing
    fields ride along when present).  The estimate's position floats are
    the exact doubles the solver produced.
    """
    wire = {
        "v": PROTOCOL_VERSION,
        "query_id": response.query_id,
        "position": {"x": response.position.x, "y": response.position.y},
        "degraded": response.degraded,
        "reason": response.reason,
        "latency_s": response.latency_s,
        # Always present (0.0 for degraded fallbacks): external clients
        # and the session layer read confidence without caring whether
        # the estimate block survived degradation.
        "confidence": getattr(response, "confidence", 0.0),
    }
    estimate = response.estimate
    if estimate is not None:
        wire["relaxation_cost"] = estimate.relaxation_cost
        if estimate.degradation_reasons:
            wire["degradation_reasons"] = list(estimate.degradation_reasons)
    for field in ("shard", "replica", "attempts", "failovers"):
        value = getattr(response, field, None)
        if value is not None:
            wire[field] = value
    return wire


def position_event(object_id: str, batch_id: str, wire_response: dict) -> dict:
    """One WebSocket position push for a stored estimate."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "position",
        "object_id": object_id,
        "batch_id": batch_id,
        "position": wire_response["position"],
        "degraded": wire_response["degraded"],
        "reason": wire_response["reason"],
        "confidence": wire_response.get("confidence", 0.0),
    }


def track_event(object_id: str, update: Any) -> dict:
    """One WebSocket filtered-track push (session layer enabled).

    ``update`` is a :class:`repro.sessions.SessionUpdate`; subscribers
    get the smoothed position, its posterior uncertainty, and the
    track's current zone alongside the raw position pushes.
    """
    event = {"v": PROTOCOL_VERSION, "type": "track"}
    event.update(update.to_dict())
    return event


def session_event(object_id: str, record: Mapping) -> dict:
    """One WebSocket zone/geofence event push.

    ``record`` is a :meth:`repro.sessions.SessionEvent.to_dict` payload;
    its ``kind`` (``enter``/``exit``/``alert``/``evicted``) tells the
    client what happened, ``seq`` is the server-side total order.
    """
    event = {"v": PROTOCOL_VERSION, "type": "session-event"}
    event.update(record)
    event["object_id"] = object_id
    return event
