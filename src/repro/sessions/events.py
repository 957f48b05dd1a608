"""Session events: zone transitions, geofence alerts, and the event log.

Everything the tracking layer *tells the world* flows through one
vocabulary — :class:`SessionEvent` records with a small closed set of
kinds — and one sink, the :class:`EventLog`.  The log is the subsystem's
determinism witness: events are appended in emission order, serialized
with sorted keys and exact float reprs, and digested with SHA-256, so
"the seeded scenario replays byte-identically" is a one-line assertion
on :meth:`EventLog.digest` (and is asserted, across repeat runs and
across thread/process serving workers, by tests and
``benchmarks/bench_tracking.py``).

Geofence policy lives here too: a :class:`GeofenceRule` names a zone and
the condition that should raise an alert — entry into a forbidden zone,
occupancy above a cap, or a dwell overstay.  Rules are evaluated by the
:class:`~repro.sessions.manager.SessionManager` against confirmed FSM
transitions (never raw fixes), so debounce protects alerts from fix
jitter exactly as it protects the zone statistics.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = [
    "CHAIN_SEED",
    "EVENT_KINDS",
    "EventLog",
    "GeofenceRule",
    "SessionEvent",
]

#: Digest-chain genesis value (the chain head of an empty log).
CHAIN_SEED = hashlib.sha256(b"repro.sessions.events/chain-v1").hexdigest()

#: Closed set of event kinds the session layer emits.
#:
#: * ``"enter"`` / ``"exit"`` — a confirmed (debounced) zone transition;
#:   exits carry ``dwell_s``.
#: * ``"alert"`` — a geofence rule fired; carries ``rule`` and
#:   ``detail``.
#: * ``"evicted"`` — a session timed out idle and was removed; preceded
#:   by synthetic exits for any zone it was still inside.
EVENT_KINDS = ("enter", "exit", "alert", "evicted")


@dataclass(frozen=True)
class SessionEvent:
    """One emitted tracking event.

    Attributes
    ----------
    seq:
        Position in the emitting log (0-based, gap-free) — the total
        order every consumer sees.
    kind:
        One of :data:`EVENT_KINDS`.
    object_id:
        The tracked object.
    zone:
        Zone the event concerns (empty for ``"evicted"``).
    t_s:
        Logical event time — the timestamp of the fix that *confirmed*
        the transition (not the first pending sample), or the eviction
        sweep time.  Callers supply timestamps, so replays with the same
        inputs produce the same times.
    dwell_s:
        Confirmed time inside the zone, on ``"exit"`` events (0.0
        otherwise).
    rule / detail:
        Alert metadata, on ``"alert"`` events (empty otherwise).
    """

    seq: int
    kind: str
    object_id: str
    zone: str
    t_s: float
    dwell_s: float = 0.0
    rule: str = ""
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def to_dict(self) -> dict:
        """Wire/ledger form (stable keys; floats round-trip exactly)."""
        record = {
            "seq": self.seq,
            "kind": self.kind,
            "object_id": self.object_id,
            "zone": self.zone,
            "t_s": self.t_s,
        }
        if self.kind == "exit":
            record["dwell_s"] = self.dwell_s
        if self.kind == "alert":
            record["rule"] = self.rule
            record["detail"] = self.detail
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "SessionEvent":
        """Rebuild one event from its :meth:`to_dict` form.

        The inverse the replay paths need: floats round-trip through
        JSON bit-exactly, so ``from_dict(to_dict(e)) == e``.
        """
        return cls(
            seq=int(record["seq"]),
            kind=str(record["kind"]),
            object_id=str(record["object_id"]),
            zone=str(record["zone"]),
            t_s=float(record["t_s"]),
            dwell_s=float(record.get("dwell_s", 0.0)),
            rule=str(record.get("rule", "")),
            detail=str(record.get("detail", "")),
        )


@dataclass(frozen=True)
class GeofenceRule:
    """One alerting rule over a zone.

    Exactly one of the three conditions is active per rule:

    * ``forbidden=True`` — alert on every confirmed entry;
    * ``max_occupancy=N`` — alert when confirmed occupancy first
      exceeds ``N`` (re-armed once occupancy drops back to the cap);
    * ``max_dwell_s=T`` — alert once per visit when an object's
      confirmed dwell exceeds ``T`` seconds.

    Attributes
    ----------
    zone:
        Zone name the rule watches.
    name:
        Rule identifier carried on alerts (defaults to a derived one).
    """

    zone: str
    forbidden: bool = False
    max_occupancy: int | None = None
    max_dwell_s: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        active = (
            int(self.forbidden)
            + int(self.max_occupancy is not None)
            + int(self.max_dwell_s is not None)
        )
        if active != 1:
            raise ValueError(
                "a geofence rule needs exactly one of forbidden, "
                "max_occupancy, max_dwell_s"
            )
        if self.max_occupancy is not None and self.max_occupancy < 1:
            raise ValueError("max_occupancy must be at least 1")
        if self.max_dwell_s is not None and self.max_dwell_s <= 0:
            raise ValueError("max_dwell_s must be positive")
        if not self.name:
            object.__setattr__(self, "name", self._derived_name())

    def _derived_name(self) -> str:
        if self.forbidden:
            return f"forbidden:{self.zone}"
        if self.max_occupancy is not None:
            return f"occupancy:{self.zone}>{self.max_occupancy}"
        return f"dwell:{self.zone}>{self.max_dwell_s:g}s"


class EventLog:
    """Append-only, digestible record of every emitted event.

    The log assigns sequence numbers (events arrive without one) and
    keeps the emission order; :meth:`digest` hashes the canonical JSONL
    serialization, which is the byte-identity witness the determinism
    tests and benchmarks compare.  Alongside the whole-log digest the
    log maintains a **digest chain** — ``chain_i = SHA-256(chain_{i-1}
    || line_i)`` per appended event, seeded at :data:`CHAIN_SEED` — so
    two logs can be compared *prefix-wise*: a recovered log "chains
    onto" a pre-crash log exactly when :meth:`chain_at` agrees at the
    shared length (the recovery contract of
    :mod:`repro.sessions.durable`).

    Durability (optional): give the log a ``path`` and every appended
    event is written to that JSONL file as it is emitted — with
    ``fsync=True`` each line is flushed *and* fsynced before
    :meth:`append` returns, so the file itself can serve as a replay
    source after a SIGKILL.  ``rotate_bytes`` bounds the live file:
    when it would grow past the bound it is renamed to ``<path>.<k>``
    (k increasing) and a fresh file is started;
    :meth:`load_jsonl` reads the rotated segments in order and detects
    (and discards) a torn final line left by a mid-write crash.

    Parameters
    ----------
    path:
        JSONL sink path (``None`` keeps the log memory-only, the
        default — behavior-identical to the pre-durability log).
    fsync:
        Fsync the sink after every appended line.  Durable but slow;
        the session store's group-commit journal is the fast path, this
        flag makes the *log file itself* a standalone replay source.
    rotate_bytes:
        Rotate the live file before it exceeds this size (``None``
        never rotates).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        fsync: bool = False,
        rotate_bytes: int | None = None,
    ) -> None:
        if rotate_bytes is not None and rotate_bytes < 1:
            raise ValueError("rotate_bytes must be positive")
        self._events: list[SessionEvent] = []
        self._lines: list[str] = []
        self._chains: list[str] = []
        self.path = None if path is None else Path(path)
        self.fsync = fsync
        self.rotate_bytes = rotate_bytes
        self.rotations = 0
        self._sink = None
        self._sink_bytes = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(self.path, "a", encoding="utf-8")
            self._sink_bytes = self._sink.tell()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SessionEvent]:
        return iter(self._events)

    def append(self, event: SessionEvent) -> SessionEvent:
        """Re-stamp ``event`` with the next sequence number and keep it."""
        stamped = SessionEvent(
            seq=len(self._events),
            kind=event.kind,
            object_id=event.object_id,
            zone=event.zone,
            t_s=event.t_s,
            dwell_s=event.dwell_s,
            rule=event.rule,
            detail=event.detail,
        )
        line = json.dumps(
            stamped.to_dict(), sort_keys=True, separators=(",", ":")
        )
        self._keep(stamped, line)
        if self._sink is not None:
            self._write_line(line)
        return stamped

    def _keep(self, event: SessionEvent, line: str) -> None:
        """Record ``event`` with its canonical ``line`` and chain link."""
        previous = self._chains[-1] if self._chains else CHAIN_SEED
        self._events.append(event)
        self._lines.append(line)
        self._chains.append(
            hashlib.sha256((previous + line).encode()).hexdigest()
        )

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "EventLog":
        """Rebuild a memory-only log from its canonical lines.

        The inverse of :meth:`lines`: each line is parsed into its event
        and chained *as stored* (not re-serialized), so the rebuilt
        :meth:`chain` equals the original log's exactly when every line
        is byte-identical to the one the original hashed.  Lines that do
        not parse as events, or whose ``seq`` breaks the gap-free order
        from 0, raise ``ValueError``.
        """
        log = cls()
        for index, line in enumerate(lines):
            try:
                event = SessionEvent.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"event line {index} is corrupt: {exc}")
            if event.seq != index:
                raise ValueError(
                    f"event line {index} carries seq {event.seq}"
                )
            log._keep(event, line)
        return log

    # ------------------------------------------------------------------
    # Durable sink
    # ------------------------------------------------------------------
    def _write_line(self, line: str) -> None:
        encoded = line + "\n"
        if (
            self.rotate_bytes is not None
            and self._sink_bytes > 0
            and self._sink_bytes + len(encoded.encode()) > self.rotate_bytes
        ):
            self._rotate()
        self._sink.write(encoded)
        self._sink.flush()
        if self.fsync:
            os.fsync(self._sink.fileno())
        self._sink_bytes += len(encoded.encode())

    def _rotate(self) -> None:
        """Rename the live file aside and start a fresh one."""
        self._sink.flush()
        if self.fsync:
            os.fsync(self._sink.fileno())
        self._sink.close()
        self.rotations += 1
        self.path.rename(self.path.with_name(f"{self.path.name}.{self.rotations}"))
        self._sink = open(self.path, "a", encoding="utf-8")
        self._sink_bytes = 0

    def close(self) -> None:
        """Flush and close the sink (no-op for memory-only logs)."""
        if self._sink is not None:
            self._sink.flush()
            if self.fsync:
                os.fsync(self._sink.fileno())
            self._sink.close()
            self._sink = None

    @staticmethod
    def segment_paths(path: str | Path) -> list[Path]:
        """Every on-disk segment of one log, rotation order then live."""
        path = Path(path)
        rotated = []
        for candidate in path.parent.glob(f"{path.name}.*"):
            suffix = candidate.name[len(path.name) + 1 :]
            if suffix.isdigit():
                rotated.append((int(suffix), candidate))
        ordered = [p for _, p in sorted(rotated)]
        if path.exists():
            ordered.append(path)
        return ordered

    @classmethod
    def load_jsonl(cls, path: str | Path) -> tuple["EventLog", int]:
        """Rebuild a log from its JSONL file(s); returns (log, dropped).

        Reads rotated segments in order, then the live file.  A final
        line that does not parse (or is not newline-terminated) is a
        torn write from a crash mid-append: it is discarded and counted
        in ``dropped``.  A malformed line anywhere *else* means real
        corruption and raises ``ValueError``.  Sequence numbers must be
        gap-free from 0 — the loaded log re-derives its digest chain,
        so prefix comparison against a live log works immediately.
        """
        segments = cls.segment_paths(path)
        if not segments:
            raise FileNotFoundError(f"no event log at {path}")
        log = cls()
        dropped = 0
        for si, segment in enumerate(segments):
            raw = segment.read_text(encoding="utf-8")
            lines = raw.split("\n")
            # A well-formed file ends with a newline -> last split is "".
            torn_tail = lines and lines[-1] != ""
            if not torn_tail:
                lines = lines[:-1]
            final_segment = si == len(segments) - 1
            for li, line in enumerate(lines):
                last_line = li == len(lines) - 1
                try:
                    record = json.loads(line)
                    event = SessionEvent.from_dict(record)
                except (ValueError, KeyError) as exc:
                    if final_segment and last_line:
                        dropped += 1  # torn final write: discard
                        break
                    raise ValueError(
                        f"corrupt event log line {li} in {segment}: {exc}"
                    )
                if final_segment and last_line and torn_tail:
                    # Parsed, but the newline never made it to disk: the
                    # write may still be partial (e.g. a truncated float
                    # that happens to parse). Only a terminated line is
                    # a committed line.
                    dropped += 1
                    break
                if event.seq != len(log._events):
                    raise ValueError(
                        f"event log {segment} has sequence gap: expected "
                        f"{len(log._events)}, found {event.seq}"
                    )
                log.append(event)
        return log, dropped

    def events(self) -> tuple[SessionEvent, ...]:
        """All events, in emission order."""
        return tuple(self._events)

    def counts(self) -> dict[str, int]:
        """``{kind: count}`` over the whole log (all kinds present)."""
        out = {kind: 0 for kind in EVENT_KINDS}
        for event in self._events:
            out[event.kind] += 1
        return out

    def to_jsonl(self) -> str:
        """Canonical serialization: one sorted-keys JSON object per line.

        Floats serialize as Python's shortest round-tripping repr, so
        two logs are byte-identical exactly when every event field is
        bit-identical.
        """
        return "\n".join(self._lines)

    def lines(self, start: int = 0) -> list[str]:
        """Canonical lines of the events from ``start`` on.

        The lines are the ones :meth:`append` serialized and chained, so
        a store can persist the log incrementally without re-encoding it.
        """
        if not 0 <= start <= len(self._lines):
            raise ValueError(
                f"line start {start} outside [0, {len(self._lines)}]"
            )
        return self._lines[start:]

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_jsonl` — the replay witness."""
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()

    def chain(self) -> str:
        """Current digest-chain head (:data:`CHAIN_SEED` when empty).

        Incrementally maintained on append — O(1) to read, unlike
        :meth:`digest` which re-serializes the whole log.
        """
        return self._chains[-1] if self._chains else CHAIN_SEED

    def chain_at(self, length: int) -> str:
        """Chain head after the first ``length`` events.

        The prefix-verification primitive: a recovered log *chains onto*
        a pre-crash log of length ``n`` iff
        ``recovered.chain_at(n) == pre_crash.chain_at(n)`` — and because
        each link hashes the previous head, agreement at ``n`` certifies
        byte-identity of all ``n`` event lines, not just the last.
        """
        if not 0 <= length <= len(self._chains):
            raise ValueError(
                f"chain length {length} outside [0, {len(self._chains)}]"
            )
        return self._chains[length - 1] if length else CHAIN_SEED
