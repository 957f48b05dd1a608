"""Crash-consistent persistence for the tracking stack.

The session layer is deterministic by construction — feed a
:class:`~repro.sessions.manager.SessionManager` the same fix stream and
its event log digests byte-identically.  This module turns that
determinism into a recovery story: a :class:`SessionStore` (the same
WAL SQLite machinery as the gateway's measurement ledger, via
:class:`repro.durable.WalDatabase`) journals **inputs**, not outputs —
every applied fix and eviction sweep, stamped with a monotonic sequence
number — and takes a periodic checkpoint of the manager.

A checkpoint costs the live fleet plus the events emitted since the
previous one, never the whole history.  Its snapshot row holds the
fleet (filter covariances and particle clouds *including RNG state*,
FSM phases, geofence re-arm sets, analytics counters) and only the
event log's head: its length and digest-chain value.  The history
itself lives in the append-only ``events`` table, one canonical line
per event; each checkpoint inserts just the lines not stored yet, in
the same fsynced transaction as its snapshot row.

Recovery (:func:`recover`) is then: load the latest snapshot and the
first ``length`` event lines, rebuild the log and check its length and
chain against the snapshot's recorded head, replay the journal tail
through the *existing* apply path
(:meth:`SessionManager.observe` / :meth:`SessionManager.evict_idle`),
and verify.  Verification is built into the journal itself: each row
carries the event log's post-apply digest-chain head
(:meth:`~repro.sessions.events.EventLog.chain`), so after every
replayed entry the recovered log must sit at exactly the recorded chain
value — agreement certifies the recovered event stream chains onto the
pre-crash prefix byte for byte, and any divergence (or a missing or
altered ``events`` row) raises :class:`RecoveryError` instead of
silently corrupting downstream analytics.

Write amplification: journaling every fix with a per-row fsync would
swamp the tracking hot path, so the store **group-commits** — rows
buffer in memory and land in one fsynced ``BEGIN IMMEDIATE``
transaction per ``group_commit`` rows (or on :meth:`SessionStore.flush`
/ snapshot / close).  The durability unit is therefore the flushed
batch: a SIGKILL loses at most the unflushed tail, which a resumed
deterministic feed simply re-applies (``repro track --durable
--resume`` does exactly this; the drill lives in
``benchmarks/bench_recovery.py``).

Flushes and snapshots emit :mod:`repro.obs` spans (``durable.flush``
with its row count; ``durable.snapshot`` with the fleet size, the new
event lines and the blob bytes); single journal appends do not.
"""

from __future__ import annotations

import json
import math
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..durable import WalDatabase
from ..environment import FloorPlan
from ..geometry import Point
from ..obs import span
from .events import GeofenceRule
from .manager import SessionConfig, SessionManager
from .zones import ZoneMap

__all__ = [
    "JournalEntry",
    "RecoveryError",
    "RecoveryReport",
    "SessionStore",
    "SessionStoreError",
    "recover",
    "SCHEMA_VERSION",
]

#: Bumped on any incompatible schema change (2: the event history moved
#: out of the snapshot blob into the ``events`` table).
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal (
    seq       INTEGER PRIMARY KEY,
    kind      TEXT NOT NULL,
    object_id TEXT NOT NULL DEFAULT '',
    t_s       REAL NOT NULL,
    payload   TEXT NOT NULL,
    chain     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    journal_seq INTEGER PRIMARY KEY,
    created_s   REAL NOT NULL,
    state       TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    seq  INTEGER PRIMARY KEY,
    line TEXT NOT NULL
)
"""


def _encode_payload(payload: dict) -> str:
    """Compact sorted-keys JSON of one journal payload.

    The hot path is a flat ``{str: float}`` dict journaled on every fix;
    ``repr`` of a finite float *is* its shortest round-tripping JSON
    form, so formatting directly skips ``json.dumps`` machinery (~3x on
    the tracking hot loop).  Anything else — non-float values, keys that
    would need escaping — falls back to ``json.dumps`` with identical
    output.
    """
    parts = []
    for key in sorted(payload):
        value = payload[key]
        if (
            type(value) is not float
            or not math.isfinite(value)
            or not key.isalnum()
        ):
            return json.dumps(payload, sort_keys=True, separators=(",", ":"))
        parts.append(f'"{key}":{value!r}')
    return "{" + ",".join(parts) + "}"


class SessionStoreError(RuntimeError):
    """The store file is unusable (wrong schema version, closed, ...)."""


class RecoveryError(RuntimeError):
    """Replay diverged from the journaled pre-crash run."""


@dataclass(frozen=True)
class JournalEntry:
    """One journaled input.

    Attributes
    ----------
    seq:
        Monotonic journal position (1-based, gap-free once flushed).
    kind:
        ``"fix"`` (payload ``{x, y, confidence}``) or ``"evict"``
        (an eviction sweep; payload empty).
    object_id:
        The tracked object (empty for sweeps).
    t_s:
        The input's logical timestamp (fix time or sweep time).
    payload:
        Kind-specific input data.
    chain:
        Event-log digest-chain head *after* this input was applied —
        the per-entry replay witness.
    """

    seq: int
    kind: str
    object_id: str
    t_s: float
    payload: dict
    chain: str


class SessionStore(WalDatabase):
    """Durable journal + snapshots of one tracking fleet.

    Parameters
    ----------
    path:
        Database file path (parent directories are created).
    synchronous:
        SQLite ``PRAGMA synchronous``; ``"FULL"`` (default) makes a
        flushed batch mean "on disk".
    group_commit:
        Journal rows buffered per fsynced transaction.  ``1`` commits
        every row individually (maximum durability, maximum fsync
        cost); the default amortizes the fsync across a batch, which is
        what keeps durable tracking within the benchmarked overhead
        budget.
    keep_snapshots:
        Older snapshots beyond this count are pruned at save time (the
        journal prefix they cover stays — any kept snapshot plus the
        tail after it recovers the same state).
    """

    def __init__(
        self,
        path: str | Path,
        synchronous: str = "FULL",
        group_commit: int = 32,
        keep_snapshots: int = 4,
    ) -> None:
        if group_commit < 1:
            raise ValueError("group_commit must be positive")
        if keep_snapshots < 1:
            raise ValueError("keep_snapshots must be positive")
        super().__init__(
            path,
            schema=_SCHEMA,
            schema_version=SCHEMA_VERSION,
            synchronous=synchronous,
            error_cls=SessionStoreError,
        )
        self.group_commit = group_commit
        self.keep_snapshots = keep_snapshots
        self._pending: list[tuple[int, str, str, float, str, str]] = []
        row = self.query("SELECT COALESCE(MAX(seq), 0) FROM journal")
        self._next_seq = int(row[0][0]) + 1
        row = self.query("SELECT COALESCE(MAX(seq) + 1, 0) FROM events")
        self._events_stored = int(row[0][0])

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def append_journal(
        self, kind: str, object_id: str, t_s: float, payload: dict, chain: str
    ) -> int:
        """Buffer one journal row; returns its assigned sequence number.

        The row is durable once the current group-commit batch flushes
        (automatically every ``group_commit`` rows, or explicitly via
        :meth:`flush` / :meth:`save_snapshot` / :meth:`close`).
        """
        self.check_open()
        seq = self._next_seq
        self._next_seq += 1
        self._pending.append(
            (seq, kind, object_id, float(t_s), _encode_payload(payload), chain)
        )
        if len(self._pending) >= self.group_commit:
            self.flush()
        return seq

    def flush(self) -> None:
        """Commit every buffered row in one fsynced transaction.

        ``INSERT OR IGNORE`` keyed on ``seq`` makes a re-flush of
        already-committed rows (e.g. a retried batch after an
        interrupted flush) idempotent.
        """
        if not self._pending:
            return
        rows = self._pending

        def txn(conn: sqlite3.Connection) -> None:
            conn.executemany(
                "INSERT OR IGNORE INTO journal"
                "(seq, kind, object_id, t_s, payload, chain)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                rows,
            )

        with span("durable.flush", rows=len(rows)):
            self.write(txn)
        self._pending = []

    def journal_len(self) -> int:
        """Flushed journal entries (buffered rows are not yet durable)."""
        return int(self.query("SELECT COUNT(*) FROM journal")[0][0])

    def last_seq(self) -> int:
        """Highest flushed sequence number (0 when empty)."""
        return int(
            self.query("SELECT COALESCE(MAX(seq), 0) FROM journal")[0][0]
        )

    def journal_tail(self, after_seq: int = 0) -> list[JournalEntry]:
        """Flushed entries with ``seq > after_seq``, in order."""
        rows = self.query(
            "SELECT seq, kind, object_id, t_s, payload, chain FROM journal"
            " WHERE seq > ? ORDER BY seq",
            (after_seq,),
        )
        return [
            JournalEntry(
                seq=int(seq),
                kind=kind,
                object_id=object_id,
                t_s=float(t_s),
                payload=json.loads(payload),
                chain=chain,
            )
            for seq, kind, object_id, t_s, payload, chain in rows
        ]

    def fix_count(self) -> int:
        """Flushed ``"fix"`` entries — where a deterministic feed resumes."""
        return int(
            self.query("SELECT COUNT(*) FROM journal WHERE kind = 'fix'")[0][0]
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save_snapshot(
        self, journal_seq: int, state: dict, events: Sequence[str] = ()
    ) -> None:
        """Durably store a fleet snapshot covering ``journal_seq``.

        ``events`` are the canonical lines of the events emitted since
        the previous snapshot; they are appended to the ``events`` table
        from :meth:`event_count` on.  The journal buffer is flushed
        first, inside the same store — a snapshot must never claim
        coverage of rows that are not on disk.  The snapshot row, the
        new event lines and the pruning of snapshots beyond
        ``keep_snapshots`` commit in one transaction.
        """
        with span("durable.snapshot") as sp:
            self.flush()
            # The state is a tree built fresh by state_dict(); skipping
            # the encoder's cycle bookkeeping saves a dict op per node.
            blob = json.dumps(
                state, separators=(",", ":"), check_circular=False
            )
            first = self._events_stored
            rows = [(first + i, line) for i, line in enumerate(events)]
            now = time.time()
            keep = self.keep_snapshots

            def txn(conn: sqlite3.Connection) -> None:
                conn.execute(
                    "INSERT OR REPLACE INTO snapshots"
                    "(journal_seq, created_s, state) VALUES (?, ?, ?)",
                    (journal_seq, now, blob),
                )
                conn.executemany(
                    "INSERT INTO events(seq, line) VALUES (?, ?)", rows
                )
                conn.execute(
                    "DELETE FROM snapshots WHERE journal_seq NOT IN"
                    " (SELECT journal_seq FROM snapshots"
                    "  ORDER BY journal_seq DESC LIMIT ?)",
                    (keep,),
                )

            self.write(txn)
            self._events_stored += len(rows)
            sp.set(
                sessions=len(state.get("sessions", ())),
                new_events=len(rows),
                blob_bytes=len(blob),
            )

    def latest_snapshot(self) -> tuple[int, dict] | None:
        """``(journal_seq, state)`` of the newest snapshot, or None."""
        rows = self.query(
            "SELECT journal_seq, state FROM snapshots"
            " ORDER BY journal_seq DESC LIMIT 1"
        )
        if not rows:
            return None
        return int(rows[0][0]), json.loads(rows[0][1])

    def snapshot_count(self) -> int:
        """Snapshots currently retained."""
        return int(self.query("SELECT COUNT(*) FROM snapshots")[0][0])

    def event_count(self) -> int:
        """Event lines stored — where the next snapshot's lines start."""
        return self._events_stored

    def event_lines(self, length: int) -> list[str]:
        """The first ``length`` stored event lines, in order.

        Fewer come back when rows are missing; :func:`recover` detects
        that against the snapshot's recorded log head.
        """
        rows = self.query(
            "SELECT line FROM events WHERE seq < ? ORDER BY seq", (length,)
        )
        return [line for (line,) in rows]

    def counts(self) -> dict:
        """Store health summary (journal/fix/snapshot rows)."""
        return {
            "journal": self.journal_len(),
            "fixes": self.fix_count(),
            "snapshots": self.snapshot_count(),
            "buffered": len(self._pending),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush buffered rows, checkpoint the WAL, close (idempotent)."""
        if not self.closed:
            self.flush()
        super().close()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` did, for logs/drills.

    Attributes
    ----------
    snapshot_seq:
        Journal position the loaded snapshot covered (0: no snapshot,
        full-journal replay).
    replayed:
        Journal entries replayed after the snapshot.
    events:
        Events in the recovered log.
    chain:
        Recovered event-log chain head — equal to the last journaled
        chain value by construction (verified entry by entry).
    """

    snapshot_seq: int
    replayed: int
    events: int
    chain: str


def recover(
    store: SessionStore,
    zones: ZoneMap,
    config: SessionConfig | None = None,
    rules: Sequence[GeofenceRule] = (),
    plan: FloorPlan | None = None,
    checkpoint_every: int = 512,
) -> tuple[SessionManager, RecoveryReport]:
    """Rebuild a manager from its store: snapshot + journal-tail replay.

    The snapshot's event history is rebuilt from the ``events`` table
    and must match the snapshot's recorded log head (length and chain),
    or :class:`RecoveryError` is raised.  The manager must be given the
    **same construction arguments** as the pre-crash one (zones,
    config, rules, plan) — the journal records inputs, and determinism
    does the rest.  Replay drives the normal
    :meth:`~repro.sessions.manager.SessionManager.observe` /
    :meth:`~repro.sessions.manager.SessionManager.evict_idle` path with
    journaling suppressed; after each entry the event log's chain head
    must equal the journaled one or :class:`RecoveryError` is raised
    (the recovered stream would not chain onto the pre-crash prefix).

    Returns the recovered manager (wired to ``store`` — it continues
    journaling from the pre-crash sequence) and a
    :class:`RecoveryReport`.
    """
    manager = SessionManager(
        zones,
        config,
        rules,
        plan,
        store=store,
        checkpoint_every=checkpoint_every,
    )
    snapshot = store.latest_snapshot()
    snapshot_seq = 0
    if snapshot is not None:
        snapshot_seq, state = snapshot
        head = state["log"]
        try:
            manager.restore_state(state, store.event_lines(head["length"]))
        except ValueError as exc:
            raise RecoveryError(
                f"snapshot@{snapshot_seq} event history is corrupt: {exc}"
            ) from exc
        if (len(manager.log), manager.log.chain()) != (
            head["length"],
            head["chain"],
        ):
            raise RecoveryError(
                f"snapshot@{snapshot_seq} records {head['length']} events "
                f"at chain {head['chain'][:16]}..., the events table "
                f"rebuilds {len(manager.log)} at "
                f"{manager.log.chain()[:16]}..."
            )
    replayed = 0
    manager._replaying = True
    try:
        for entry in store.journal_tail(snapshot_seq):
            if entry.kind == "fix":
                payload = entry.payload
                manager.observe(
                    entry.object_id,
                    entry.t_s,
                    Point(payload["x"], payload["y"]),
                    confidence=float(payload.get("confidence", 1.0)),
                )
            elif entry.kind == "evict":
                manager.evict_idle(entry.t_s)
            else:
                raise RecoveryError(
                    f"journal entry {entry.seq} has unknown kind "
                    f"{entry.kind!r}"
                )
            if manager.log.chain() != entry.chain:
                raise RecoveryError(
                    f"replay diverged at journal entry {entry.seq}: "
                    f"recovered chain {manager.log.chain()[:16]}... != "
                    f"journaled {entry.chain[:16]}..."
                )
            replayed += 1
    finally:
        manager._replaying = False
    return manager, RecoveryReport(
        snapshot_seq=snapshot_seq,
        replayed=replayed,
        events=len(manager.log),
        chain=manager.log.chain(),
    )
