"""`SessionManager`: the fleet of tracking sessions behind serving.

The streaming counterpart of the one-shot ``locate`` path: estimates
flow in per object (from a :class:`~repro.serving.LocalizationService`,
a :class:`~repro.cluster.LocalizationCluster`, or the gateway's durable
ingest), and the manager owns everything stateful about "tracking" —
per-object filters, zone machines, geofence rules, occupancy analytics,
the event log, and idle eviction.

Determinism contract: the manager does no wall-clock reads and draws no
ambient randomness.  Timestamps are caller-supplied, per-object RNGs
(particle filters) are keyed ``SeedSequence([seed, blake2b(object_id)])``
— arrival-order independent — and events are sequenced in emission
order.  Feed it the same fix stream twice and
:meth:`SessionManager.event_log`'s digest is byte-identical, which is
exactly what the determinism tests and ``bench_tracking`` assert across
repeat runs and across thread/process serving workers.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..environment import FloorPlan
from ..geometry import Point
from ..serving.metrics import json_safe
from ..tracking import (
    KalmanConfig,
    KalmanTracker,
    ParticleFilterConfig,
    ParticleFilterTracker,
    TrackFilter,
)
from .analytics import ZoneAnalytics
from .events import EventLog, GeofenceRule, SessionEvent
from .fsm import FSMConfig
from .session import SessionUpdate, TrackingSession
from .zones import ZoneMap

__all__ = ["SessionConfig", "SessionManager"]


@dataclass(frozen=True)
class SessionConfig:
    """Operational knobs of a :class:`SessionManager`.

    Attributes
    ----------
    filter_kind:
        ``"kalman"`` (default: cheap, venue-blind) or ``"particle"``
        (venue-aware; needs a ``plan`` at manager construction).
    kalman / particle:
        Filter tuning passed to every new session's tracker.
    base_sigma_m:
        Configured fix noise at full confidence.
    modulate_noise:
        Map guard confidence into per-fix measurement noise
        (:func:`~repro.sessions.session.confidence_to_sigma`).
        ``False`` is the confidence-blind reference arm.
    confidence_floor:
        Lower clamp of the confidence-to-noise mapping.
    enter_debounce / exit_debounce:
        FSM hysteresis thresholds (see :mod:`repro.sessions.fsm`).
    idle_timeout_s:
        Sessions idle longer than this are evicted by
        :meth:`SessionManager.evict_idle`.
    max_sessions:
        Hard cap on concurrently tracked objects; exceeding it raises
        instead of silently degrading every track's latency.
    seed:
        Root of the per-object RNG tree (particle filters only; the
        Kalman path is draw-free).
    """

    filter_kind: str = "kalman"
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    particle: ParticleFilterConfig = field(
        default_factory=ParticleFilterConfig
    )
    base_sigma_m: float = 1.5
    modulate_noise: bool = True
    confidence_floor: float = 0.05
    enter_debounce: int = 2
    exit_debounce: int = 2
    idle_timeout_s: float = 30.0
    max_sessions: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.filter_kind not in ("kalman", "particle"):
            raise ValueError("filter_kind must be 'kalman' or 'particle'")
        if self.base_sigma_m <= 0:
            raise ValueError("base_sigma_m must be positive")
        if not 0 < self.confidence_floor <= 1:
            raise ValueError("confidence_floor must be in (0, 1]")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be positive")
        # Debounce thresholds are validated by FSMConfig.
        FSMConfig(self.enter_debounce, self.exit_debounce)


class SessionManager:
    """Owns every live tracking session and their shared zone world.

    Parameters
    ----------
    zones:
        The venue's :class:`~repro.sessions.zones.ZoneMap`.
    config:
        Operational :class:`SessionConfig`.
    rules:
        Geofence rules evaluated against confirmed transitions.
    plan:
        Floor plan, required when ``filter_kind="particle"`` (the
        particle filter's legality weighting needs the venue).
    """

    def __init__(
        self,
        zones: ZoneMap,
        config: SessionConfig | None = None,
        rules: Sequence[GeofenceRule] = (),
        plan: FloorPlan | None = None,
        store: Any | None = None,
        checkpoint_every: int = 512,
    ) -> None:
        self.zones = zones
        self.config = config or SessionConfig()
        self.plan = plan
        if self.config.filter_kind == "particle" and plan is None:
            raise ValueError("particle sessions need a floor plan")
        self.rules = tuple(rules)
        known = set(zones.names())
        for rule in self.rules:
            if rule.zone not in known:
                raise ValueError(
                    f"geofence rule {rule.name!r} watches unknown zone "
                    f"{rule.zone!r}"
                )
        self._fsm_config = FSMConfig(
            self.config.enter_debounce, self.config.exit_debounce
        )
        self._sessions: dict[str, TrackingSession] = {}
        self.analytics = ZoneAnalytics(zones.names())
        self.log = EventLog()
        #: occupancy rules currently above their cap (re-armed on drop).
        self._tripped: set[str] = set()
        #: (rule name, object) pairs already alerted this visit.
        self._dwell_alerted: set[tuple[str, str]] = set()
        self.sessions_started_total = 0
        self.sessions_evicted_total = 0
        self.updates_total = 0
        # Durability (optional): a SessionStore journals every applied
        # input and, every ``checkpoint_every`` journal entries, takes a
        # snapshot of the fleet and stores the events emitted since the
        # previous one; ``_replaying`` suppresses journaling while
        # recovery drives this very apply path from the journal.
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        self.store = store
        self.checkpoint_every = checkpoint_every
        self._replaying = False

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def session(self, object_id: str) -> TrackingSession | None:
        """The live session for ``object_id`` (None when not tracked)."""
        return self._sessions.get(object_id)

    def object_ids(self) -> tuple[str, ...]:
        """Tracked object ids, in first-seen order."""
        return tuple(self._sessions)

    def _build_filter(self, object_id: str) -> TrackFilter:
        if self.config.filter_kind == "kalman":
            return KalmanTracker(self.config.kalman)
        # Keyed by object identity, not arrival order, so a fleet's
        # particle draws replay identically however objects interleave.
        key = int.from_bytes(
            hashlib.blake2b(object_id.encode(), digest_size=8).digest(),
            "big",
        )
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, key])
        )
        assert self.plan is not None  # enforced at construction
        return ParticleFilterTracker(self.plan, self.config.particle, rng)

    def _session_for(self, object_id: str) -> TrackingSession:
        session = self._sessions.get(object_id)
        if session is None:
            if len(self._sessions) >= self.config.max_sessions:
                raise RuntimeError(
                    f"session cap reached ({self.config.max_sessions}); "
                    "evict idle sessions or raise max_sessions"
                )
            session = TrackingSession(
                object_id,
                self._build_filter(object_id),
                self.zones,
                fsm_config=self._fsm_config,
                base_sigma_m=self.config.base_sigma_m,
                confidence_floor=self.config.confidence_floor,
                modulate_noise=self.config.modulate_noise,
            )
            self._sessions[object_id] = session
            self.sessions_started_total += 1
        return session

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe(
        self,
        object_id: str,
        t_s: float,
        position: Point,
        confidence: float = 1.0,
    ) -> tuple[SessionUpdate, list[SessionEvent]]:
        """Feed one fix; returns the track update and emitted events.

        The returned events are the log-stamped records (zone
        transitions plus any geofence alerts they or the accumulated
        dwell triggered), in emission order.
        """
        session = self._session_for(object_id)
        update = session.observe(t_s, position, confidence)
        self.updates_total += 1
        events = self._commit_transitions(object_id, update.transitions)
        events.extend(self._check_dwell_rules(session, t_s))
        self._journal(
            "fix",
            object_id,
            t_s,
            {
                "x": position.x,
                "y": position.y,
                "confidence": confidence,
            },
        )
        return update, events

    def ingest(
        self, object_id: str, t_s: float, response: Any
    ) -> tuple[SessionUpdate, list[SessionEvent]]:
        """Feed one serving/cluster/gateway response as a fix.

        Reads ``response.position`` and ``response.confidence`` (0.0 for
        degraded fallback answers — maximally distrusted, never
        dropped), so the guard layer's verdicts modulate the track
        exactly as ROADMAP item 2 demands.
        """
        return self.observe(
            object_id,
            t_s,
            response.position,
            confidence=float(getattr(response, "confidence", 1.0)),
        )

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict_idle(self, now_s: float) -> list[SessionEvent]:
        """Remove sessions idle past the timeout, flushing their zones.

        Confirmed occupancy gets synthetic exits (dwell measured to the
        session's last fix — the object was not observably present
        after that), then an ``"evicted"`` event closes the session.
        """
        events: list[SessionEvent] = []
        timeout = self.config.idle_timeout_s
        for object_id in [
            oid
            for oid, s in self._sessions.items()
            if s.idle_for(now_s) > timeout
        ]:
            session = self._sessions.pop(object_id)
            last = (
                session.last_seen_s
                if session.last_seen_s is not None
                else now_s
            )
            events.extend(
                self._commit_transitions(object_id, session.close(last))
            )
            events.append(
                self.log.append(
                    SessionEvent(0, "evicted", object_id, "", last)
                )
            )
            self.sessions_evicted_total += 1
        if events:
            # A sweep that evicted nothing changed nothing — journaling
            # it would only grow the journal without moving any state.
            self._journal("evict", "", now_s, {})
        return events

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _journal(self, kind: str, object_id: str, t_s: float, payload: dict) -> None:
        """Journal one applied input and checkpoint on cadence.

        The journaled row carries the event log's *post-apply* chain
        head, so replaying the journal self-verifies: after each
        replayed entry the recovered log must be at exactly this chain
        value, or recovery diverged from the pre-crash run.
        """
        if self.store is None or self._replaying:
            return
        seq = self.store.append_journal(
            kind, object_id, t_s, payload, self.log.chain()
        )
        if seq % self.checkpoint_every == 0:
            stored = self.store.event_count()
            if stored > len(self.log):
                raise RuntimeError(
                    f"the store holds {stored} events but this manager "
                    f"emitted {len(self.log)}; resume a used store with "
                    "recover() instead of a new manager"
                )
            # A checkpoint builds one short-lived dict tree per session,
            # freed by refcount as soon as the blob is written; pausing
            # the cyclic collector meanwhile spares it from scanning
            # them (and, on a full collection, the whole fleet) while
            # this observe() call stalls.
            collecting = gc.isenabled()
            gc.disable()
            try:
                self.store.save_snapshot(
                    seq, self.state_dict(), self.log.lines(stored)
                )
            finally:
                if collecting:
                    gc.enable()

    def sync(self) -> None:
        """Force any group-commit-buffered journal rows to disk."""
        if self.store is not None:
            self.store.flush()

    def state_dict(self) -> dict:
        """JSON-safe snapshot of everything mutable about the fleet.

        Restoring this on a manager built with the same construction
        arguments (zones, config, rules, plan), together with the event
        history it records the head of, continues the input stream
        bit-identically — filters carry their RNG state, FSMs their
        pending counters.  Sessions are an ordered list of
        ``[object_id, state]`` pairs so first-seen order (which decides
        eviction order) survives any serializer.  The event history
        itself is not included, only its ``length`` and ``chain`` head:
        it is the one part of the state that grows with time, and a
        store keeps it incrementally instead.
        """
        return {
            "sessions": [
                [oid, s.state_dict()] for oid, s in self._sessions.items()
            ],
            "analytics": self.analytics.state_dict(),
            "log": {"length": len(self.log), "chain": self.log.chain()},
            "tripped": sorted(self._tripped),
            "dwell_alerted": sorted(list(k) for k in self._dwell_alerted),
            "counters": {
                "sessions_started_total": self.sessions_started_total,
                "sessions_evicted_total": self.sessions_evicted_total,
                "updates_total": self.updates_total,
            },
        }

    def restore_state(self, state: Mapping, events: Iterable[str]) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        ``events`` is the event history the snapshot covers, as the
        canonical lines :meth:`EventLog.lines` returns.  Sessions are
        rebuilt through the normal constructor path (so particle RNGs
        get their object-keyed seeding) and then overwritten with the
        captured filter/FSM state; the log is rebuilt from ``events``
        with :meth:`EventLog.from_lines`, which re-derives its digest
        chain.  Checking that chain against ``state["log"]`` is the
        caller's job (:func:`repro.sessions.durable.recover` does it).
        """
        sessions: dict[str, TrackingSession] = {}
        for object_id, recorded in state["sessions"]:
            session = TrackingSession(
                object_id,
                self._build_filter(object_id),
                self.zones,
                fsm_config=self._fsm_config,
                base_sigma_m=self.config.base_sigma_m,
                confidence_floor=self.config.confidence_floor,
                modulate_noise=self.config.modulate_noise,
            )
            session.restore_state(recorded)
            sessions[object_id] = session
        self._sessions = sessions
        self.analytics.restore_state(state["analytics"])
        self.log = EventLog.from_lines(events)
        self._tripped = set(state["tripped"])
        self._dwell_alerted = {
            (rule, oid) for rule, oid in state["dwell_alerted"]
        }
        counters = state["counters"]
        self.sessions_started_total = int(counters["sessions_started_total"])
        self.sessions_evicted_total = int(counters["sessions_evicted_total"])
        self.updates_total = int(counters["updates_total"])

    # ------------------------------------------------------------------
    # Event + rule plumbing
    # ------------------------------------------------------------------
    def _commit_transitions(
        self, object_id: str, transitions: list
    ) -> list[SessionEvent]:
        """Log confirmed transitions, update analytics, run rules."""
        events: list[SessionEvent] = []
        for kind, zone, t_s, dwell_s in transitions:
            events.append(
                self.log.append(
                    SessionEvent(
                        0, kind, object_id, zone, t_s, dwell_s=dwell_s
                    )
                )
            )
            if kind == "enter":
                occupancy = self.analytics.record_enter(zone)
                events.extend(
                    self._check_entry_rules(object_id, zone, t_s, occupancy)
                )
            elif kind == "exit":
                occupancy = self.analytics.record_exit(zone, dwell_s)
                self._rearm_occupancy_rules(zone, occupancy)
                self._dwell_alerted = {
                    (rule, oid)
                    for rule, oid in self._dwell_alerted
                    if oid != object_id or self._rule_zone(rule) != zone
                }
        return events

    def _rule_zone(self, rule_name: str) -> str:
        for rule in self.rules:
            if rule.name == rule_name:
                return rule.zone
        return ""

    def _alert(
        self, object_id: str, rule: GeofenceRule, t_s: float, detail: str
    ) -> SessionEvent:
        return self.log.append(
            SessionEvent(
                0,
                "alert",
                object_id,
                rule.zone,
                t_s,
                rule=rule.name,
                detail=detail,
            )
        )

    def _check_entry_rules(
        self, object_id: str, zone: str, t_s: float, occupancy: int
    ) -> list[SessionEvent]:
        events = []
        for rule in self.rules:
            if rule.zone != zone:
                continue
            if rule.forbidden:
                events.append(
                    self._alert(
                        object_id, rule, t_s, "entered forbidden zone"
                    )
                )
            elif (
                rule.max_occupancy is not None
                and occupancy > rule.max_occupancy
                and rule.name not in self._tripped
            ):
                self._tripped.add(rule.name)
                events.append(
                    self._alert(
                        object_id,
                        rule,
                        t_s,
                        f"occupancy {occupancy} exceeds "
                        f"{rule.max_occupancy}",
                    )
                )
        return events

    def _rearm_occupancy_rules(self, zone: str, occupancy: int) -> None:
        for rule in self.rules:
            if (
                rule.zone == zone
                and rule.max_occupancy is not None
                and occupancy <= rule.max_occupancy
            ):
                self._tripped.discard(rule.name)

    def _check_dwell_rules(
        self, session: TrackingSession, t_s: float
    ) -> list[SessionEvent]:
        events = []
        for rule in self.rules:
            if rule.max_dwell_s is None:
                continue
            entered = session.fsm.entered_at(rule.zone)
            if entered is None:
                continue
            key = (rule.name, session.object_id)
            dwell = t_s - entered
            if dwell > rule.max_dwell_s and key not in self._dwell_alerted:
                self._dwell_alerted.add(key)
                events.append(
                    self._alert(
                        session.object_id,
                        rule,
                        t_s,
                        f"dwell {dwell:.1f}s exceeds {rule.max_dwell_s:g}s",
                    )
                )
        return events

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def event_log(self) -> EventLog:
        """The manager's append-only event log (determinism witness)."""
        return self.log

    def metrics_snapshot(self) -> dict:
        """Plain-dict fleet state, shaped like the serving snapshots."""
        return {
            "sessions_active": len(self._sessions),
            "sessions_started_total": self.sessions_started_total,
            "sessions_evicted_total": self.sessions_evicted_total,
            "updates_total": self.updates_total,
            "events_total": len(self.log),
            "events": self.log.counts(),
            "occupancy_total": self.analytics.total_occupancy(),
            "zones": self.analytics.snapshot(),
            "event_log_digest": self.log.digest(),
            "event_log_chain": self.log.chain(),
        }

    def metrics_json(self) -> dict:
        """:meth:`metrics_snapshot` coerced JSON-safe (exporter form)."""
        snapshot: Mapping = self.metrics_snapshot()
        return json_safe(snapshot)
