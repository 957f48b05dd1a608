"""Tests for crash-consistent session persistence (repro.sessions.durable).

The contract under test: the :class:`SessionStore` journals every
applied input with a post-apply digest-chain head, snapshots cover only
flushed rows, and :func:`recover` (latest snapshot + journal-tail replay
through the normal apply path) rebuilds a manager whose continued run is
byte-identical to one that never crashed — with any divergence caught
per entry as a :class:`RecoveryError`, never silently absorbed.
"""

import json
import sqlite3
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.environment import FloorPlan
from repro.geometry import Point, Polygon
from repro.sessions import (
    CHAIN_SEED,
    GeofenceRule,
    RecoveryError,
    SessionConfig,
    SessionManager,
    SessionStore,
    SessionStoreError,
    ZoneMap,
    recover,
)

SEED = 5
OBJECTS = 3


def _zones() -> ZoneMap:
    return ZoneMap.grid(Polygon.rectangle(0, 0, 12, 8), 2, 3)


def _plan() -> FloorPlan:
    return FloorPlan("room", Polygon.rectangle(0, 0, 12, 8))


def _fixes(ticks: int = 12, objects: int = OBJECTS, salt: int = 9):
    """Seeded fix stream: [(object_id, t_s, Point, confidence), ...]."""
    rng = np.random.default_rng(np.random.SeedSequence([SEED, salt]))
    rows = []
    for tick in range(ticks):
        for i in range(objects):
            rows.append(
                (
                    f"obj-{i}",
                    float(tick),
                    Point(*rng.uniform((0.5, 0.5), (11.5, 7.5))),
                    float(rng.uniform(0.2, 1.0)),
                )
            )
    return rows


def _feed(manager, fixes):
    for object_id, t_s, fix, confidence in fixes:
        manager.observe(object_id, t_s, fix, confidence=confidence)


class TestSessionStore:
    def test_rows_buffer_until_group_commit(self, tmp_path):
        with SessionStore(tmp_path / "s.db", group_commit=4) as store:
            for i in range(3):
                seq = store.append_journal("fix", "a", float(i), {}, "c")
                assert seq == i + 1
            # Three buffered rows: nothing durable yet.
            assert store.journal_len() == 0
            assert store.counts()["buffered"] == 3
            store.append_journal("fix", "a", 3.0, {}, "c")
            # The fourth row completed the batch -> one fsynced txn.
            assert store.journal_len() == 4
            assert store.counts()["buffered"] == 0

    def test_flush_commits_partial_batch(self, tmp_path):
        with SessionStore(tmp_path / "s.db", group_commit=100) as store:
            store.append_journal("fix", "a", 0.0, {"x": 1.0}, "c0")
            store.flush()
            assert store.journal_len() == 1
            assert store.last_seq() == 1
            store.flush()  # empty flush is a no-op
            assert store.journal_len() == 1

    def test_sequence_continues_across_reopen(self, tmp_path):
        db = tmp_path / "s.db"
        with SessionStore(db, group_commit=1) as store:
            store.append_journal("fix", "a", 0.0, {}, "c0")
            store.append_journal("fix", "a", 1.0, {}, "c1")
        with SessionStore(db, group_commit=1) as store:
            assert store.last_seq() == 2
            assert store.append_journal("fix", "a", 2.0, {}, "c2") == 3

    def test_journal_tail_round_trips_payloads(self, tmp_path):
        with SessionStore(tmp_path / "s.db", group_commit=1) as store:
            store.append_journal(
                "fix", "obj-1", 1.5, {"x": 0.1, "y": 2.0, "confidence": 0.5}, "ch"
            )
            store.append_journal("evict", "", 9.0, {}, "ch2")
            tail = store.journal_tail()
            assert [e.seq for e in tail] == [1, 2]
            assert tail[0].kind == "fix"
            assert tail[0].object_id == "obj-1"
            assert tail[0].payload == {"x": 0.1, "y": 2.0, "confidence": 0.5}
            assert tail[0].chain == "ch"
            assert tail[1].kind == "evict"
            assert store.journal_tail(after_seq=1) == tail[1:]
            assert store.fix_count() == 1

    def test_snapshot_flushes_buffer_and_prunes_old(self, tmp_path):
        with SessionStore(
            tmp_path / "s.db", group_commit=100, keep_snapshots=2
        ) as store:
            for i in range(5):
                store.append_journal("fix", "a", float(i), {}, f"c{i}")
            store.save_snapshot(3, {"n": 3})
            # The snapshot must never cover rows that are not on disk.
            assert store.journal_len() == 5
            store.save_snapshot(4, {"n": 4})
            store.save_snapshot(5, {"n": 5})
            assert store.snapshot_count() == 2  # 3 was pruned
            seq, state = store.latest_snapshot()
            assert (seq, state) == (5, {"n": 5})

    def test_payload_encoding_matches_json(self):
        from repro.sessions.durable import _encode_payload

        cases = [
            {},
            {"x": 0.1, "y": -2.5e-17, "confidence": 1.0},
            {"x": float("inf")},  # non-finite: json.dumps fallback
            {"n": 3},
            {"weird key": 1.0},
            {"nested": {"a": 1.0}},
        ]
        for case in cases:
            assert _encode_payload(case) == json.dumps(
                case, sort_keys=True, separators=(",", ":")
            ), case

    def test_validation_and_closed_store(self, tmp_path):
        with pytest.raises(ValueError):
            SessionStore(tmp_path / "a.db", group_commit=0)
        with pytest.raises(ValueError):
            SessionStore(tmp_path / "b.db", keep_snapshots=0)
        store = SessionStore(tmp_path / "c.db")
        store.close()
        store.close()  # idempotent
        with pytest.raises(SessionStoreError):
            store.append_journal("fix", "a", 0.0, {}, "c")


class TestRecovery:
    def _run_durable(self, db, fixes, *, checkpoint_every=10, group_commit=4,
                     config=None, rules=(), plan=None, evict_at=()):
        store = SessionStore(db, group_commit=group_commit)
        manager = SessionManager(
            _zones(),
            config,
            rules,
            plan,
            store=store,
            checkpoint_every=checkpoint_every,
        )
        for row in fixes:
            object_id, t_s, fix, confidence = row
            manager.observe(object_id, t_s, fix, confidence=confidence)
            if t_s in evict_at:
                manager.evict_idle(t_s)
        manager.sync()
        return store, manager

    def test_kalman_recovery_matches_uninterrupted_run(self, tmp_path):
        db = tmp_path / "k.db"
        fixes = _fixes()
        store, durable = self._run_durable(db, fixes)
        pre_crash = durable.log.chain()
        store.close()

        reopened = SessionStore(db, group_commit=4)
        recovered, report = recover(reopened, _zones(), checkpoint_every=10)
        baseline = SessionManager(_zones())
        _feed(baseline, fixes)

        assert recovered.log.digest() == baseline.log.digest()
        assert recovered.log.chain() == pre_crash
        assert report.chain == pre_crash
        assert report.snapshot_seq > 0  # a checkpoint actually fired
        assert report.replayed == len(fixes) - report.snapshot_seq
        assert report.events == len(baseline.log)
        reopened.close()

    def test_recovered_manager_continues_bit_identically(self, tmp_path):
        """The real contract: recovery is invisible to the future."""
        db = tmp_path / "p.db"
        config = SessionConfig(filter_kind="particle", seed=3)
        fixes = _fixes(ticks=10)
        cut = len(fixes) // 2
        store, _ = self._run_durable(
            db, fixes[:cut], config=config, plan=_plan(), checkpoint_every=7
        )
        store.close()

        reopened = SessionStore(db, group_commit=4)
        recovered, _ = recover(
            reopened, _zones(), config, plan=_plan(), checkpoint_every=7
        )
        _feed(recovered, fixes[cut:])

        baseline = SessionManager(_zones(), config, plan=_plan())
        _feed(baseline, fixes)

        # Byte-identical events AND bit-identical filter state (particle
        # clouds advanced through the restored RNGs).
        assert recovered.log.digest() == baseline.log.digest()
        for object_id in baseline.object_ids():
            a = recovered.session(object_id).filter.estimate()
            b = baseline.session(object_id).filter.estimate()
            assert a == b, object_id
        reopened.close()

    def test_evictions_and_geofence_state_survive_recovery(self, tmp_path):
        db = tmp_path / "e.db"
        rules = (
            GeofenceRule(zone="z0-0", forbidden=True),
            GeofenceRule(zone="z0-1", max_occupancy=1),
            GeofenceRule(zone="z1-2", max_dwell_s=2.0),
        )
        config = SessionConfig(
            idle_timeout_s=4.0, enter_debounce=1, exit_debounce=1
        )
        # obj-2 goes dark after t=5 so the t=11 sweep really evicts it.
        fixes = [
            row
            for row in _fixes(ticks=14)
            if not (row[0] == "obj-2" and row[1] > 5.0)
        ]
        store, durable = self._run_durable(
            db, fixes, config=config, rules=rules, evict_at=(11.0,),
            checkpoint_every=9,
        )
        assert durable.sessions_evicted_total == 1
        assert "evict" in {e.kind for e in store.journal_tail()}
        pre_crash_state = json.dumps(durable.state_dict(), sort_keys=True)
        store.close()

        reopened = SessionStore(db, group_commit=4)
        recovered, report = recover(
            reopened, _zones(), config, rules, checkpoint_every=9
        )
        assert json.dumps(recovered.state_dict(), sort_keys=True) == pre_crash_state
        assert recovered.sessions_evicted_total == 1
        assert report.events == len(recovered.log)
        reopened.close()

    def test_group_commit_tail_loss_is_refed_deterministically(self, tmp_path):
        """A lost unflushed tail re-applies from the fix count onward."""
        db = tmp_path / "t.db"
        fixes = _fixes()
        cut = 20
        store = SessionStore(db, group_commit=6)
        manager = SessionManager(_zones(), store=store, checkpoint_every=8)
        _feed(manager, fixes[:cut])
        # Simulate SIGKILL: the group-commit buffer never reached disk
        # (no sync() — rows 17..20 sit in memory and die with the process).
        store._pending.clear()
        store.close()

        reopened = SessionStore(db, group_commit=6)
        durable_fixes = reopened.fix_count()
        assert durable_fixes < cut  # some tail really was lost
        recovered, _ = recover(reopened, _zones(), checkpoint_every=8)
        # The deterministic feed resumes at the durable fix count.
        _feed(recovered, fixes[durable_fixes:])
        recovered.sync()

        baseline = SessionManager(_zones())
        _feed(baseline, fixes)
        assert recovered.log.digest() == baseline.log.digest()
        # Zero lost confirmed inputs: every flushed fix is in the journal.
        assert reopened.fix_count() == len(fixes)
        reopened.close()

    def test_recovered_log_chains_onto_pre_crash_prefix(self, tmp_path):
        db = tmp_path / "c.db"
        fixes = _fixes()
        store, durable = self._run_durable(db, fixes[:18])
        prefix_len = len(durable.log)
        prefix_chain = durable.log.chain_at(prefix_len)
        store.close()

        reopened = SessionStore(db, group_commit=4)
        recovered, _ = recover(reopened, _zones())
        _feed(recovered, fixes[18:])
        # Agreement at the shared length certifies byte-identity of the
        # whole pre-crash prefix, not just its final line.
        assert recovered.log.chain_at(prefix_len) == prefix_chain
        reopened.close()

    def test_tampered_chain_raises_recovery_error(self, tmp_path):
        db = tmp_path / "bad.db"
        store, _ = self._run_durable(db, _fixes(), checkpoint_every=1000)
        store.close()
        with sqlite3.connect(db) as conn:
            conn.execute(
                "UPDATE journal SET chain = ? WHERE seq ="
                " (SELECT MAX(seq) FROM journal)",
                ("0" * 64,),
            )
        reopened = SessionStore(db)
        with pytest.raises(RecoveryError, match="diverged"):
            recover(reopened, _zones())
        reopened.close()

    def test_unknown_journal_kind_raises(self, tmp_path):
        db = tmp_path / "kind.db"
        with SessionStore(db, group_commit=1) as store:
            store.append_journal("teleport", "a", 0.0, {}, CHAIN_SEED)
        reopened = SessionStore(db)
        with pytest.raises(RecoveryError, match="unknown kind"):
            recover(reopened, _zones())
        reopened.close()

    def test_recover_from_empty_store(self, tmp_path):
        with SessionStore(tmp_path / "empty.db") as store:
            manager, report = recover(store, _zones())
            assert len(manager.log) == 0
            assert report.snapshot_seq == 0
            assert report.replayed == 0
            assert report.chain == CHAIN_SEED

    def test_recovered_manager_keeps_journaling(self, tmp_path):
        db = tmp_path / "cont.db"
        fixes = _fixes()
        store, _ = self._run_durable(db, fixes[:9], group_commit=1)
        store.close()
        reopened = SessionStore(db, group_commit=1)
        before = reopened.last_seq()
        recovered, _ = recover(reopened, _zones())
        _feed(recovered, fixes[9:12])
        # Post-recovery inputs land after the pre-crash sequence.
        assert reopened.last_seq() == before + 3
        reopened.close()


def _apply(manager, steps):
    """Feed ``("fix", object_id, t_s, Point, confidence)`` and
    ``("evict", t_s)`` steps in order."""
    for step in steps:
        if step[0] == "evict":
            manager.evict_idle(step[1])
        else:
            _, object_id, t_s, fix, confidence = step
            manager.observe(object_id, t_s, fix, confidence=confidence)


def _crash_and_resume(db, steps, cut, config=None, checkpoint_every=1,
                      group_commit=1):
    """Journal ``steps[:cut]``, close, recover, then feed the rest.

    Returns ``(reopened store, recovered manager, report)``.
    """
    store = SessionStore(db, group_commit=group_commit)
    manager = SessionManager(
        _zones(), config, store=store, checkpoint_every=checkpoint_every
    )
    _apply(manager, steps[:cut])
    manager.sync()
    store.close()
    reopened = SessionStore(db, group_commit=group_commit)
    recovered, report = recover(
        reopened, _zones(), config, checkpoint_every=checkpoint_every
    )
    _apply(recovered, steps[cut:])
    return reopened, recovered, report


class TestFirstSeenOrder:
    """A recovered fleet keeps the live fleet's first-seen order."""

    def test_recovered_fleet_evicts_in_first_seen_order(self, tmp_path):
        steps = [
            ("fix", "obj-b", 0.0, Point(2.0, 2.0), 1.0),
            ("fix", "obj-a", 0.0, Point(10.0, 6.0), 1.0),
            ("evict", 100.0),
        ]
        store, recovered, report = _crash_and_resume(
            tmp_path / "order.db", steps, cut=2
        )
        baseline = SessionManager(_zones())
        _apply(baseline, steps)

        assert report.snapshot_seq == 2  # the snapshot held both sessions
        evicted = [e.object_id for e in baseline.log if e.kind == "evicted"]
        assert evicted == ["obj-b", "obj-a"]
        assert recovered.log.digest() == baseline.log.digest()
        store.close()

    def test_recovered_zone_machines_flush_in_first_touched_order(
        self, tmp_path
    ):
        """An object confirmed in several zones (long exit debounce)
        exits them on eviction in first-touched order, recovered or not."""
        config = SessionConfig(enter_debounce=1, exit_debounce=50)
        steps = [
            ("fix", "obj-x", float(t), Point(10.0, 6.0), 1.0)
            for t in range(4)
        ] + [
            ("fix", "obj-x", float(t), Point(2.0, 2.0), 1.0)
            for t in range(4, 12)
        ]
        steps.append(("evict", 100.0))
        store, recovered, _ = _crash_and_resume(
            tmp_path / "fsm.db", steps, cut=len(steps) - 1, config=config
        )
        baseline = SessionManager(_zones(), config)
        _apply(baseline, steps)

        exits = [e.zone for e in baseline.log if e.kind == "exit"]
        assert exits[0] == "z1-2" and exits[-1] == "z0-0"
        assert recovered.log.digest() == baseline.log.digest()
        store.close()

    def test_state_dict_orders_sessions_and_records_log_head(self):
        manager = SessionManager(_zones())
        _apply(
            manager,
            [
                ("fix", "obj-c", 0.0, Point(2.0, 2.0), 1.0),
                ("fix", "obj-a", 0.0, Point(6.0, 2.0), 1.0),
                ("fix", "obj-b", 0.0, Point(10.0, 6.0), 1.0),
            ],
        )
        state = manager.state_dict()
        assert [oid for oid, _ in state["sessions"]] == [
            "obj-c",
            "obj-a",
            "obj-b",
        ]
        assert "events" not in state
        assert state["log"] == {
            "length": len(manager.log),
            "chain": manager.log.chain(),
        }


class TestEventsTable:
    """The event history lives in the append-only ``events`` table."""

    def _journal(self, db, fixes, checkpoint_every, keep_snapshots=4):
        store = SessionStore(db, group_commit=4, keep_snapshots=keep_snapshots)
        manager = SessionManager(
            _zones(), store=store, checkpoint_every=checkpoint_every
        )
        _feed(manager, fixes)
        manager.sync()
        return store, manager

    def test_snapshot_blob_has_no_events_and_stays_flat(self, tmp_path):
        store, manager = self._journal(
            tmp_path / "flat.db",
            _fixes(ticks=60),
            checkpoint_every=20,
            keep_snapshots=100,
        )
        rows = store.query(
            "SELECT state FROM snapshots ORDER BY journal_seq"
        )
        states = [json.loads(blob) for (blob,) in rows]
        sizes = [len(blob) for (blob,) in rows]
        lengths = [state["log"]["length"] for state in states]
        assert len(rows) == 9
        assert all("events" not in state for state in states)
        assert all('"object_id"' not in blob for (blob,) in rows)
        # The log grows several-fold; the blob stays the fleet's size.
        assert lengths[-1] >= 4 * lengths[0] > 0
        assert max(sizes) <= 1.1 * min(sizes)
        assert store.event_count() == lengths[-1]
        assert store.event_lines(lengths[-1]) == manager.log.lines()[
            : lengths[-1]
        ]
        store.close()

    @pytest.mark.parametrize(
        "damage",
        ["drop-last", "drop-middle", "edit-time", "garbage"],
    )
    def test_missing_or_altered_row_raises(self, tmp_path, damage):
        db = tmp_path / "dmg.db"
        store, _ = self._journal(db, _fixes(), checkpoint_every=30)
        length = store.event_count()
        assert length >= 3
        store.close()
        with sqlite3.connect(db) as conn:
            if damage == "drop-last":
                conn.execute("DELETE FROM events WHERE seq = ?", (length - 1,))
            elif damage == "drop-middle":
                conn.execute("DELETE FROM events WHERE seq = 1")
            else:
                (line,) = conn.execute(
                    "SELECT line FROM events WHERE seq = 1"
                ).fetchone()
                if damage == "edit-time":
                    record = json.loads(line)
                    record["t_s"] += 1.0
                    line = json.dumps(
                        record, sort_keys=True, separators=(",", ":")
                    )
                else:
                    line = "not json"
                conn.execute(
                    "UPDATE events SET line = ? WHERE seq = 1", (line,)
                )
        reopened = SessionStore(db)
        with pytest.raises(RecoveryError, match="snapshot@30"):
            recover(reopened, _zones())
        reopened.close()

    def test_reopened_store_appends_at_next_seq(self, tmp_path):
        db = tmp_path / "next.db"
        fixes = _fixes()
        store, _ = self._journal(db, fixes[:18], checkpoint_every=5)
        first = store.event_count()
        assert first > 0
        store.close()

        reopened = SessionStore(db, group_commit=4)
        assert reopened.event_count() == first
        recovered, _ = recover(reopened, _zones(), checkpoint_every=5)
        _feed(recovered, fixes[18:])
        recovered.sync()
        total = reopened.event_count()
        assert total > first
        seqs = [seq for (seq,) in reopened.query("SELECT seq FROM events")]
        assert seqs == list(range(total))
        reopened.close()

        baseline = SessionManager(_zones())
        _feed(baseline, fixes)
        again = SessionStore(db)
        assert again.event_lines(total) == baseline.log.lines()[:total]
        recovered_again, _ = recover(again, _zones())
        assert recovered_again.log.digest() == baseline.log.digest()
        again.close()

    def test_schema_v1_file_is_rejected(self, tmp_path):
        db = tmp_path / "v1.db"
        with sqlite3.connect(db) as conn:
            conn.execute(
                "CREATE TABLE schema_version (version INTEGER NOT NULL)"
            )
            conn.execute("INSERT INTO schema_version(version) VALUES (1)")
            conn.execute(
                "CREATE TABLE snapshots (journal_seq INTEGER PRIMARY KEY,"
                " created_s REAL NOT NULL, state TEXT NOT NULL)"
            )
        with pytest.raises(SessionStoreError, match="schema version 1"):
            SessionStore(db)
        # The rejected open left the file as it was.
        with sqlite3.connect(db) as conn:
            tables = {
                name
                for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        assert "events" not in tables

    def test_new_manager_on_used_store_refuses_to_checkpoint(self, tmp_path):
        db = tmp_path / "used.db"
        store, _ = self._journal(db, _fixes()[:12], checkpoint_every=6)
        assert store.event_count() > 0
        fresh = SessionManager(_zones(), store=store, checkpoint_every=1)
        with pytest.raises(RuntimeError, match="recover"):
            _feed(fresh, _fixes()[:1])
        store.close()


class TestStoreSpans:
    def test_flush_and_snapshot_spans(self, tmp_path):
        fixes = _fixes()[:20]
        with obs.capture() as tracer:
            store = SessionStore(tmp_path / "obs.db", group_commit=4)
            manager = SessionManager(
                _zones(), store=store, checkpoint_every=10
            )
            _feed(manager, fixes)
            manager.sync()
        spans = tracer.finished()
        flushes = [s for s in spans if s.name == "durable.flush"]
        snapshots = [s for s in spans if s.name == "durable.snapshot"]
        # One span per flush and per snapshot, none per journal append.
        assert len(spans) == len(flushes) + len(snapshots)
        assert sum(s.attributes["rows"] for s in flushes) == len(fixes)
        assert len(snapshots) == 2
        assert [s.attributes["sessions"] for s in snapshots] == [3, 3]
        assert sum(s.attributes["new_events"] for s in snapshots) == (
            store.event_count()
        )
        blobs = store.query("SELECT state FROM snapshots ORDER BY journal_seq")
        assert [s.attributes["blob_bytes"] for s in snapshots] == [
            len(blob) for (blob,) in blobs
        ]
        store.close()


class TestRecoveryProperty:
    """Hypothesis: for *any* fix stream with eviction sweeps, first-seen
    order, crash point, and checkpoint / group-commit cadence,
    flushed-journal recovery plus the remaining feed is byte-identical to
    a run that never crashed."""

    IDS = ("obj-a", "obj-b", "obj-c", "obj-d")
    #: Skewed so the rarer objects go idle and get evicted.
    WEIGHTS = (0.4, 0.3, 0.2, 0.1)
    CONFIG = SessionConfig(idle_timeout_s=3.0)

    def _stream(self, stream_seed, first_seen, n_steps):
        rng = np.random.default_rng(np.random.SeedSequence([stream_seed]))
        steps = []
        for i in range(n_steps):
            if i >= len(first_seen) and rng.uniform() < 0.2:
                steps.append(("evict", float(i)))
                continue
            if i < len(first_seen):
                object_id = first_seen[i]
            else:
                object_id = first_seen[
                    int(rng.choice(len(first_seen), p=self.WEIGHTS))
                ]
            steps.append(
                (
                    "fix",
                    object_id,
                    float(i),
                    Point(*rng.uniform((0.5, 0.5), (11.5, 7.5))),
                    float(rng.uniform(0.2, 1.0)),
                )
            )
        return steps

    @settings(max_examples=25, deadline=None)
    @given(
        stream_seed=st.integers(min_value=0, max_value=2**32 - 1),
        first_seen=st.permutations(IDS).filter(
            lambda order: list(order) != sorted(order)
        ),
        n_steps=st.integers(min_value=1, max_value=40),
        crash_at=st.integers(min_value=0, max_value=40),
        checkpoint_every=st.integers(min_value=1, max_value=12),
        group_commit=st.integers(min_value=1, max_value=8),
    )
    def test_snapshot_plus_replay_is_byte_identical(
        self,
        stream_seed,
        first_seen,
        n_steps,
        crash_at,
        checkpoint_every,
        group_commit,
    ):
        crash_at = min(crash_at, n_steps)
        steps = self._stream(stream_seed, first_seen, n_steps)
        with tempfile.TemporaryDirectory() as td:
            db = Path(td) / "prop.db"
            store = SessionStore(db, group_commit=group_commit)
            manager = SessionManager(
                _zones(),
                self.CONFIG,
                store=store,
                checkpoint_every=checkpoint_every,
            )
            _apply(manager, steps[:crash_at])
            manager.sync()
            journaled = store.last_seq()
            store.close()

            reopened = SessionStore(db, group_commit=group_commit)
            recovered, report = recover(
                reopened,
                _zones(),
                self.CONFIG,
                checkpoint_every=checkpoint_every,
            )
            _apply(recovered, steps[crash_at:])

            baseline = SessionManager(_zones(), self.CONFIG)
            _apply(baseline, steps)

            assert recovered.log.digest() == baseline.log.digest()
            assert json.dumps(
                recovered.state_dict(), sort_keys=True
            ) == json.dumps(baseline.state_dict(), sort_keys=True)
            assert report.snapshot_seq + report.replayed == journaled
            reopened.close()
