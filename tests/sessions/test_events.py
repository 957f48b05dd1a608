"""Tests for session events, geofence rules, the log, and analytics."""

import json

import pytest

from repro.sessions import (
    CHAIN_SEED,
    EVENT_KINDS,
    EventLog,
    GeofenceRule,
    SessionEvent,
    ZoneAnalytics,
)


def _sample_events(n):
    kinds = ("enter", "exit", "alert", "evicted")
    out = []
    for i in range(n):
        kind = kinds[i % 4]
        out.append(
            SessionEvent(
                0,
                kind,
                f"tag-{i % 3}",
                "" if kind == "evicted" else "a",
                float(i),
                dwell_s=1.5 if kind == "exit" else 0.0,
                rule="r" if kind == "alert" else "",
                detail="d" if kind == "alert" else "",
            )
        )
    return out


class TestSessionEvent:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            SessionEvent(0, "teleport", "tag-1", "a", 0.0)

    def test_wire_dict_is_kind_specific(self):
        enter = SessionEvent(0, "enter", "tag-1", "a", 1.0)
        assert set(enter.to_dict()) == {"seq", "kind", "object_id", "zone", "t_s"}
        exit_ = SessionEvent(1, "exit", "tag-1", "a", 2.0, dwell_s=1.0)
        assert exit_.to_dict()["dwell_s"] == 1.0
        alert = SessionEvent(2, "alert", "tag-1", "a", 2.0, rule="r", detail="d")
        assert alert.to_dict()["rule"] == "r"
        assert alert.to_dict()["detail"] == "d"


class TestGeofenceRule:
    def test_exactly_one_condition(self):
        with pytest.raises(ValueError):
            GeofenceRule(zone="a")
        with pytest.raises(ValueError):
            GeofenceRule(zone="a", forbidden=True, max_occupancy=2)

    def test_bounds(self):
        with pytest.raises(ValueError):
            GeofenceRule(zone="a", max_occupancy=0)
        with pytest.raises(ValueError):
            GeofenceRule(zone="a", max_dwell_s=0.0)

    def test_derived_names(self):
        assert GeofenceRule(zone="a", forbidden=True).name == "forbidden:a"
        assert GeofenceRule(zone="a", max_occupancy=3).name == "occupancy:a>3"
        assert GeofenceRule(zone="a", max_dwell_s=2.5).name == "dwell:a>2.5s"
        assert GeofenceRule(zone="a", forbidden=True, name="cage").name == "cage"


class TestEventLog:
    def test_append_restamps_sequence(self):
        log = EventLog()
        first = log.append(SessionEvent(99, "enter", "tag-1", "a", 0.0))
        second = log.append(SessionEvent(99, "exit", "tag-1", "a", 1.0))
        assert (first.seq, second.seq) == (0, 1)
        assert len(log) == 2

    def test_counts_cover_all_kinds(self):
        log = EventLog()
        log.append(SessionEvent(0, "enter", "tag-1", "a", 0.0))
        counts = log.counts()
        assert set(counts) == set(EVENT_KINDS)
        assert counts["enter"] == 1
        assert counts["exit"] == 0

    def test_jsonl_is_canonical(self):
        log = EventLog()
        log.append(SessionEvent(0, "enter", "tag-1", "a", 1.0))
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["zone"] == "a"
        # Sorted keys + compact separators: re-serializing must be a
        # no-op, which is what makes the digest a byte-identity witness.
        assert lines[0] == json.dumps(
            json.loads(lines[0]), sort_keys=True, separators=(",", ":")
        )

    def test_digest_is_order_and_content_sensitive(self):
        a, b, c = EventLog(), EventLog(), EventLog()
        a.append(SessionEvent(0, "enter", "tag-1", "a", 0.0))
        a.append(SessionEvent(0, "exit", "tag-1", "a", 1.0))
        b.append(SessionEvent(0, "exit", "tag-1", "a", 1.0))
        b.append(SessionEvent(0, "enter", "tag-1", "a", 0.0))
        c.append(SessionEvent(0, "enter", "tag-1", "a", 0.0))
        c.append(SessionEvent(0, "exit", "tag-1", "a", 1.0))
        assert a.digest() != b.digest()
        assert a.digest() == c.digest()


class TestDigestChain:
    def test_empty_log_chain_is_seed(self):
        log = EventLog()
        assert log.chain() == CHAIN_SEED
        assert log.chain_at(0) == CHAIN_SEED

    def test_chain_advances_per_event_and_prefixes_agree(self):
        a, b = EventLog(), EventLog()
        events = _sample_events(6)
        for event in events:
            a.append(event)
        heads = [a.chain_at(i) for i in range(len(events) + 1)]
        assert len(set(heads)) == len(heads)  # every link moves the head
        for i, event in enumerate(events[:4]):
            b.append(event)
            # Same prefix -> same head; the recovery comparison primitive.
            assert b.chain() == a.chain_at(i + 1)

    def test_chain_at_bounds_raise(self):
        log = EventLog()
        log.append(SessionEvent(0, "enter", "tag-1", "a", 0.0))
        with pytest.raises(ValueError):
            log.chain_at(2)
        with pytest.raises(ValueError):
            log.chain_at(-1)

    def test_from_dict_round_trips(self):
        for event in _sample_events(4):
            stamped = EventLog().append(event)
            assert SessionEvent.from_dict(stamped.to_dict()) == stamped


class TestEventLines:
    def test_lines_are_the_canonical_jsonl(self):
        log = EventLog()
        for event in _sample_events(5):
            log.append(event)
        assert "\n".join(log.lines()) == log.to_jsonl()
        assert log.lines(3) == log.lines()[3:]
        assert log.lines(5) == []
        with pytest.raises(ValueError):
            log.lines(6)
        with pytest.raises(ValueError):
            log.lines(-1)

    def test_from_lines_rebuilds_events_digest_and_chain(self):
        log = EventLog()
        for event in _sample_events(6):
            log.append(event)
        rebuilt = EventLog.from_lines(log.lines())
        assert rebuilt.events() == log.events()
        assert rebuilt.digest() == log.digest()
        assert [rebuilt.chain_at(i) for i in range(7)] == [
            log.chain_at(i) for i in range(7)
        ]
        assert EventLog.from_lines([]).chain() == CHAIN_SEED

    def test_from_lines_rejects_corrupt_and_out_of_order_lines(self):
        log = EventLog()
        for event in _sample_events(3):
            log.append(event)
        lines = log.lines()
        with pytest.raises(ValueError, match="line 1 is corrupt"):
            EventLog.from_lines([lines[0], "{", lines[2]])
        with pytest.raises(ValueError, match="line 1 is corrupt"):
            EventLog.from_lines([lines[0], "[]"])
        with pytest.raises(ValueError, match="carries seq 2"):
            EventLog.from_lines([lines[0], lines[2]])


class TestEventLogSink:
    def test_sink_writes_canonical_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for event in _sample_events(5):
            log.append(event)
        log.close()
        assert path.read_text() == log.to_jsonl() + "\n"

    def test_load_round_trips_digest_and_chain(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, fsync=True)
        for event in _sample_events(7):
            log.append(event)
        log.close()
        loaded, dropped = EventLog.load_jsonl(path)
        assert dropped == 0
        assert loaded.to_jsonl() == log.to_jsonl()
        assert loaded.digest() == log.digest()
        assert loaded.chain() == log.chain()

    def test_rotation_bounds_live_file_and_load_reads_segments(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, rotate_bytes=200)
        for event in _sample_events(12):
            log.append(event)
        log.close()
        assert log.rotations >= 2
        segments = EventLog.segment_paths(path)
        assert segments[-1] == path
        assert len(segments) == log.rotations + 1
        for segment in segments:
            assert segment.stat().st_size <= 200
        loaded, dropped = EventLog.load_jsonl(path)
        assert dropped == 0
        assert loaded.digest() == log.digest()

    def test_truncated_final_line_detected_and_discarded(self, tmp_path):
        """A crash mid-append leaves a torn tail; load drops exactly it."""
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for event in _sample_events(6):
            log.append(event)
        log.close()
        raw = path.read_text()
        lines = raw.splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        loaded, dropped = EventLog.load_jsonl(path)
        assert dropped == 1
        assert len(loaded) == 5
        # The survivors chain onto the original prefix byte for byte.
        assert loaded.chain() == log.chain_at(5)

    def test_unterminated_but_parseable_final_line_discarded(self, tmp_path):
        # The newline never hit disk: the write may still be partial
        # (e.g. a truncated float that happens to parse), so only a
        # terminated line counts as committed.
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for event in _sample_events(3):
            log.append(event)
        log.close()
        path.write_text(path.read_text().rstrip("\n"))
        loaded, dropped = EventLog.load_jsonl(path)
        assert dropped == 1
        assert len(loaded) == 2

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for event in _sample_events(4):
            log.append(event)
        log.close()
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "{garbage\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="corrupt"):
            EventLog.load_jsonl(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for event in _sample_events(4):
            log.append(event)
        log.close()
        lines = path.read_text().splitlines(keepends=True)
        del lines[1]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="sequence gap"):
            EventLog.load_jsonl(path)

    def test_missing_file_and_bad_rotate_bytes(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EventLog.load_jsonl(tmp_path / "never-written.jsonl")
        with pytest.raises(ValueError):
            EventLog(tmp_path / "x.jsonl", rotate_bytes=0)


class TestZoneAnalytics:
    def test_occupancy_and_visits(self):
        stats = ZoneAnalytics(["a", "b"])
        assert stats.record_enter("a") == 1
        assert stats.record_enter("a") == 2
        assert stats.record_exit("a", 4.0) == 1
        zone = stats.zone("a")
        assert zone.peak_occupancy == 2
        assert zone.visits == 2
        assert zone.completed_visits == 1
        assert zone.mean_dwell_s() == 4.0
        assert stats.total_occupancy() == 1

    def test_snapshot_includes_quiet_zones(self):
        stats = ZoneAnalytics(["a", "b"])
        stats.record_enter("a")
        snapshot = stats.snapshot()
        assert snapshot["b"]["visits"] == 0
        assert snapshot["a"]["occupancy"] == 1

    def test_ad_hoc_zone_registered_on_first_use(self):
        stats = ZoneAnalytics([])
        stats.record_enter("pop-up")
        assert stats.occupancy("pop-up") == 1
        assert stats.occupancy("never-seen") == 0

    def test_exit_never_goes_negative(self):
        stats = ZoneAnalytics(["a"])
        assert stats.record_exit("a", 1.0) == 0
