"""Tests for the gateway wire protocol codec.

Round-trips must be bit-exact (the gateway's answers-over-a-socket ==
answers-in-process contract rests on it), malformed payloads must raise
:class:`ProtocolError` with stable machine-readable codes, and the
version gate must reject anything but the current protocol version.
"""

import json
import math

import pytest

from repro.gateway import PROTOCOL_VERSION, ProtocolError
from repro.gateway import protocol


class TestCodec:
    def test_anchor_roundtrip_is_bit_exact(self, anchor_sets):
        for anchor in anchor_sets[0]:
            wire = protocol.loads(protocol.dumps(protocol.anchor_to_dict(anchor)))
            rebuilt = protocol.anchor_from_dict(wire)
            assert rebuilt.name == anchor.name
            assert rebuilt.position.x == anchor.position.x  # exact doubles
            assert rebuilt.position.y == anchor.position.y
            assert rebuilt.pdp == anchor.pdp
            assert rebuilt.nomadic == anchor.nomadic

    def test_awkward_doubles_survive_json(self):
        values = [1 / 3, math.pi, 1e-308, 0.1 + 0.2, 123456.789012345678]
        for value in values:
            wire = protocol.dumps({"x": value})
            assert protocol.loads(wire)["x"] == value

    def test_dumps_is_deterministic(self):
        payload = {"b": 1, "a": {"z": 2, "y": 3}}
        assert protocol.dumps(payload) == protocol.dumps(
            {"a": {"y": 3, "z": 2}, "b": 1}
        )

    def test_decode_locate_builds_request(self, anchor_sets, lab):
        payload = {
            "v": PROTOCOL_VERSION,
            "query_id": "q7",
            "timeout_s": 0.5,
            "anchors": [protocol.anchor_to_dict(a) for a in anchor_sets[0]],
        }
        request = protocol.decode_locate(payload, area=lab.plan.boundary)
        assert request.query_id == "q7"
        assert request.timeout_s == 0.5
        assert request.area is lab.plan.boundary
        assert request.gate is None
        assert len(request.anchors) == len(anchor_sets[0])

    def test_decode_measurement_batch(self, anchor_sets):
        payload = {
            "batch_id": "b1",
            "object_id": "cart-3",
            "wait": True,
            "anchors": [protocol.anchor_to_dict(a) for a in anchor_sets[0]],
        }
        batch = protocol.decode_measurement_batch(payload)
        assert batch["batch_id"] == "b1"
        assert batch["object_id"] == "cart-3"
        assert batch["wait"] is True
        assert batch["gate"] is None
        assert len(batch["anchors"]) == len(anchor_sets[0])


class TestValidation:
    @pytest.mark.parametrize(
        "raw, code",
        [
            ("not json", "bad-json"),
            ("[1, 2]", "bad-json"),
            ('"a string"', "bad-json"),
        ],
    )
    def test_loads_rejects_non_objects(self, raw, code):
        with pytest.raises(ProtocolError) as err:
            protocol.loads(raw)
        assert err.value.code == code

    @pytest.mark.parametrize(
        "record, code",
        [
            ("not-a-dict", "bad-anchor"),
            ({"x": 1.0, "y": 2.0, "pdp": 3.0}, "bad-anchor"),  # no name
            ({"name": "", "x": 1.0, "y": 2.0, "pdp": 3.0}, "bad-anchor"),
            ({"name": "AP", "x": "wat", "y": 2.0, "pdp": 3.0}, "bad-anchor"),
            ({"name": "AP", "x": 1.0, "y": 2.0}, "bad-anchor"),  # no pdp
            ({"name": "AP", "x": 1.0, "y": 2.0, "pdp": -1.0}, "bad-anchor"),
            ({"name": "AP", "x": 1.0, "y": 2.0, "pdp": float("nan")}, "bad-anchor"),
            ({"name": "AP", "x": 1.0, "y": 2.0, "pdp": float("inf")}, "bad-anchor"),
            ({"name": "AP", "x": float("inf"), "y": 2.0, "pdp": 3.0}, "bad-anchor"),
            ({"name": "AP", "x": 1.0, "y": float("-inf"), "pdp": 3.0}, "bad-anchor"),
            ({"name": "AP", "x": float("nan"), "y": 2.0, "pdp": 3.0}, "bad-anchor"),
            # What json.loads makes of the non-standard NaN/Infinity tokens.
            (json.loads('{"name": "AP", "x": 1, "y": 2, "pdp": NaN}'), "bad-anchor"),
            (json.loads('{"name": "AP", "x": Infinity, "y": 2, "pdp": 3}'),
             "bad-anchor"),
        ],
    )
    def test_bad_anchor_records(self, record, code):
        with pytest.raises(ProtocolError) as err:
            protocol.anchor_from_dict(record)
        assert err.value.code == code

    def test_locate_without_anchors(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_locate({"query_id": "q"})
        assert err.value.code == "missing-field"
        with pytest.raises(ProtocolError) as err:
            protocol.decode_locate({"anchors": []})
        assert err.value.code == "bad-anchor"

    def test_locate_bad_fields(self, anchor_sets):
        anchors = [protocol.anchor_to_dict(a) for a in anchor_sets[0]]
        with pytest.raises(ProtocolError) as err:
            protocol.decode_locate({"anchors": anchors, "query_id": 3})
        assert err.value.code == "bad-field"
        with pytest.raises(ProtocolError) as err:
            protocol.decode_locate({"anchors": anchors, "timeout_s": -1})
        assert err.value.code == "bad-field"
        with pytest.raises(ProtocolError) as err:
            protocol.decode_locate({"anchors": anchors, "timeout_s": "soon"})
        assert err.value.code == "bad-field"

    def test_batch_requires_batch_id(self, anchor_sets):
        anchors = [protocol.anchor_to_dict(a) for a in anchor_sets[0]]
        with pytest.raises(ProtocolError) as err:
            protocol.decode_measurement_batch({"anchors": anchors})
        assert err.value.code == "missing-field"
        with pytest.raises(ProtocolError) as err:
            protocol.decode_measurement_batch({"anchors": anchors, "batch_id": ""})
        assert err.value.code == "missing-field"

    def test_malformed_gate_section(self, anchor_sets):
        anchors = [protocol.anchor_to_dict(a) for a in anchor_sets[0]]
        with pytest.raises(ProtocolError) as err:
            protocol.decode_locate({"anchors": anchors, "gate": "nope"})
        assert err.value.code == "bad-gate"
        bad_verdict = {"gate": {"verdicts": [{"bogus": 1}]}}
        with pytest.raises(ProtocolError) as err:
            protocol.decode_locate({"anchors": anchors, **bad_verdict})
        assert err.value.code == "bad-gate"


class TestVersionGate:
    def test_current_and_absent_versions_pass(self):
        protocol.check_version({"v": PROTOCOL_VERSION})
        protocol.check_version({})  # absent means "current"

    @pytest.mark.parametrize("version", [0, 2, "1", None])
    def test_other_versions_rejected(self, version):
        with pytest.raises(ProtocolError) as err:
            protocol.check_version({"v": version})
        assert err.value.code == "bad-version"


class TestGateRoundtrip:
    def test_gate_result_survives_the_wire(self, anchor_sets):
        from repro.guard import GateResult, LinkStatus, LinkVerdict

        anchors = anchor_sets[0]
        verdicts = tuple(
            LinkVerdict(
                name=a.name,
                status=LinkStatus.DEGRADED if i == 0 else LinkStatus.OK,
                quality=0.5 if i == 0 else 1.0,
                reasons=("nan-burst",) if i == 0 else (),
                clean_packets=3,
                expected_packets=4,
                pdp=a.pdp,
                energy=a.pdp * 2.0,
            )
            for i, a in enumerate(anchors)
        )
        result = GateResult(
            anchors=tuple(anchors),
            quality_weights={v.name: v.quality for v in verdicts},
            verdicts=verdicts,
        )
        wire = protocol.loads(protocol.dumps({"gate": result.to_dict()}))
        rebuilt = protocol._gate_from_wire(wire)
        assert rebuilt is not None
        assert [a.name for a in rebuilt.anchors] == [
            a.name for a in result.anchors
        ]
        for ours, theirs in zip(rebuilt.anchors, result.anchors):
            assert ours.position.x == theirs.position.x
            assert ours.pdp == theirs.pdp  # exact doubles
        assert rebuilt.quality_weights == result.quality_weights
        assert rebuilt.verdicts == result.verdicts
