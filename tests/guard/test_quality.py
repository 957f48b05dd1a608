"""Tests for link quality scoring, verdicts, and their invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.csi import CSIMeasurement
from repro.core import estimate_pdp
from repro.core.pdp import confidence_factor
from repro.guard import (
    GuardConfig,
    LinkFaultInjector,
    LinkFaultPlan,
    LinkStatus,
    assess_link,
)
from tests.guard.conftest import PACKETS


def _nan_packets(record, indices):
    """Copy of ``record`` with the given packets NaN-poisoned."""
    ms = list(record.measurements)
    for i in indices:
        csi = ms[i].csi.copy()
        csi[0] = complex(np.nan, np.nan)
        ms[i] = CSIMeasurement(csi, ms[i].config, ms[i].rssi_dbm)
    return dataclasses.replace(record, measurements=tuple(ms))


class TestGuardConfigValidation:
    def test_defaults_valid(self):
        GuardConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mad_z_threshold": 0.0},
            {"concentration_top_taps": 0},
            {"concentration_min": 1.0},
            {"salvage_concentration_prior": 0.0},
            {"salvage_quality": 1.5},
            {"min_quality": 1.5},
            {"min_clean_packets": 0},
        ],
    )
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)


class TestCleanVerdict:
    def test_ok_at_full_quality(self, lab_records):
        verdict = assess_link(lab_records[0], PACKETS)
        assert verdict.status is LinkStatus.OK
        assert verdict.quality == 1.0
        assert verdict.reasons == ()
        assert verdict.clean_packets == PACKETS
        assert verdict.usable

    def test_pdp_bit_identical_to_ungated_estimator(self, lab_records):
        for record in lab_records:
            verdict = assess_link(record, PACKETS)
            assert verdict.pdp == record.estimate(estimate_pdp)


class TestDegradedVerdicts:
    def test_nan_packets_degrade(self, lab_records):
        record = _nan_packets(lab_records[0], [0, 3])
        verdict = assess_link(record, PACKETS)
        assert verdict.status is LinkStatus.DEGRADED
        assert "non-finite-csi" in verdict.reasons
        assert verdict.quality == (PACKETS - 2) / PACKETS
        assert verdict.usable

    def test_packet_shortfall_degrades(self, lab_records):
        record = dataclasses.replace(
            lab_records[0],
            measurements=lab_records[0].measurements[:8],
        )
        verdict = assess_link(record, PACKETS)
        assert verdict.status is LinkStatus.DEGRADED
        assert "packet-shortfall" in verdict.reasons
        assert verdict.quality == 8 / PACKETS

    def test_mad_outlier_excluded_from_estimate(self, lab_records):
        ms = list(lab_records[0].measurements)
        boosted = ms[4].csi * 1000.0
        ms[4] = CSIMeasurement(boosted, ms[4].config, ms[4].rssi_dbm)
        record = dataclasses.replace(
            lab_records[0], measurements=tuple(ms)
        )
        verdict = assess_link(record, PACKETS)
        assert "pdp-outlier-packets" in verdict.reasons
        assert verdict.status is LinkStatus.DEGRADED
        assert verdict.clean_packets == PACKETS - 1
        # The spike is excluded: the estimate stays near the clean one.
        clean_pdp = assess_link(lab_records[0], PACKETS).pdp
        assert verdict.pdp < 2.0 * clean_pdp


class TestRejectedVerdicts:
    def test_empty_batch_rejected(self, lab_records):
        record = dataclasses.replace(lab_records[0], measurements=())
        verdict = assess_link(record, PACKETS)
        assert verdict.status is LinkStatus.REJECTED
        assert verdict.pdp is None
        assert not verdict.usable
        assert "empty-batch" in verdict.reasons

    def test_too_few_clean_packets(self, lab_records):
        record = _nan_packets(lab_records[0], range(PACKETS - 2))
        verdict = assess_link(record, PACKETS)
        assert verdict.status is LinkStatus.REJECTED
        assert "too-few-clean-packets" in verdict.reasons

    def test_quality_below_floor(self, lab_records):
        record = dataclasses.replace(
            lab_records[0],
            measurements=lab_records[0].measurements[:5],
        )
        verdict = assess_link(record, expected_packets=30)
        assert verdict.status is LinkStatus.REJECTED
        assert "quality-below-floor" in verdict.reasons
        assert verdict.quality == pytest.approx(5 / 30)

class TestSalvagedVerdicts:
    def test_phase_smear_salvaged_as_degraded(self, lab_records):
        injector = LinkFaultInjector(LinkFaultPlan.phase_offset(1.0), seed=3)
        record = injector.corrupt(lab_records[0])
        verdict = assess_link(record, PACKETS)
        assert verdict.status is LinkStatus.DEGRADED
        assert "dispersed-cir-energy" in verdict.reasons
        assert verdict.usable

    def test_salvage_quality_capped(self, lab_records):
        injector = LinkFaultInjector(LinkFaultPlan.phase_offset(1.0), seed=3)
        record = injector.corrupt(lab_records[0])
        verdict = assess_link(record, PACKETS)
        assert verdict.quality <= GuardConfig().salvage_quality

    def test_salvaged_estimate_near_clean(self, lab_records):
        # A phase rotation preserves subcarrier amplitudes, so the
        # energy-based salvage should land within ~2 dB of the clean
        # max-tap estimate (the concentration prior's accuracy band) —
        # while the naive max-tap estimate of the smeared batch sits
        # ~10 dB low.
        injector = LinkFaultInjector(LinkFaultPlan.phase_offset(1.0), seed=3)
        for record in lab_records:
            clean_pdp = assess_link(record, PACKETS).pdp
            verdict = assess_link(injector.corrupt(record), PACKETS)
            ratio_db = 10.0 * np.log10(verdict.pdp / clean_pdp)
            assert abs(ratio_db) < 2.5


class TestQualityScoreMonotonicity:
    """Corrupting strictly more packets never raises the quality score."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_superset_corruption_never_scores_higher(self, data, lab_records):
        record = lab_records[0]
        larger = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=PACKETS - 1),
                max_size=PACKETS,
            )
        )
        smaller = (
            data.draw(st.sets(st.sampled_from(sorted(larger))))
            if larger
            else set()
        )
        q_small = assess_link(_nan_packets(record, smaller), PACKETS).quality
        q_large = assess_link(_nan_packets(record, larger), PACKETS).quality
        assert q_large <= q_small

    def test_quality_strictly_decreases_per_packet(self, lab_records):
        record = lab_records[0]
        scores = [
            assess_link(_nan_packets(record, range(k)), PACKETS).quality
            for k in range(PACKETS + 1)
        ]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == 1.0 and scores[-1] == 0.0


class TestConfidenceFactorProperties:
    """The paper's f (Eq. 4) keeps its Eq. 2-3 contract everywhere."""

    ratios = st.floats(
        min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
    )

    def test_f_of_one_is_exactly_half(self):
        assert confidence_factor(1.0) == 0.5

    @given(ratios)
    @settings(max_examples=200)
    def test_reciprocal_identity(self, x):
        assert confidence_factor(x) + confidence_factor(1.0 / x) == (
            pytest.approx(1.0, abs=1e-12)
        )

    @given(ratios, ratios)
    @settings(max_examples=200)
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert confidence_factor(lo) >= confidence_factor(hi)

    @given(ratios)
    @settings(max_examples=100)
    def test_open_unit_interval(self, x):
        assert 0.0 < confidence_factor(x) < 1.0

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            confidence_factor(0.0)
