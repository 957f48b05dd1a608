"""Stacked PDP estimators vs the per-packet oracles of ``tests/oracles.py``.

The estimators back the anchor-building path and the
``PROXIMITY_METRICS`` registry with one stacked IFFT per link, so they
must reproduce the per-packet loops bit for bit.  Batches that cannot
be stacked (mixed OFDM configs) and batches carrying non-finite CSI are
refused with typed errors rather than averaged.
"""

import numpy as np
import pytest

from repro.channel import (
    SPEED_OF_LIGHT,
    CSIMeasurement,
    CSISynthesizer,
    OFDMConfig,
    PathComponent,
    PathKind,
)
from repro.core.pdp import (
    PROXIMITY_METRICS,
    InvalidMeasurementError,
    estimate_first_tap,
    estimate_pdp,
    estimate_pdp_median,
    estimate_pdp_skip_invalid,
)
from tests import oracles


def _paths():
    lengths = (7.0, 11.5, 16.0)
    kinds = (PathKind.DIRECT, PathKind.REFLECTED, PathKind.SCATTERED)
    return tuple(
        PathComponent(
            kind,
            length,
            length / SPEED_OF_LIGHT,
            2.0 * i,
            bounces=0 if kind is PathKind.DIRECT else 1,
        )
        for i, (kind, length) in enumerate(zip(kinds, lengths))
    )


def _measurements(packets=20, seed=9, **synth_overrides):
    synth = CSISynthesizer(**synth_overrides)
    return synth.synthesize_batch(
        _paths(), packets, np.random.default_rng(seed)
    )


class TestBatchEstimatorsBitExact:
    def test_pdp(self):
        ms = _measurements()
        assert estimate_pdp(ms) == oracles.estimate_pdp(ms)

    def test_first_tap(self):
        ms = _measurements()
        assert estimate_first_tap(ms) == oracles.estimate_first_tap(ms)

    def test_pdp_median(self):
        ms = _measurements(packets=21)
        reference = float(
            np.median([oracles.delay_profile(m).max_power() for m in ms])
        )
        assert estimate_pdp_median(ms) == reference

    def test_single_measurement(self):
        ms = _measurements(packets=1)
        assert estimate_pdp(ms) == oracles.estimate_pdp(ms)

    def test_accepts_generators(self):
        ms = _measurements()
        assert estimate_pdp(iter(ms)) == oracles.estimate_pdp(ms)


def _mixed_batch(packets=3):
    narrow = _measurements(packets=packets)
    wide = _measurements(
        packets=packets, ofdm=OFDMConfig(bandwidth_hz=40e6)
    )
    return narrow + wide


class TestMixedConfigRejected:
    @pytest.mark.parametrize(
        "estimator",
        [
            estimate_pdp,
            estimate_first_tap,
            estimate_pdp_median,
            estimate_pdp_skip_invalid,
        ],
    )
    def test_stacked_estimators_raise(self, estimator):
        with pytest.raises(ValueError, match="share one OFDM config"):
            estimator(_mixed_batch())


def _with_bad_packet(ms, value, index=2):
    csi = ms[index].csi.copy()
    csi[5] = value
    bad = CSIMeasurement(csi, ms[index].config, ms[index].rssi_dbm)
    return ms[:index] + [bad] + ms[index + 1 :]


class TestNonFiniteCSI:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [complex(np.nan, np.nan), np.inf])
    @pytest.mark.parametrize("metric", sorted(PROXIMITY_METRICS))
    def test_every_metric_raises_typed_error(self, metric, value):
        ms = _with_bad_packet(_measurements(packets=6), value)
        with pytest.raises(InvalidMeasurementError, match="packet 2"):
            PROXIMITY_METRICS[metric](ms)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [complex(np.nan, np.nan), np.inf])
    def test_skip_invalid_drops_the_packet(self, value):
        ms = _measurements(packets=6)
        bad = _with_bad_packet(ms, value)
        assert estimate_pdp_skip_invalid(bad) == estimate_pdp(ms[:2] + ms[3:])

    def test_skip_invalid_rejects_all_bad(self):
        ms = _measurements(packets=2)
        for index in range(2):
            ms = _with_bad_packet(ms, complex(np.nan, np.nan), index)
        with pytest.raises(InvalidMeasurementError, match="every packet"):
            estimate_pdp_skip_invalid(ms)


class TestBatchEstimatorEmptyGuards:
    @pytest.mark.parametrize(
        "estimator",
        [estimate_pdp, estimate_first_tap, estimate_pdp_median],
    )
    def test_empty_batch_rejected(self, estimator):
        with pytest.raises(ValueError, match="at least one CSI measurement"):
            estimator([])


class TestBatchExtraction:
    def test_cir_batch_rows_match_scalar(self):
        from repro.channel import csi_to_cir, csi_to_cir_batch

        ms = _measurements(packets=6)
        batch = csi_to_cir_batch(ms)
        for row, m in zip(batch, ms):
            assert np.array_equal(row, oracles.csi_to_cir(m))
            assert np.array_equal(csi_to_cir(m), row)

    def test_delay_profile_batch_matches_scalar(self):
        from repro.channel import delay_profile, delay_profile_batch

        ms = _measurements(packets=6)
        for batched, m in zip(delay_profile_batch(ms), ms):
            for single in (oracles.delay_profile(m), delay_profile(m)):
                assert np.array_equal(batched.delays_s, single.delays_s)
                assert np.array_equal(batched.amplitudes, single.amplitudes)

    def test_delay_profile_batch_empty_is_empty(self):
        from repro.channel import delay_profile_batch

        assert delay_profile_batch([]) == []

    def test_mixed_config_batch_rejected(self):
        from repro.channel import csi_to_cir_batch

        with pytest.raises(ValueError, match="share one OFDM config"):
            csi_to_cir_batch(_mixed_batch(packets=2))
