"""Vectorized ``synthesize_batch`` vs the per-packet oracle.

The synthesizer's contract is *bit-exactness* against the per-packet,
per-path loop of ``tests/oracles.py``: same RNG draw order, same floats,
for every synthesizer configuration — fading on/off, noise
on/off/bursty, RSSI jitter and quantization on/off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
    SPEED_OF_LIGHT,
    CSISynthesizer,
    NoiseModel,
    PathComponent,
    PathKind,
)
from repro.channel.csi import _intel5300_subsampling
from tests.oracles import synthesize, synthesize_batch_scalar


def _paths(count: int = 4, blocked_direct: bool = False):
    kinds = [PathKind.DIRECT, PathKind.REFLECTED, PathKind.SCATTERED]
    comps = []
    for i in range(count):
        kind = kinds[min(i, 2)]
        length = 6.0 + 2.5 * i
        comps.append(
            PathComponent(
                kind,
                length,
                length / SPEED_OF_LIGHT,
                3.0 * i,
                bounces=0 if kind is PathKind.DIRECT else 1,
                blocked=blocked_direct and kind is PathKind.DIRECT,
            )
        )
    return tuple(comps)


SYNTHESIZERS = {
    "default": CSISynthesizer(),
    "no-noise": CSISynthesizer(noise=None),
    "no-jitter": CSISynthesizer(rssi_jitter_db=0.0),
    "no-quantization": CSISynthesizer(rssi_quantization_db=0.0),
    "raw-rssi": CSISynthesizer(rssi_jitter_db=0.0, rssi_quantization_db=0.0),
    "bursty": CSISynthesizer(
        noise=NoiseModel(burst_probability=0.5, burst_power_dbm=-60.0)
    ),
}


class TestSynthesizeBatchBitExactness:
    @pytest.mark.parametrize("name", sorted(SYNTHESIZERS))
    @pytest.mark.parametrize("with_fading", [True, False])
    def test_matches_scalar_reference(self, name, with_fading):
        synth = SYNTHESIZERS[name]
        paths = _paths()
        rng_scalar = np.random.default_rng(1234)
        rng_vector = np.random.default_rng(1234)
        scalar = synthesize_batch_scalar(
            synth, paths, 17, rng_scalar, with_fading=with_fading
        )
        vector = synth.synthesize_batch(
            paths, 17, rng_vector, with_fading=with_fading
        )
        assert len(scalar) == len(vector) == 17
        for s, v in zip(scalar, vector):
            assert np.array_equal(s.csi, v.csi)
            assert s.rssi_dbm == v.rssi_dbm
            assert s.config == v.config
        # Both paths must also leave the RNG bitstream at the same point.
        assert rng_scalar.standard_normal() == rng_vector.standard_normal()

    def test_blocked_direct_path(self):
        synth = CSISynthesizer()
        paths = _paths(blocked_direct=True)
        scalar = synthesize_batch_scalar(synth, paths, 9, np.random.default_rng(7))
        vector = synth.synthesize_batch(paths, 9, np.random.default_rng(7))
        for s, v in zip(scalar, vector):
            assert np.array_equal(s.csi, v.csi)
            assert s.rssi_dbm == v.rssi_dbm

    def test_single_path_single_packet(self):
        synth = CSISynthesizer()
        paths = _paths(count=1)
        scalar = synthesize(synth, paths, np.random.default_rng(3))
        single = synth.synthesize(paths, np.random.default_rng(3))
        assert np.array_equal(scalar.csi, single.csi)
        assert scalar.rssi_dbm == single.rssi_dbm


@st.composite
def _path_sets(draw):
    """1-30 components of mixed kinds, blocked flags, lengths and losses."""
    comps = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        kind = draw(st.sampled_from(list(PathKind)))
        length = draw(st.floats(min_value=0.5, max_value=120.0, allow_nan=False))
        bounces = draw(st.integers(min_value=1, max_value=2))
        comps.append(
            PathComponent(
                kind,
                length,
                length / SPEED_OF_LIGHT,
                draw(st.floats(min_value=0.0, max_value=80.0)),
                bounces=0 if kind is PathKind.DIRECT else bounces,
                blocked=draw(st.booleans()),
            )
        )
    return comps


class TestSynthesizeBatchProperty:
    @given(
        paths=_path_sets(),
        packets=st.integers(min_value=0, max_value=40),
        name=st.sampled_from(sorted(SYNTHESIZERS)),
        with_fading=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, paths, packets, name, with_fading, seed):
        synth = SYNTHESIZERS[name]
        rng_scalar = np.random.default_rng(seed)
        rng_vector = np.random.default_rng(seed)
        scalar = synthesize_batch_scalar(
            synth, paths, packets, rng_scalar, with_fading=with_fading
        )
        vector = synth.synthesize_batch(
            paths, packets, rng_vector, with_fading=with_fading
        )
        assert len(scalar) == len(vector) == packets
        for s, v in zip(scalar, vector):
            assert s.csi.tobytes() == v.csi.tobytes()
            assert s.rssi_dbm == v.rssi_dbm
        assert rng_scalar.bit_generator.state == rng_vector.bit_generator.state


class TestSynthesizeBatchEdges:
    def test_zero_packets(self):
        assert (
            CSISynthesizer().synthesize_batch(
                _paths(), 0, np.random.default_rng(0)
            )
            == []
        )

    def test_negative_packets_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CSISynthesizer().synthesize_batch(
                _paths(), -1, np.random.default_rng(0)
            )

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError, match="path component"):
            CSISynthesizer().synthesize_batch(
                (), 4, np.random.default_rng(0)
            )


class TestIntelSubsamplingCache:
    def test_repeated_calls_reuse_precomputed_picks(self):
        synth = CSISynthesizer()
        [m] = synth.synthesize_batch(_paths(), 1, np.random.default_rng(5))
        first = _intel5300_subsampling(m.config)
        second = _intel5300_subsampling(m.config)
        assert first is second  # lru_cache hit, no per-call dict rebuild

    def test_subsample_values_match_index_lookup(self):
        synth = CSISynthesizer()
        [m] = synth.synthesize_batch(_paths(), 1, np.random.default_rng(5))
        sub = m.subsample_intel5300()
        index_of = {sc: i for i, sc in enumerate(m.config.active_subcarriers)}
        for value, sc in zip(sub.csi, sub.config.active_subcarriers):
            assert value == m.csi[index_of[sc]]
