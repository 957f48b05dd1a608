"""Per-packet reference implementations of the CSI → PDP measurement path.

``src/`` computes each measurement step one way: stacked over a packet
batch (:meth:`~repro.channel.CSISynthesizer.synthesize_terms`,
:func:`~repro.channel.csi_to_cir_batch`, the estimators of
:mod:`repro.core.pdp`).  The loops here compute the same quantities the
way the paper describes them — one packet, one path, one subcarrier at
a time — and are the oracles the stacked code must match bit for bit,
RNG stream position included (``tests/channel/test_csi_batch.py``,
``tests/core/test_pdp_batch.py`` and ``benchmarks/bench_hotpath.py``).
They are not used by the package.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.channel import CSIMeasurement, CSISynthesizer, DelayProfile, PathComponent

__all__ = [
    "synthesize",
    "synthesize_batch_scalar",
    "csi_to_cir",
    "delay_profile",
    "estimate_pdp",
    "estimate_first_tap",
]


def _report_rssi(
    synth: CSISynthesizer, csi: np.ndarray, rng: np.random.Generator
) -> float:
    """The firmware's coarse RSSI: jittered, quantized total power."""
    power_mw = float(np.sum(np.abs(csi) ** 2))
    power_mw = max(power_mw, 1e-30)
    dbm = 10.0 * np.log10(power_mw)
    if synth.rssi_jitter_db > 0:
        dbm += float(rng.normal(0.0, synth.rssi_jitter_db))
    if synth.rssi_quantization_db > 0:
        dbm = round(dbm / synth.rssi_quantization_db) * synth.rssi_quantization_db
    return float(dbm)


def synthesize(
    synth: CSISynthesizer,
    paths: Sequence[PathComponent],
    rng: np.random.Generator,
    with_fading: bool = True,
) -> CSIMeasurement:
    """One packet's CSI, summed path by path (the model of ``repro.channel.csi``).

    Draw order per packet: each path's fading gain (real, imaginary), the
    noise model's draws, then one RSSI jitter normal.
    """
    if not paths:
        raise ValueError("need at least one path component")
    ofdm = synth.ofdm
    freqs = ofdm.carrier_hz + ofdm.subcarrier_frequencies_hz()
    csi = np.zeros(len(freqs), dtype=complex)
    for component in paths:
        amplitude = synth.path_amplitude(component)
        gain = synth.fading.sample_gain(component, rng) if with_fading else 1.0
        csi += amplitude * gain * np.exp(-2j * np.pi * freqs * component.delay_s)
    if synth.noise is not None:
        csi += synth.noise.sample_subcarrier_noise(len(freqs), rng)
    return CSIMeasurement(csi, ofdm, _report_rssi(synth, csi, rng))


def synthesize_batch_scalar(
    synth: CSISynthesizer,
    paths: Sequence[PathComponent],
    num_packets: int,
    rng: np.random.Generator,
    with_fading: bool = True,
) -> list[CSIMeasurement]:
    """``num_packets`` independent packets, one :func:`synthesize` each."""
    if num_packets < 0:
        raise ValueError("num_packets must be non-negative")
    return [synthesize(synth, paths, rng, with_fading) for _ in range(num_packets)]


def csi_to_cir(measurement: CSIMeasurement) -> np.ndarray:
    """IFFT one snapshot, placing each subcarrier in its FFT bin in turn."""
    cfg = measurement.config
    grid = np.zeros(cfg.n_fft, dtype=complex)
    for value, idx in zip(measurement.csi, cfg.active_subcarriers):
        grid[idx % cfg.n_fft] = value
    return np.fft.ifft(grid) * (cfg.n_fft / len(cfg.active_subcarriers))


def delay_profile(measurement: CSIMeasurement) -> DelayProfile:
    """Power delay profile of one snapshot via :func:`csi_to_cir`."""
    cfg = measurement.config
    delays = np.arange(cfg.n_fft) * cfg.tap_resolution_s
    return DelayProfile(delays, np.abs(csi_to_cir(measurement)))


def _packet_average(measurements: Iterable[CSIMeasurement], tap) -> float:
    total = 0.0
    count = 0
    for m in measurements:
        total += tap(delay_profile(m))
        count += 1
    return total / count


def estimate_pdp(measurements: Iterable[CSIMeasurement]) -> float:
    """Max tap power per packet, averaged in packet order (Sec. IV-A)."""
    return _packet_average(measurements, DelayProfile.max_power)


def estimate_first_tap(measurements: Iterable[CSIMeasurement]) -> float:
    """First-tap power per packet, averaged in packet order."""
    return _packet_average(measurements, DelayProfile.first_tap_power)
