"""Frequency-domain CSI to time-domain channel impulse response.

The core of NomLoc's PDP mechanism (Sec. IV-A): IFFT the measured CSI onto
the 64-tap grid of the 20 MHz channel, giving the power delay profile.  The
maximum tap power approximates the power of the direct path (PDP) because
the direct path plus its near reflections dominate one early tap, while
NLOS penetration crushes it relative to the LOS case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..obs import span
from .csi import CSIMeasurement, OFDMConfig

__all__ = [
    "DelayProfile",
    "csi_to_cir",
    "csi_to_cir_batch",
    "delay_profile",
    "delay_profile_batch",
    "stack_csi",
    "tap_powers",
    "tap_powers_batch",
]


@dataclass(frozen=True)
class DelayProfile:
    """Discrete power delay profile of one CSI snapshot.

    Attributes
    ----------
    delays_s:
        Tap delays, starting at 0, spaced by the OFDM tap resolution.
    amplitudes:
        Tap amplitudes ``|h[n]|`` (sqrt-mW units, like the CSI itself).
    """

    delays_s: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.delays_s, dtype=float)
        a = np.asarray(self.amplitudes, dtype=float)
        if d.shape != a.shape:
            raise ValueError("delays and amplitudes must align")
        object.__setattr__(self, "delays_s", d)
        object.__setattr__(self, "amplitudes", a)

    @property
    def powers(self) -> np.ndarray:
        """Per-tap powers ``|h[n]|^2`` in mW."""
        return self.amplitudes**2

    def max_power(self) -> float:
        """Maximum tap power — the paper's PDP estimator."""
        return float(self.powers.max())

    def first_tap_power(self) -> float:
        """Power of the earliest tap (misleading under NLOS; kept for
        comparison against the max-power estimator)."""
        return float(self.powers[0])

    def truncated(self, max_delay_s: float) -> "DelayProfile":
        """Profile restricted to taps at or before ``max_delay_s``."""
        mask = self.delays_s <= max_delay_s + 1e-15
        return DelayProfile(self.delays_s[mask], self.amplitudes[mask])


# ----------------------------------------------------------------------
# Extraction is one stacked IFFT per packet batch; the single-packet
# functions are batches of one.  NumPy's pocketfft computes 2-D row
# transforms with the same 1-D kernel, so each row equals the per-packet,
# per-subcarrier IFFT kept as the oracle in ``tests/oracles.py`` —
# enforced in ``tests/core`` and the hotpath benchmark.
# ----------------------------------------------------------------------

def stack_csi(
    measurements: Iterable[CSIMeasurement],
) -> tuple[OFDMConfig, np.ndarray]:
    """``(config, (packets, subcarriers) CSI matrix)`` of a batch.

    Validates that the batch is non-empty and shares one OFDM config (a
    mixed batch raises :class:`ValueError`).  Callers that must vet the
    raw CSI before the IFFT (the PDP estimators refuse non-finite
    packets) stack once here and pass the matrix to :func:`tap_powers`.
    """
    ms = list(measurements)
    if not ms:
        raise ValueError("need at least one CSI measurement")
    cfg = ms[0].config
    for m in ms[1:]:
        if m.config != cfg:
            raise ValueError(
                "all measurements in a batch must share one OFDM config"
            )
    return cfg, np.stack([m.csi for m in ms])


def _ifft_rows(cfg: OFDMConfig, csi: np.ndarray) -> np.ndarray:
    """One inverse FFT over stacked CSI rows: ``n_fft`` taps per row."""
    grid = np.zeros((len(csi), cfg.n_fft), dtype=complex)
    cols = [idx % cfg.n_fft for idx in cfg.active_subcarriers]
    grid[:, cols] = csi
    # Scale so a flat channel of unit gain yields a unit first tap,
    # independent of how many subcarriers were measured.
    return np.fft.ifft(grid, axis=1) * (
        cfg.n_fft / len(cfg.active_subcarriers)
    )


def csi_to_cir_batch(
    measurements: Sequence[CSIMeasurement],
) -> np.ndarray:
    """Stacked IFFT: one ``(packets, n_fft)`` matrix of complex taps.

    Each packet's active subcarriers are placed at their FFT bin
    positions (negative indices wrap, DC and guard bins stay zero) and
    one inverse FFT over the rows produces ``n_fft`` complex taps per
    packet, spaced ``1 / bandwidth`` apart.  All measurements must share
    one OFDM config; a mixed batch raises :class:`ValueError`.
    """
    return _ifft_rows(*stack_csi(measurements))


def csi_to_cir(measurement: CSIMeasurement) -> np.ndarray:
    """:func:`csi_to_cir_batch` of one CSI snapshot: ``n_fft`` taps."""
    return csi_to_cir_batch([measurement])[0]


def tap_powers(cfg: OFDMConfig, csi: np.ndarray) -> np.ndarray:
    """Per-tap powers ``|h[n]|^2`` of stacked CSI rows (see
    :func:`stack_csi`), as a ``(packets, n_fft)`` matrix."""
    with span("cir.delay_profile", taps=cfg.n_fft, batch=len(csi)):
        return np.abs(_ifft_rows(cfg, csi)) ** 2


def tap_powers_batch(
    measurements: Sequence[CSIMeasurement],
) -> np.ndarray:
    """:func:`tap_powers` of a measurement batch — the input of the PDP
    estimators."""
    return tap_powers(*stack_csi(measurements))


def delay_profile_batch(
    measurements: Sequence[CSIMeasurement],
) -> list[DelayProfile]:
    """Power delay profiles of a whole packet batch via one stacked IFFT."""
    ms = list(measurements)
    if not ms:
        return []
    cfg = ms[0].config
    with span("cir.delay_profile", taps=cfg.n_fft, batch=len(ms)):
        amplitudes = np.abs(csi_to_cir_batch(ms))
        delays = np.arange(cfg.n_fft) * cfg.tap_resolution_s
        return [DelayProfile(delays, row) for row in amplitudes]


def delay_profile(measurement: CSIMeasurement) -> DelayProfile:
    """Power delay profile (Fig. 3 of the paper) of one CSI snapshot."""
    return delay_profile_batch([measurement])[0]
