"""PDP-based proximity determination (Sec. IV-A).

The power of the direct path (PDP) of each AP-object link is approximated
by the maximum tap power of the channel impulse response; larger PDP means
closer.  Each pairwise judgement carries the paper's confidence factor

    w_ij = f(P_i / P_j),   f(x) = 2^-x (0 < x <= 1),  1 - 2^(-1/x) (x > 1)

which satisfies f(x) + f(1/x) = 1 and f(1) = 1/2: equal PDPs are a coin
flip, and the *smaller* the power ratio the more confident the judgement
in favour of the stronger AP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..channel.cir import stack_csi, tap_powers
from ..channel.csi import CSIMeasurement

__all__ = [
    "InvalidMeasurementError",
    "confidence_factor",
    "confidence_factor_rational",
    "confidence_factor_power",
    "CONFIDENCE_FUNCTIONS",
    "proximity_confidence",
    "estimate_pdp",
    "estimate_pdp_skip_invalid",
    "estimate_pdp_median",
    "estimate_rss",
    "estimate_first_tap",
    "packet_mean",
    "PROXIMITY_METRICS",
    "ProximityJudgement",
    "judge_proximity",
]


class InvalidMeasurementError(ValueError):
    """A CSI batch carried non-finite (NaN/Inf) channel estimates.

    Raised by the PDP estimators instead of letting a corrupted packet
    poison the mean silently — a single NaN subcarrier turns the whole
    link's PDP into NaN, which then flows as an apparently valid weight
    into the relaxation LP.  The guard layer catches degraded batches
    earlier (see :mod:`repro.guard`); this exception is the last line of
    defence for callers that bypass it.
    """


def confidence_factor(x: float) -> float:
    """The paper's ``f`` function (Eq. 4).

    Decreasing in ``x``: ``f(0+) -> 1``, ``f(1) = 1/2``, ``f(inf) -> 0``.
    Interpreting ``x`` as the (weaker PDP) / (stronger PDP) ratio, the
    value is the confidence that the stronger AP really is the nearer one.
    """
    if x <= 0:
        raise ValueError("power ratio must be positive")
    if x <= 1.0:
        return 2.0 ** (-x)
    return 1.0 - 2.0 ** (-1.0 / x)


def confidence_factor_rational(x: float) -> float:
    """Alternative ``f``: ``f(x) = 1 / (1 + x)``.

    The paper notes "there exists a wide variety of f function[s]" with
    the Eq. 2-3 properties; this is the simplest rational member
    (``1/(1+x) + 1/(1+1/x) = 1`` identically).  Less aggressive than the
    paper's choice near ``x = 0``.
    """
    if x <= 0:
        raise ValueError("power ratio must be positive")
    return 1.0 / (1.0 + x)


def confidence_factor_power(x: float, k: float = 2.0) -> float:
    """Alternative ``f``: ``f(x) = 1 / (1 + x^k)``.

    Satisfies Eqs. 2-3 for any ``k > 0``; larger ``k`` sharpens the
    transition around ``x = 1`` (ties get decided faster).
    """
    if x <= 0:
        raise ValueError("power ratio must be positive")
    if k <= 0:
        raise ValueError("exponent must be positive")
    return 1.0 / (1.0 + x**k)


#: Named registry of Eq. 2-3-satisfying confidence functions, for the
#: ABL-CONF ablation and for :class:`~repro.core.LocalizerConfig`.
CONFIDENCE_FUNCTIONS = {
    "paper": confidence_factor,
    "rational": confidence_factor_rational,
    "power2": confidence_factor_power,
}


def proximity_confidence(pdp_i: float, pdp_j: float, fn=confidence_factor) -> float:
    """Confidence that the larger-PDP AP is the nearer one.

    Symmetric in its arguments: the ratio fed to ``fn`` is
    ``min(P) / max(P) <= 1``, so the result lives in ``[1/2, 1)`` — 1/2 for
    indistinguishable powers, approaching 1 as the disparity grows.
    ``fn`` may be any Eq. 2-3-satisfying confidence function (see
    :data:`CONFIDENCE_FUNCTIONS`).
    """
    if pdp_i <= 0 or pdp_j <= 0:
        raise ValueError("PDP values must be positive")
    lo, hi = sorted((pdp_i, pdp_j))
    return fn(lo / hi)


def packet_mean(values: Sequence[float], keep: Sequence[bool] | None = None) -> float:
    """Mean of per-packet ``values``, summed one float at a time in
    packet order.

    The one accumulation behind every estimator below and the guard's
    verdicts (:func:`repro.guard.assess_link`): the same kept values
    give the same bits whichever caller averages them.  ``keep`` masks
    packets out of the mean; at least one must remain.
    """
    if keep is not None:
        values = [v for v, kept in zip(values, keep) if kept]
    if not len(values):
        raise ValueError("need at least one CSI measurement")
    total = 0.0
    for value in values:
        total += float(value)
    return total / len(values)


def _require_finite(finite: np.ndarray) -> None:
    """Raise :class:`InvalidMeasurementError` unless every packet is
    flagged finite."""
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise InvalidMeasurementError(
            f"non-finite CSI in packet {bad}; reject the packet or use "
            "estimate_pdp_skip_invalid"
        )


def _finite_tap_powers(
    measurements: Iterable[CSIMeasurement],
) -> tuple[np.ndarray, np.ndarray]:
    """``(tap powers, per-packet max tap power)`` of a finite batch.

    One stacked IFFT over the batch (a batch mixing OFDM configs raises
    :class:`ValueError`).  The CSI rows are vetted before the IFFT, so a
    NaN/Inf packet raises :class:`InvalidMeasurementError` without the
    transform ever seeing it (an infinite subcarrier would otherwise
    make NumPy warn about invalid values).
    """
    cfg, csi = stack_csi(measurements)
    _require_finite(np.isfinite(csi).all(axis=1))
    rows = tap_powers(cfg, csi)
    return rows, rows.max(axis=1)


def estimate_pdp(measurements: Iterable[CSIMeasurement]) -> float:
    """Estimate a link's PDP from a batch of CSI snapshots.

    Per packet: IFFT to the CIR and take the maximum tap power (the
    paper's estimator).  Across packets: average, which exploits CSI's
    temporal stability to suppress fading and noise — the prototype
    "collects thousands of packages at each site" for the same reason.

    Raises
    ------
    InvalidMeasurementError
        When any packet's CSI is non-finite (a NaN/Inf burst): one
        poisoned packet would otherwise turn the link's whole mean into
        NaN silently.  Use :func:`estimate_pdp_skip_invalid` to
        tolerate such packets.  Every estimator of
        :data:`PROXIMITY_METRICS` raises it likewise.
    ValueError
        On an empty batch, or one mixing OFDM configs.
    """
    return packet_mean(_finite_tap_powers(measurements)[1])


def estimate_rss(measurements: Iterable[CSIMeasurement]) -> float:
    """RSS link strength: the firmware's coarse per-packet RSSI, averaged.

    The alternative the paper argues *against* (Sec. I: "we use
    fine-grained channel state information (CSI) rather than coarse
    received signal strength (RSS)").  RSSI sums the direct path *and*
    every reflection and arrives jittered by AGC error and dB
    quantization, so it is both multipath-inflated and temporally
    unstable.  Provided for the ABL-METRIC ablation.
    """
    ms = list(measurements)
    rssi = np.array([m.rssi_mw() for m in ms], dtype=float)
    csi_ok = np.array([np.isfinite(m.csi).all() for m in ms], dtype=bool)
    _require_finite(np.isfinite(rssi) & csi_ok)
    return packet_mean(rssi)


def estimate_first_tap(measurements: Iterable[CSIMeasurement]) -> float:
    """First-tap power, averaged.

    The naive "earliest arrival is the direct path" estimator; misleading
    under NLOS exactly as the paper warns for TOA (the direct tap is
    crushed while reflections persist).  Provided for ABL-METRIC.
    """
    return packet_mean(_finite_tap_powers(measurements)[0][:, 0])


def estimate_pdp_skip_invalid(
    measurements: Iterable[CSIMeasurement],
) -> float:
    """PDP estimate tolerating non-finite packets: skip, then average.

    The guard layer's estimator: packets whose CSI is NaN/Inf (firmware
    glitches, interference bursts) are dropped before the IFFT and the
    mean is taken over the finite remainder with :func:`packet_mean`, so
    with zero invalid packets the result is bit-identical to
    :func:`estimate_pdp`.

    Raises
    ------
    ValueError
        On an empty batch, or one mixing OFDM configs.
    InvalidMeasurementError
        When *every* packet is invalid — there is no salvageable signal
        and the link must be rejected, not averaged.
    """
    cfg, csi = stack_csi(measurements)
    finite = np.isfinite(csi).all(axis=1)
    if not finite.any():
        raise InvalidMeasurementError(
            "every packet in the batch is non-finite; link must be rejected"
        )
    # Rows transform independently, so dropping the non-finite packets
    # before the IFFT leaves the finite rows' bits unchanged.
    return packet_mean(tap_powers(cfg, csi[finite]).max(axis=1))


def estimate_pdp_median(measurements: Iterable[CSIMeasurement]) -> float:
    """Median-of-packets PDP: robust to bursty interference.

    The mean estimator of :func:`estimate_pdp` is sensitive to occasional
    packets whose channel estimate was corrupted by a co-channel
    collision; the median discards those outliers at the cost of slightly
    higher variance on clean links.
    """
    return float(np.median(_finite_tap_powers(measurements)[1]))


#: Link-strength estimators usable as the proximity metric.  Each takes
#: one link's packet batch and raises :class:`InvalidMeasurementError` on
#: non-finite CSI.
PROXIMITY_METRICS = {
    "pdp": estimate_pdp,
    "pdp_median": estimate_pdp_median,
    "rss": estimate_rss,
    "first_tap": estimate_first_tap,
}


@dataclass(frozen=True, slots=True)
class ProximityJudgement:
    """Outcome of comparing the object's PDP towards two anchors.

    Attributes
    ----------
    near_index, far_index:
        Indices (into the caller's anchor list) of the judged-nearer and
        judged-farther anchor.
    confidence:
        The paper's ``w`` for this judgement, in ``[1/2, 1)``.
    pdp_near, pdp_far:
        The PDP estimates that produced the judgement.
    """

    near_index: int
    far_index: int
    confidence: float
    pdp_near: float
    pdp_far: float


def judge_proximity(
    pdps: Sequence[float],
    index_i: int,
    index_j: int,
    fn=confidence_factor,
) -> ProximityJudgement:
    """Judge which of two anchors the object is closer to, from PDPs."""
    if index_i == index_j:
        raise ValueError("cannot compare an anchor with itself")
    p_i, p_j = pdps[index_i], pdps[index_j]
    confidence = proximity_confidence(p_i, p_j, fn)
    if p_i >= p_j:
        return ProximityJudgement(index_i, index_j, confidence, p_i, p_j)
    return ProximityJudgement(index_j, index_i, confidence, p_j, p_i)
