"""Per-link quality scoring and the ok/degraded/rejected verdict.

Second of the guard layer's two passes.  :func:`assess_link` takes one
:class:`~repro.core.LinkRecord`, runs the structural checks of
:mod:`repro.guard.sanity`, then two statistical detectors over the
surviving packets:

* **MAD outlier rejection** — per-packet PDP maxima (in dB) more than
  ``mad_z_threshold`` robust z-scores from the batch median are bursty
  interference, not channel; they are excluded from the link's estimate;
* **CIR energy concentration** — a healthy 20 MHz channel concentrates
  most CIR energy in a few dominant taps; an unsynchronized-oscillator
  phase smear disperses it across the whole grid, which no amount of
  packet averaging repairs.  The max-tap PDP of such a batch is biased
  ~10 dB low, but the *total* CIR energy is untouched (a per-subcarrier
  phase rotation preserves amplitudes), so the link is salvaged: its
  PDP is re-estimated as total energy scaled by the clean-channel
  concentration prior, and the link is downgraded rather than dropped.

The verdict carries a **quality score** ``clean / expected`` in
``[0, 1]``: the fraction of the campaign's packet budget that survived
the structural checks.  Because every structural predicate is per-packet
and can only be tripped *by* corruption, the score is monotone —
corrupting more packets never raises it (property-tested in
``tests/guard``).

Bit-exactness contract: the verdict's ``pdp`` averages the kept row
maxima with :func:`~repro.core.pdp.packet_mean`, the accumulation
:func:`~repro.core.pdp.estimate_pdp` uses, and applies the gains in the
same order as the ungated path, so on a batch with nothing flagged
gating a clean pipeline changes no bits (enforced by
``benchmarks/bench_guard.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..channel.cir import tap_powers_batch
from ..core.pdp import packet_mean
from ..core.system import LinkRecord
from .sanity import inspect_batch

__all__ = ["GuardConfig", "LinkStatus", "LinkVerdict", "assess_link"]


@dataclass(frozen=True)
class GuardConfig:
    """Gating thresholds.

    Defaults are calibrated so the clean synthesized channel never trips
    a detector (the bit-exactness invariant of ``bench_guard``) while the
    scripted faults of :mod:`repro.guard.faults` reliably do.

    Attributes
    ----------
    mad_z_threshold:
        Robust z-score (``0.6745 * (x - median) / MAD`` on dB-domain
        packet maxima) above which a packet is an outlier.  One-sided:
        only *upward* spikes are flagged — interference adds power,
        while deep downward dips are ordinary Rician fading (clean
        batches reach upward z ~6.6 across the built-in scenarios and
        packet budgets with the MAD floor applied, but fade dips past
        z = 13, so a two-sided test would shoot healthy packets).
    mad_floor_db:
        Lower bound on the batch MAD (dB) before z-scores are formed.
        Small batches of a calm channel can land an MAD of ~0.1 dB,
        which amplifies ordinary ~7 dB Rician upsides into z > 16;
        fading physics does not get *more* trustworthy because a batch
        happens to be tight, so deviations are always judged against at
        least this much spread (a real interference burst sits tens of
        dB up and still clears the threshold easily).
    concentration_top_taps:
        How many dominant taps "healthy" CIR energy may occupy.
    concentration_min:
        Minimum mean fraction of CIR energy in the top taps; below it
        the link's phase coherence is gone and its PDP is salvaged from
        total CIR energy instead of the max tap.  Clean synthesized
        links measure >= 0.81 across every built-in scenario while a
        phase-smeared batch measures <= 0.25, so the 0.5 default splits
        the bands with margin on both sides.
    salvage_concentration_prior:
        Max-tap-to-total-energy ratio of a healthy channel, used to put
        an energy-salvaged PDP on the same scale as the max-tap PDPs of
        the clean links it will be compared against.  Measured mean
        across every built-in scenario and packet budget is 0.65
        (5th-95th percentile 0.50-0.83).
    salvage_quality:
        Ceiling on the quality score of an energy-salvaged link; its
        constraint rows carry at most this much weight because the
        concentration prior is only accurate to ~1 dB.
    min_quality:
        Quality score below which a link is rejected instead of
        down-weighted.
    min_clean_packets:
        Minimum usable packets for an estimate worth trusting at all.
    """

    mad_z_threshold: float = 9.0
    mad_floor_db: float = 1.0
    concentration_top_taps: int = 3
    concentration_min: float = 0.5
    salvage_concentration_prior: float = 0.65
    salvage_quality: float = 0.5
    min_quality: float = 0.2
    min_clean_packets: int = 3

    def __post_init__(self) -> None:
        if self.mad_z_threshold <= 0:
            raise ValueError("mad_z_threshold must be positive")
        if self.mad_floor_db < 0:
            raise ValueError("mad_floor_db must be non-negative")
        if self.concentration_top_taps < 1:
            raise ValueError("concentration_top_taps must be at least 1")
        if not 0.0 <= self.concentration_min < 1.0:
            raise ValueError("concentration_min must be in [0, 1)")
        if not 0.0 < self.salvage_concentration_prior <= 1.0:
            raise ValueError("salvage_concentration_prior must be in (0, 1]")
        if not 0.0 < self.salvage_quality <= 1.0:
            raise ValueError("salvage_quality must be in (0, 1]")
        if not 0.0 <= self.min_quality <= 1.0:
            raise ValueError("min_quality must be in [0, 1]")
        if self.min_clean_packets < 1:
            raise ValueError("min_clean_packets must be at least 1")


class LinkStatus(enum.Enum):
    """How much a link's measurements can be trusted."""

    OK = "ok"
    DEGRADED = "degraded"
    REJECTED = "rejected"


@dataclass(frozen=True)
class LinkVerdict:
    """The guard layer's ruling on one link.

    Attributes
    ----------
    name:
        Link name (matches the anchor the link would produce).
    status:
        ``OK`` — full confidence; ``DEGRADED`` — usable, weight scaled
        by :attr:`quality`; ``REJECTED`` — constraint rows dropped.
    quality:
        Fraction of the packet budget surviving the structural checks,
        in ``[0, 1]``; exactly 1.0 for an ``OK`` link.
    reasons:
        Defect labels explaining any downgrade, in detection order.
    clean_packets:
        Packets feeding the estimate (structural survivors minus MAD
        outliers).
    expected_packets:
        The campaign's per-link packet budget.
    pdp:
        Gained PDP estimate over the clean packets; ``None`` when
        rejected.  Bit-identical to the ungated estimator when nothing
        was flagged.
    energy:
        Gained mean *total* CIR energy over the clean packets; ``None``
        when rejected.  A per-subcarrier phase rotation cannot change
        it, so the policy uses it to recalibrate a salvaged link's PDP
        against the clean links of the same query (see
        :func:`repro.guard.policy.gate_records`).
    """

    name: str
    status: LinkStatus
    quality: float
    reasons: tuple[str, ...]
    clean_packets: int
    expected_packets: int
    pdp: float | None
    energy: float | None = None

    @property
    def usable(self) -> bool:
        """True when the link may contribute an anchor."""
        return self.status is not LinkStatus.REJECTED

    def to_dict(self) -> dict:
        """Plain-dict wire/ledger form of the ruling.

        Floats pass through unchanged (JSON round-trips them exactly),
        so ``from_dict(to_dict(v)) == v`` — the property the gateway's
        verdict ledger and the protocol's optional ``gate`` section both
        rely on.
        """
        return {
            "name": self.name,
            "status": self.status.value,
            "quality": self.quality,
            "reasons": list(self.reasons),
            "clean_packets": self.clean_packets,
            "expected_packets": self.expected_packets,
            "pdp": self.pdp,
            "energy": self.energy,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "LinkVerdict":
        """Rebuild a ruling from its :meth:`to_dict` record."""
        return cls(
            name=record["name"],
            status=LinkStatus(record["status"]),
            quality=float(record["quality"]),
            reasons=tuple(record.get("reasons") or ()),
            clean_packets=int(record["clean_packets"]),
            expected_packets=int(record["expected_packets"]),
            pdp=None if record.get("pdp") is None else float(record["pdp"]),
            energy=(
                None if record.get("energy") is None else float(record["energy"])
            ),
        )


def assess_link(
    record: LinkRecord,
    expected_packets: int | None = None,
    config: GuardConfig | None = None,
) -> LinkVerdict:
    """Inspect one link's batch and rule ok / degraded / rejected."""
    cfg = config or GuardConfig()
    expected = (
        expected_packets
        if expected_packets is not None
        else len(record.measurements)
    )
    expected = max(expected, 1)
    report = inspect_batch(record.measurements, expected_packets)
    reasons = list(report.issues) + report.packet_reasons()
    if report.packets == 0 or "mixed-ofdm-config" in report.issues:
        return _rejected(record, reasons, 0, expected)

    rows = tap_powers_batch(list(record.measurements))
    maxima = rows.max(axis=1)
    structural = report.clean
    quality = float(structural.sum()) / expected

    usable = structural.copy()
    outliers = _mad_outliers(maxima, usable, cfg)
    if outliers.any():
        reasons.append("pdp-outlier-packets")
        usable &= ~outliers
    clean = int(usable.sum())
    if clean < cfg.min_clean_packets:
        reasons.append("too-few-clean-packets")
        return _rejected(record, reasons, clean, expected, quality)
    if quality < cfg.min_quality:
        reasons.append("quality-below-floor")
        return _rejected(record, reasons, clean, expected, quality)

    energy = packet_mean(rows.sum(axis=1), usable)
    energy *= record.device_gain
    energy *= record.antenna_gain

    concentration = _energy_concentration(rows, usable, cfg)
    if concentration < cfg.concentration_min:
        # Phase coherence is gone, so the max tap understates path gain
        # by ~10 dB — but a per-subcarrier phase rotation cannot change
        # amplitudes, so total CIR energy is intact.  Salvage the PDP
        # from energy, rescaled by the clean-channel concentration
        # prior, and cap the link's weight: the prior is only good to
        # ~1 dB, so its rows deserve less of a vote than clean ones.
        reasons.append("dispersed-cir-energy")
        pdp = cfg.salvage_concentration_prior * energy
        quality = min(quality, cfg.salvage_quality)
        return LinkVerdict(
            record.name,
            LinkStatus.DEGRADED,
            quality,
            tuple(reasons),
            clean,
            expected,
            pdp,
            energy,
        )

    # Same accumulation as estimate_pdp, same gain multiply order as
    # LinkRecord.estimate: nothing flagged => no bit differs from the
    # ungated path.
    pdp = packet_mean(maxima, usable)
    pdp *= record.device_gain
    pdp *= record.antenna_gain
    if not reasons and quality == 1.0:
        status = LinkStatus.OK
    else:
        status = LinkStatus.DEGRADED
    return LinkVerdict(
        record.name,
        status,
        quality,
        tuple(reasons),
        clean,
        expected,
        pdp,
        energy,
    )


def _rejected(
    record: LinkRecord,
    reasons: list[str],
    clean: int,
    expected: int,
    quality: float = 0.0,
) -> LinkVerdict:
    """A REJECTED verdict carrying whatever was learned before the kill."""
    return LinkVerdict(
        record.name,
        LinkStatus.REJECTED,
        quality,
        tuple(reasons),
        clean,
        expected,
        None,
    )


def _mad_outliers(
    maxima: np.ndarray, usable: np.ndarray, cfg: GuardConfig
) -> np.ndarray:
    """Mask of packets whose dB-domain PDP maximum spikes upward.

    Computed over the structurally clean packets only — a NaN maximum
    would poison the median.  One-sided by design, and the MAD is
    floored at ``mad_floor_db`` so a tight batch cannot amplify
    ordinary fading into false outliers (see :class:`GuardConfig`).  A
    floor of zero with a degenerate batch disables the detector rather
    than dividing by zero.
    """
    flagged = np.zeros(len(maxima), dtype=bool)
    idx = np.flatnonzero(usable)
    if len(idx) < 3:
        return flagged
    db = 10.0 * np.log10(maxima[idx])
    med = float(np.median(db))
    mad = max(float(np.median(np.abs(db - med))), cfg.mad_floor_db)
    if mad <= 0.0:
        return flagged
    z = 0.6745 * (db - med) / mad
    flagged[idx[z > cfg.mad_z_threshold]] = True
    return flagged


def _energy_concentration(
    rows: np.ndarray, usable: np.ndarray, cfg: GuardConfig
) -> float:
    """Mean fraction of CIR energy in each packet's top taps.

    Near 1 for a coherent channel (direct path plus near reflections own
    a few early taps); near ``top_taps / n_fft`` for phase-smeared CSI,
    whose IFFT is spread uniformly across the grid.
    """
    idx = np.flatnonzero(usable)
    if len(idx) == 0:
        return 0.0
    kept = rows[idx]
    k = min(cfg.concentration_top_taps, kept.shape[1])
    top = np.sort(kept, axis=1)[:, -k:].sum(axis=1)
    total = kept.sum(axis=1)
    total = np.where(total > 0.0, total, 1.0)
    return float(np.mean(top / total))
