"""802.11n CSI synthesis over traced multipath.

The frequency-domain channel state information on subcarrier ``i`` is

    H(f_i) = sum_k g_k * a_k * exp(-j 2 pi (f_c + f_i) tau_k) + n_i

where ``a_k`` is the large-scale amplitude of path ``k`` (path loss +
excess loss), ``g_k`` the per-packet Rician fading gain, ``tau_k`` the
path delay, and ``n_i`` receiver noise.  The layout mirrors a 20 MHz
802.11n channel: a 64-point FFT grid with 56 occupied subcarriers
(indices -28..-1, 1..28), of which an Intel-5300-style report exposes 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..obs import span
from .fading import FadingModel
from .multipath import PathComponent
from .noise import NoiseModel
from .propagation import PropagationModel, db_to_linear_amplitude

__all__ = [
    "OFDMConfig",
    "CSIMeasurement",
    "CSISynthesizer",
    "LinkTerms",
    "INTEL5300_SUBCARRIERS",
]

#: Subcarrier indices reported by the Intel 5300 CSI tool in 20 MHz HT mode.
INTEL5300_SUBCARRIERS: tuple[int, ...] = (
    -28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1,
    1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 28,
)


@dataclass(frozen=True)
class OFDMConfig:
    """20 MHz 802.11n OFDM parameters.

    Attributes
    ----------
    n_fft:
        FFT size; CIR taps come out at ``1 / bandwidth_hz`` spacing.
    bandwidth_hz:
        Sampled channel bandwidth.
    carrier_hz:
        RF carrier (2.412 GHz = channel 1).
    active_subcarriers:
        Occupied subcarrier indices relative to the carrier (DC excluded).
    """

    n_fft: int = 64
    bandwidth_hz: float = 20e6
    carrier_hz: float = 2.412e9
    active_subcarriers: tuple[int, ...] = field(
        default_factory=lambda: tuple(
            i for i in range(-28, 29) if i != 0
        )
    )

    def __post_init__(self) -> None:
        if self.n_fft <= 0 or self.bandwidth_hz <= 0 or self.carrier_hz <= 0:
            raise ValueError("OFDM parameters must be positive")
        half = self.n_fft // 2
        for idx in self.active_subcarriers:
            if not -half <= idx <= half - 1:
                raise ValueError(f"subcarrier index {idx} outside FFT grid")

    @property
    def subcarrier_spacing_hz(self) -> float:
        """Frequency gap between adjacent subcarriers."""
        return self.bandwidth_hz / self.n_fft

    @property
    def tap_resolution_s(self) -> float:
        """Time resolution of one CIR tap (50 ns at 20 MHz)."""
        return 1.0 / self.bandwidth_hz

    def subcarrier_frequencies_hz(self) -> np.ndarray:
        """Baseband offsets of the active subcarriers."""
        return (
            np.array(self.active_subcarriers, dtype=float)
            * self.subcarrier_spacing_hz
        )


@dataclass(frozen=True)
class CSIMeasurement:
    """One CSI snapshot from a single packet on one TX-RX link.

    Attributes
    ----------
    csi:
        Complex channel gains on the active subcarriers, in sqrt(mW) units
        (``|csi|^2`` is a per-subcarrier received power in mW).
    config:
        OFDM layout the snapshot was measured under.
    rssi_dbm:
        The coarse per-packet RSSI the NIC firmware reports alongside the
        CSI: total power corrupted by AGC jitter and dB quantization
        (``None`` when the synthesizer did not model it).  This is the
        "coarse received signal strength" the paper contrasts CSI with.
    """

    csi: np.ndarray
    config: OFDMConfig
    rssi_dbm: float | None = None

    def __post_init__(self) -> None:
        csi = np.asarray(self.csi, dtype=complex)
        if csi.shape != (len(self.config.active_subcarriers),):
            raise ValueError(
                "CSI length must match the number of active subcarriers"
            )
        object.__setattr__(self, "csi", csi)

    def total_power_mw(self) -> float:
        """Aggregate received power across subcarriers (wideband power)."""
        return float(np.sum(np.abs(self.csi) ** 2))

    def rssi_mw(self) -> float:
        """The firmware RSSI in mW; falls back to wideband power."""
        if self.rssi_dbm is None:
            return self.total_power_mw()
        return 10.0 ** (self.rssi_dbm / 10.0)

    def subsample_intel5300(self) -> "CSIMeasurement":
        """Restrict to the 30 subcarriers the Intel 5300 driver exports."""
        picks, sub_cfg = _intel5300_subsampling(self.config)
        return CSIMeasurement(self.csi[list(picks)], sub_cfg)


@lru_cache(maxsize=None)
def _intel5300_subsampling(
    config: OFDMConfig,
) -> tuple[tuple[int, ...], OFDMConfig]:
    """``(pick indices, subsampled config)`` for one OFDM layout.

    Subsampling happens once per packet on the measurement fast path, so
    the index lookup is cached per (hashable, frozen) config instead of
    rebuilding an ``{subcarrier: index}`` dict on every call.
    """
    index_of = {sc: i for i, sc in enumerate(config.active_subcarriers)}
    try:
        picks = tuple(index_of[sc] for sc in INTEL5300_SUBCARRIERS)
    except KeyError as exc:
        raise ValueError(
            f"subcarrier {exc.args[0]} not present in this measurement"
        ) from None
    sub_cfg = OFDMConfig(
        n_fft=config.n_fft,
        bandwidth_hz=config.bandwidth_hz,
        carrier_hz=config.carrier_hz,
        active_subcarriers=INTEL5300_SUBCARRIERS,
    )
    return picks, sub_cfg


@dataclass(frozen=True)
class LinkTerms:
    """The packet-invariant synthesis terms of one link's ``K`` paths.

    Everything :meth:`CSISynthesizer.synthesize_batch` needs besides the
    random draws; built by :meth:`CSISynthesizer.link_terms`.  The arrays
    are read-only because a :class:`~repro.channel.LinkSimulator` shares
    one instance across every batch on the link.

    Attributes
    ----------
    amplitudes:
        ``(K,)`` mean linear amplitude of each path, in sqrt(mW).
    specular:
        ``(K,)`` Rician specular (mean) part of each path's fading gain.
    sigma:
        ``(K,)`` per-quadrature std of each path's diffuse fading part.
    phases:
        ``(K, S)`` phase ramp ``exp(-j 2 pi f tau_k)`` of each path over
        the ``S`` active subcarriers.
    """

    amplitudes: np.ndarray
    specular: np.ndarray
    sigma: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.amplitudes, self.specular, self.sigma, self.phases):
            array.flags.writeable = False


@dataclass(frozen=True)
class CSISynthesizer:
    """Generates per-packet CSI snapshots from a traced path set.

    Attributes
    ----------
    tx_power_dbm:
        Transmit power (TL-WR941ND class routers transmit around 20 dBm;
        we default slightly lower for client devices).
    propagation:
        Large-scale path loss model.
    fading:
        Small-scale per-packet fading model.
    noise:
        Receiver noise model (``None`` disables noise).
    ofdm:
        Subcarrier layout.
    rssi_jitter_db:
        Std of the per-packet AGC/gain error on the reported RSSI (coarse
        RSS is unstable packet-to-packet; CSI magnitudes are not).
    rssi_quantization_db:
        Step size the firmware rounds RSSI to (1 dB on typical NICs).
    """

    tx_power_dbm: float = 15.0
    propagation: PropagationModel = field(default_factory=PropagationModel)
    fading: FadingModel = field(default_factory=FadingModel)
    noise: NoiseModel | None = field(default_factory=NoiseModel)
    ofdm: OFDMConfig = field(default_factory=OFDMConfig)
    rssi_jitter_db: float = 2.0
    rssi_quantization_db: float = 1.0

    def path_amplitude(self, component: PathComponent) -> float:
        """Mean linear amplitude of one component, in sqrt(mW)."""
        rx_dbm = component.received_power_dbm(self.tx_power_dbm, self.propagation)
        return db_to_linear_amplitude(rx_dbm)

    def synthesize(
        self,
        paths: Sequence[PathComponent],
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> CSIMeasurement:
        """Produce one packet's CSI snapshot over the given path set."""
        if not paths:
            raise ValueError("need at least one path component")
        freqs = self.ofdm.carrier_hz + self.ofdm.subcarrier_frequencies_hz()
        csi = np.zeros(len(freqs), dtype=complex)
        for component in paths:
            amplitude = self.path_amplitude(component)
            gain = (
                self.fading.sample_gain(component, rng) if with_fading else 1.0
            )
            csi += (
                amplitude
                * gain
                * np.exp(-2j * np.pi * freqs * component.delay_s)
            )
        if self.noise is not None:
            csi += self.noise.sample_subcarrier_noise(len(freqs), rng)
        rssi = self._report_rssi(csi, rng)
        return CSIMeasurement(csi, self.ofdm, rssi)

    def _report_rssi(self, csi: np.ndarray, rng: np.random.Generator) -> float:
        """The firmware's coarse RSSI: jittered, quantized total power."""
        power_mw = float(np.sum(np.abs(csi) ** 2))
        power_mw = max(power_mw, 1e-30)
        dbm = 10.0 * np.log10(power_mw)
        if self.rssi_jitter_db > 0:
            dbm += float(rng.normal(0.0, self.rssi_jitter_db))
        if self.rssi_quantization_db > 0:
            dbm = (
                round(dbm / self.rssi_quantization_db)
                * self.rssi_quantization_db
            )
        return float(dbm)

    def link_terms(self, paths: Sequence[PathComponent]) -> LinkTerms:
        """The per-link terms of :meth:`synthesize_batch` for ``paths``.

        They depend only on the path set and this synthesizer, so a caller
        that measures the same link repeatedly (``LinkSimulator``)
        computes them once and passes them to :meth:`synthesize_terms`.
        """
        freqs = self.ofdm.carrier_hz + self.ofdm.subcarrier_frequencies_hz()
        delays = np.array([c.delay_s for c in paths], dtype=float)
        k_factors = [self.fading.k_for(c) for c in paths]
        return LinkTerms(
            amplitudes=np.array([self.path_amplitude(c) for c in paths], dtype=float),
            specular=np.array(
                [math.sqrt(k / (k + 1.0)) for k in k_factors], dtype=float
            ),
            sigma=np.array(
                [math.sqrt(1.0 / (2.0 * (k + 1.0))) for k in k_factors], dtype=float
            ),
            phases=np.exp(
                (-2j * np.pi * freqs)[np.newaxis, :] * delays[:, np.newaxis]
            ),
        )

    def synthesize_batch(
        self,
        paths: Sequence[PathComponent],
        num_packets: int,
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> list[CSIMeasurement]:
        """Independent CSI snapshots for ``num_packets`` packets.

        Vectorized over the whole ``(packets, paths, subcarriers)`` batch
        (see :meth:`_synthesize_batch_vectorized`); the outputs and the
        generator's final stream position are bit-identical to
        :meth:`synthesize_batch_scalar` — enforced by
        ``benchmarks/bench_hotpath.py`` and ``tests/channel``.
        """
        return self.synthesize_terms(
            self.link_terms(paths), num_packets, rng, with_fading
        )

    def synthesize_terms(
        self,
        terms: LinkTerms,
        num_packets: int,
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> list[CSIMeasurement]:
        """:meth:`synthesize_batch` over precomputed :meth:`link_terms`."""
        if num_packets < 0:
            raise ValueError("num_packets must be non-negative")
        num_paths = len(terms.amplitudes)
        with span("csi.synthesize", packets=num_packets, paths=num_paths):
            if num_packets == 0:
                return []
            if not num_paths:
                raise ValueError("need at least one path component")
            return self._synthesize_batch_vectorized(
                terms, num_packets, rng, with_fading
            )

    def synthesize_batch_scalar(
        self,
        paths: Sequence[PathComponent],
        num_packets: int,
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> list[CSIMeasurement]:
        """Reference per-packet loop the vectorized batch must reproduce.

        Kept as the ground truth for the bit-exactness guards; not used on
        the hot path.
        """
        if num_packets < 0:
            raise ValueError("num_packets must be non-negative")
        return [
            self.synthesize(paths, rng, with_fading)
            for _ in range(num_packets)
        ]

    # ------------------------------------------------------------------
    # Vectorized fast path
    # ------------------------------------------------------------------
    def _synthesize_batch_vectorized(
        self,
        terms: LinkTerms,
        num_packets: int,
        rng: np.random.Generator,
        with_fading: bool,
    ) -> list[CSIMeasurement]:
        """One NumPy pass over the packet batch.

        RNG draw-order contract (must match the scalar loop exactly): for
        each packet, (1) two standard normals per path — real then
        imaginary fading component, in path order; (2) the noise model's
        draws — ``S`` real then ``S`` imaginary normals; (3) one RSSI
        jitter normal (``rng.normal(0, s)`` is ``0.0 + s * z``).  Without
        interference bursts every packet's draws are one contiguous run
        of standard normals, so the whole batch is one
        ``standard_normal(P * (2K + 2S + 1))`` call reshaped to one row
        per packet; PCG64 fills it exactly as the scalar calls would.
        Bursty noise interleaves a ``uniform()`` per packet, so it keeps
        a per-packet draw loop.  All arithmetic on the draws is batched
        either way.
        """
        num_paths, num_sc = terms.phases.shape
        noise = self.noise
        n_fade = 2 * num_paths if with_fading else 0
        n_jitter = 1 if self.rssi_jitter_db > 0 else 0
        if noise is not None and noise.burst_probability > 0:
            fading = np.empty((num_packets, n_fade))
            jitter_z = np.empty((num_packets, n_jitter))
            noise_rows = np.empty((num_packets, num_sc), dtype=complex)
            for p in range(num_packets):
                fading[p] = rng.standard_normal(n_fade)
                noise_rows[p] = noise.sample_subcarrier_noise(num_sc, rng)
                jitter_z[p] = rng.standard_normal(n_jitter)
        else:
            n_noise = 2 * num_sc if noise is not None else 0
            width = n_fade + n_noise + n_jitter
            draws = rng.standard_normal(num_packets * width).reshape(
                num_packets, width
            )
            fading = draws[:, :n_fade]
            jitter_z = draws[:, width - n_jitter :]
            if noise is not None:
                re = draws[:, n_fade : n_fade + num_sc]
                im = draws[:, n_fade + num_sc : n_fade + n_noise]
                noise_rows = noise.subcarrier_sigma(num_sc) * (re + 1j * im)
            else:
                noise_rows = None

        csi = np.zeros((num_packets, num_sc), dtype=complex)
        if with_fading:
            gains = np.empty((num_packets, num_paths), dtype=complex)
            gains.real = terms.specular + terms.sigma * fading[:, 0::2]
            gains.imag = terms.sigma * fading[:, 1::2]
            for idx in range(num_paths):
                coeff = terms.amplitudes[idx] * gains[:, idx]
                csi += coeff[:, np.newaxis] * terms.phases[idx]
        else:
            for idx in range(num_paths):
                csi += terms.amplitudes[idx] * terms.phases[idx]
        if noise_rows is not None:
            csi += noise_rows
        jitters = 0.0 + self.rssi_jitter_db * jitter_z[:, 0] if n_jitter else None
        rssi = self._report_rssi_batch(csi, jitters)
        return [
            CSIMeasurement(csi[p], self.ofdm, rssi[p])
            for p in range(num_packets)
        ]

    def _report_rssi_batch(
        self, csi: np.ndarray, jitters: np.ndarray | None
    ) -> list[float]:
        """Vectorized :meth:`_report_rssi` over a ``(packets, sc)`` batch.

        ``np.round`` matches the scalar path's ``round`` (both
        round-half-even), and per-row sums reduce in the same order as
        the scalar 1-D sums, so reported values are bit-identical.
        """
        power_mw = np.sum(np.abs(csi) ** 2, axis=1)
        power_mw = np.maximum(power_mw, 1e-30)
        dbm = 10.0 * np.log10(power_mw)
        if jitters is not None:
            dbm = dbm + jitters
        if self.rssi_quantization_db > 0:
            dbm = (
                np.round(dbm / self.rssi_quantization_db)
                * self.rssi_quantization_db
            )
        return [float(v) for v in dbm]
