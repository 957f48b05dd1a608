"""Receiver noise model.

Thermal noise plus receiver noise figure over the 802.11n 20 MHz channel,
applied as complex AWGN on each measured CSI subcarrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagation import dbm_to_mw

__all__ = ["NoiseModel", "thermal_noise_dbm"]


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 6.0) -> float:
    """Noise floor ``-174 dBm/Hz + 10 log10(B) + NF``."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Complex AWGN plus optional bursty co-channel interference.

    Attributes
    ----------
    bandwidth_hz:
        Channel bandwidth the noise integrates over.
    noise_figure_db:
        Receiver noise figure.
    burst_probability:
        Probability that a given packet is hit by a co-channel
        interference burst (a neighbouring network transmitting during
        the measurement).  0 disables interference.
    burst_power_dbm:
        In-band power of one interference burst.
    """

    bandwidth_hz: float = 20e6
    noise_figure_db: float = 6.0
    burst_probability: float = 0.0
    burst_power_dbm: float = -70.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst probability must be in [0, 1]")

    @property
    def noise_floor_dbm(self) -> float:
        """Total in-band noise power."""
        return thermal_noise_dbm(self.bandwidth_hz, self.noise_figure_db)

    def noise_power_mw(self) -> float:
        """Total in-band noise power in milliwatts."""
        return dbm_to_mw(self.noise_floor_dbm)

    def subcarrier_sigma(self, num_subcarriers: int, burst: bool = False) -> float:
        """Per-quadrature noise std on each of ``num_subcarriers``.

        ``burst`` adds one interference burst's power on top of the
        thermal floor.
        """
        if num_subcarriers <= 0:
            raise ValueError("need at least one subcarrier")
        power_mw = self.noise_power_mw()
        if burst:
            power_mw += dbm_to_mw(self.burst_power_dbm)
        return math.sqrt(power_mw / num_subcarriers / 2.0)

    def sample_subcarrier_noise(
        self, num_subcarriers: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Complex noise vector for one CSI snapshot.

        The thermal noise power is spread evenly over the subcarriers; a
        burst (when one hits) adds its own power the same way, corrupting
        the whole snapshot — which is how a colliding transmission looks
        to the channel estimator.
        """
        if num_subcarriers <= 0:
            raise ValueError("need at least one subcarrier")
        burst = self.burst_probability > 0 and rng.uniform() < self.burst_probability
        sigma = self.subcarrier_sigma(num_subcarriers, burst)
        return sigma * (
            rng.standard_normal(num_subcarriers)
            + 1j * rng.standard_normal(num_subcarriers)
        )
