"""Constant-velocity Kalman filter over NomLoc fixes.

With a linear CV motion model and position-only measurements the optimal
linear filter is a plain Kalman filter — no linearization needed.  It is
cheaper than the particle filter and optimal under Gaussian assumptions,
but venue-blind: it cannot exploit walls and boundaries the way the
particle filter's legality weighting does.  Both are compared in the
tracking tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Point

__all__ = ["KalmanConfig", "KalmanTracker"]


@dataclass(frozen=True)
class KalmanConfig:
    """Kalman filter tuning.

    Attributes
    ----------
    acceleration_noise:
        Std of the white-acceleration process noise (m/s^2); models
        manoeuvres.
    measurement_sigma_m:
        Assumed std of NomLoc position fixes.
    initial_position_sigma_m:
        Prior position uncertainty before the first update.
    initial_velocity_sigma:
        Prior velocity uncertainty (m/s).
    """

    acceleration_noise: float = 0.8
    measurement_sigma_m: float = 1.5
    initial_position_sigma_m: float = 10.0
    initial_velocity_sigma: float = 1.5

    def __post_init__(self) -> None:
        if self.acceleration_noise <= 0 or self.measurement_sigma_m <= 0:
            raise ValueError("noise parameters must be positive")
        if self.initial_position_sigma_m <= 0 or self.initial_velocity_sigma <= 0:
            raise ValueError("initial uncertainties must be positive")


class KalmanTracker:
    """CV Kalman filter with state ``[x, y, vx, vy]``."""

    def __init__(self, config: KalmanConfig | None = None) -> None:
        self.config = config or KalmanConfig()
        self.state = np.zeros(4)
        c = self.config
        self.covariance = np.diag(
            [
                c.initial_position_sigma_m**2,
                c.initial_position_sigma_m**2,
                c.initial_velocity_sigma**2,
                c.initial_velocity_sigma**2,
            ]
        )
        self._initialized = False
        self.updates = 0

    # ------------------------------------------------------------------
    def predict(self, dt_s: float) -> None:
        """Propagate the state ``dt_s`` seconds under the CV model."""
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        if dt_s == 0 or not self._initialized:
            return
        f = np.eye(4)
        f[0, 2] = dt_s
        f[1, 3] = dt_s
        q_acc = self.config.acceleration_noise**2
        dt2, dt3, dt4 = dt_s**2, dt_s**3, dt_s**4
        q_block = np.array([[dt4 / 4, dt3 / 2], [dt3 / 2, dt2]]) * q_acc
        q = np.zeros((4, 4))
        q[np.ix_([0, 2], [0, 2])] = q_block
        q[np.ix_([1, 3], [1, 3])] = q_block
        self.state = f @ self.state
        self.covariance = f @ self.covariance @ f.T + q

    def update(
        self, fix: Point, measurement_sigma_m: float | None = None
    ) -> None:
        """Condition on one position fix.

        ``measurement_sigma_m`` overrides the configured fix noise for
        this update only — the hook the session layer uses to inflate R
        for low-confidence fixes instead of dropping them.
        """
        sigma = (
            self.config.measurement_sigma_m
            if measurement_sigma_m is None
            else measurement_sigma_m
        )
        if sigma <= 0:
            raise ValueError("measurement sigma must be positive")
        z = np.array([fix.x, fix.y])
        if not self._initialized:
            self.state[:2] = z
            self._initialized = True
            self.updates += 1
            return
        h = np.zeros((2, 4))
        h[0, 0] = h[1, 1] = 1.0
        r = np.eye(2) * sigma**2
        innovation = z - h @ self.state
        s = h @ self.covariance @ h.T + r
        gain = self.covariance @ h.T @ np.linalg.solve(s, np.eye(2))
        self.state = self.state + gain @ innovation
        self.covariance = (np.eye(4) - gain @ h) @ self.covariance
        # Symmetrize against numerical drift.
        self.covariance = (self.covariance + self.covariance.T) / 2.0
        self.updates += 1

    def step(
        self,
        dt_s: float,
        fix: Point,
        measurement_sigma_m: float | None = None,
    ) -> Point:
        """Predict, update, and return the posterior mean position."""
        self.predict(dt_s)
        self.update(fix, measurement_sigma_m=measurement_sigma_m)
        return self.estimate()

    # ------------------------------------------------------------------
    # State capture (crash-consistent snapshots)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe full filter state.

        Python floats serialize through JSON as their shortest
        round-tripping repr, so a snapshot restored on another process
        continues the stream bit-identically.
        """
        return {
            "kind": "kalman",
            "state": self.state.tolist(),
            "covariance": self.covariance.tolist(),
            "initialized": self._initialized,
            "updates": self.updates,
        }

    def restore_state(self, state) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        if state.get("kind") != "kalman":
            raise ValueError(
                f"snapshot kind {state.get('kind')!r} is not 'kalman'"
            )
        self.state = np.array(state["state"], dtype=float)
        self.covariance = np.array(state["covariance"], dtype=float)
        self._initialized = bool(state["initialized"])
        self.updates = int(state["updates"])

    # ------------------------------------------------------------------
    def estimate(self) -> Point:
        """Posterior mean position."""
        return Point(float(self.state[0]), float(self.state[1]))

    def velocity(self) -> tuple[float, float]:
        """Posterior mean velocity (m/s)."""
        return (float(self.state[2]), float(self.state[3]))

    def position_covariance(self) -> np.ndarray:
        """Posterior 2x2 position covariance (a copy)."""
        return self.covariance[:2, :2].copy()

    def position_sigma_m(self) -> float:
        """RMS of the position marginal std devs."""
        return float(
            np.sqrt((self.covariance[0, 0] + self.covariance[1, 1]) / 2.0)
        )
