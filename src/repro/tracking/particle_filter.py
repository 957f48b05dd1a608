"""Particle-filter tracking over NomLoc location fixes.

NomLoc produces independent per-query fixes; a moving target benefits from
fusing them with a motion model.  This is a standard constant-velocity
bootstrap particle filter whose measurement model treats each NomLoc fix
as a noisy position observation, with venue awareness: particles that
leave the floor plan (or enter obstacle interiors) are heavily
down-weighted, which encodes exactly the area-boundary prior the SP
localizer itself uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..environment import FloorPlan
from ..geometry import Point

__all__ = ["ParticleFilterConfig", "ParticleFilterTracker"]


@dataclass(frozen=True)
class ParticleFilterConfig:
    """Particle filter tuning.

    Attributes
    ----------
    num_particles:
        Particle count; a few hundred suffices in 2-D.
    velocity_noise_mps:
        Std of the per-second velocity random walk (manoeuvre noise).
    initial_speed_mps:
        Std of the initial velocity prior.
    measurement_sigma_m:
        Assumed std of NomLoc fixes (meter-scale per the evaluation).
    resample_fraction:
        Resample when the effective sample size falls below this fraction
        of ``num_particles``.
    outside_penalty:
        Multiplicative weight penalty for particles outside the venue or
        inside obstacle interiors.
    """

    num_particles: int = 400
    velocity_noise_mps: float = 0.6
    initial_speed_mps: float = 0.8
    measurement_sigma_m: float = 1.5
    resample_fraction: float = 0.5
    outside_penalty: float = 1e-6

    def __post_init__(self) -> None:
        if self.num_particles < 2:
            raise ValueError("need at least two particles")
        if self.measurement_sigma_m <= 0:
            raise ValueError("measurement sigma must be positive")
        if not 0 < self.resample_fraction <= 1:
            raise ValueError("resample fraction must be in (0, 1]")
        if not 0 < self.outside_penalty <= 1:
            raise ValueError("outside penalty must be in (0, 1]")


class ParticleFilterTracker:
    """Constant-velocity bootstrap filter confined to a floor plan."""

    def __init__(
        self,
        plan: FloorPlan,
        config: ParticleFilterConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.plan = plan
        self.config = config or ParticleFilterConfig()
        self.rng = rng or np.random.default_rng()
        n = self.config.num_particles
        seeds = plan.boundary.sample_points(n, self.rng)
        self.states = np.zeros((n, 4))  # x, y, vx, vy
        self.states[:, 0] = [p.x for p in seeds]
        self.states[:, 1] = [p.y for p in seeds]
        self.states[:, 2:] = self.rng.normal(
            0.0, self.config.initial_speed_mps, size=(n, 2)
        )
        self.weights = np.full(n, 1.0 / n)
        self.updates = 0

    # ------------------------------------------------------------------
    def predict(self, dt_s: float) -> None:
        """Propagate particles by ``dt_s`` under the CV + noise model."""
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        if dt_s == 0:
            return
        noise = self.rng.normal(
            0.0,
            self.config.velocity_noise_mps * np.sqrt(dt_s),
            size=(len(self.states), 2),
        )
        self.states[:, 2:] += noise
        self.states[:, 0] += self.states[:, 2] * dt_s
        self.states[:, 1] += self.states[:, 3] * dt_s

    def update(
        self, fix: Point, measurement_sigma_m: float | None = None
    ) -> None:
        """Condition on one NomLoc fix and resample when degenerate.

        ``measurement_sigma_m`` overrides the configured fix noise for
        this update only — a low-confidence fix flattens the likelihood
        instead of being dropped (the session layer's
        confidence-to-noise mapping).
        """
        sigma = (
            self.config.measurement_sigma_m
            if measurement_sigma_m is None
            else measurement_sigma_m
        )
        if sigma <= 0:
            raise ValueError("measurement sigma must be positive")
        dx = self.states[:, 0] - fix.x
        dy = self.states[:, 1] - fix.y
        likelihood = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
        penalty = np.array(
            [
                1.0 if self._is_legal(x, y) else self.config.outside_penalty
                for x, y in self.states[:, :2]
            ]
        )
        self.weights = self.weights * likelihood * penalty
        total = self.weights.sum()
        if total <= 0 or not np.isfinite(total):
            # Filter diverged: re-seed around the fix.
            self._reseed(fix)
            return
        self.weights /= total
        self.updates += 1
        if self.effective_sample_size() < (
            self.config.resample_fraction * len(self.states)
        ):
            self._systematic_resample()

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
        """JSON-safe full filter state, including the RNG.

        The particle cloud *and* the generator's bit-level state are
        captured (``Generator.bit_generator.state`` is a plain dict of
        Python ints), so a restored filter draws the exact same noise,
        resampling positions and roughening as the uninterrupted one —
        the bit-identical-continuation contract the durable session
        store snapshots depend on.
        """
        return {
            "kind": "particle",
            "states": self.states.tolist(),
            "weights": self.weights.tolist(),
            "updates": self.updates,
            "rng": self.rng.bit_generator.state,
        }

    def restore_state(self, state) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The tracker must have been constructed with the same
        configuration (particle count) and an RNG of the same bit
        generator family; the snapshot then overwrites the cloud and
        rewinds the generator to the captured stream position.
        """
        if state.get("kind") != "particle":
            raise ValueError(
                f"snapshot kind {state.get('kind')!r} is not 'particle'"
            )
        states = np.array(state["states"], dtype=float)
        if states.shape != self.states.shape:
            raise ValueError(
                f"snapshot particle cloud {states.shape} does not match "
                f"the configured {self.states.shape}"
            )
        rng_state = state["rng"]
        if rng_state["bit_generator"] != type(self.rng.bit_generator).__name__:
            raise ValueError(
                f"snapshot RNG {rng_state['bit_generator']!r} does not "
                f"match {type(self.rng.bit_generator).__name__!r}"
            )
        self.states = states
        self.weights = np.array(state["weights"], dtype=float)
        self.updates = int(state["updates"])
        self.rng.bit_generator.state = rng_state

    # ------------------------------------------------------------------
    def estimate(self) -> Point:
        """Weighted posterior mean position."""
        x = float(np.average(self.states[:, 0], weights=self.weights))
        y = float(np.average(self.states[:, 1], weights=self.weights))
        return Point(x, y)

    def effective_sample_size(self) -> float:
        """``1 / sum(w^2)`` — the usual degeneracy diagnostic."""
        return float(1.0 / np.sum(self.weights**2))

    def position_covariance(self) -> np.ndarray:
        """Weighted 2x2 covariance of the particle positions."""
        mean = np.average(self.states[:, :2], weights=self.weights, axis=0)
        centered = self.states[:, :2] - mean
        return np.einsum(
            "n,ni,nj->ij", self.weights, centered, centered
        ) / float(np.sum(self.weights))

    def position_sigma_m(self) -> float:
        """RMS of the position marginal std devs (matches the Kalman
        tracker's definition, so session-level track confidence reads
        the same for either filter)."""
        cov = self.position_covariance()
        return float(np.sqrt((cov[0, 0] + cov[1, 1]) / 2.0))

    def spread_m(self) -> float:
        """Weighted RMS distance of particles from the estimate."""
        est = self.estimate()
        d2 = (self.states[:, 0] - est.x) ** 2 + (self.states[:, 1] - est.y) ** 2
        return float(np.sqrt(np.average(d2, weights=self.weights)))

    # ------------------------------------------------------------------
    def _is_legal(self, x: float, y: float) -> bool:
        p = Point(float(x), float(y))
        if not self.plan.contains(p):
            return False
        return not any(
            o.polygon.contains(p, boundary=False) for o in self.plan.obstacles
        )

    def _systematic_resample(self) -> None:
        n = len(self.states)
        positions = (self.rng.uniform() + np.arange(n)) / n
        cumulative = np.cumsum(self.weights)
        cumulative[-1] = 1.0
        indexes = np.searchsorted(cumulative, positions)
        self.states = self.states[indexes].copy()
        # Roughen to avoid sample impoverishment.
        self.states[:, :2] += self.rng.normal(0.0, 0.05, size=(n, 2))
        self.weights = np.full(n, 1.0 / n)

    def _reseed(self, around: Point) -> None:
        n = len(self.states)
        self.states[:, 0] = around.x + self.rng.normal(0.0, 2.0, n)
        self.states[:, 1] = around.y + self.rng.normal(0.0, 2.0, n)
        self.states[:, 2:] = self.rng.normal(
            0.0, self.config.initial_speed_mps, size=(n, 2)
        )
        self.weights = np.full(n, 1.0 / n)
