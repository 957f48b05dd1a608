"""End-to-end NomLoc system: scenario + channel + mobility + localizer.

This is the top of the public API: point a :class:`NomLocSystem` at a
:class:`~repro.environment.Scenario` and ask where an object standing at
some position would be localized.  The system

1. has the object ping every AP (static APs at their fixed positions, the
   nomadic AP from every site its Markov walk visits),
2. estimates each link's PDP from the simulated CSI batches,
3. attaches the nomadic AP's *reported* coordinates (optionally corrupted
   by a position-error model, Sec. V-E), and
4. runs the SP localizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..channel import (
    AntennaPattern,
    CSISynthesizer,
    LinkSimulator,
    PropagationModel,
    ShadowingModel,
)
from ..environment import APSpec, Scenario
from ..geometry import Point
from ..mobility import (
    MarkovMobilityModel,
    MobilityPattern,
    MobilityTrace,
    PositionErrorModel,
    generate_trace,
)
from ..channel.csi import CSIMeasurement
from ..mobility.traces import TraceStep
from .constraints import Anchor
from .localizer import LocalizerConfig, LocationEstimate, NomLocLocalizer
from .pdp import PROXIMITY_METRICS, estimate_pdp

__all__ = ["SystemConfig", "LinkRecord", "NomLocSystem", "measure_link_pdp"]


@dataclass(frozen=True)
class SystemConfig:
    """Measurement-campaign parameters.

    Attributes
    ----------
    packets_per_link:
        CSI snapshots collected per AP-object link (the prototype pings
        in the thousands; a few dozen already stabilize the PDP mean).
    trace_steps:
        Length of the nomadic AP's Markov walk per localization query.
    position_error:
        Error model applied to the nomadic AP's reported coordinates.
    use_nomadic:
        False pins nomadic APs at home — the static-deployment baseline.
    proximity_metric:
        Link-strength estimator driving the proximity judgements: the
        paper's ``"pdp"`` (max CIR tap power), coarse ``"rss"`` (total
        power), or naive ``"first_tap"``.  Ablated in ABL-METRIC.
    """

    packets_per_link: int = 30
    trace_steps: int = 12
    position_error: PositionErrorModel = field(
        default_factory=lambda: PositionErrorModel(0.0)
    )
    use_nomadic: bool = True
    proximity_metric: str = "pdp"

    def __post_init__(self) -> None:
        if self.packets_per_link < 1:
            raise ValueError("packets_per_link must be at least 1")
        if self.trace_steps < 1:
            raise ValueError("trace_steps must be at least 1")
        if self.proximity_metric not in PROXIMITY_METRICS:
            raise ValueError(
                f"unknown proximity metric {self.proximity_metric!r}; "
                f"available: {sorted(PROXIMITY_METRICS)}"
            )

    def resolve_metric(self):
        """The estimator callable behind :attr:`proximity_metric`."""
        return PROXIMITY_METRICS[self.proximity_metric]

    def with_error_range(self, er_m: float) -> "SystemConfig":
        """Copy with a different position error range (the ER sweep)."""
        return replace(self, position_error=PositionErrorModel(er_m))


@dataclass(frozen=True)
class LinkRecord:
    """One link's raw measurement batch, before PDP estimation.

    The seam the guard layer plugs into: :meth:`NomLocSystem.\
gather_link_records` stops *before* collapsing each batch into a PDP
    scalar, so fault injection, sanity checks and quality gating can see
    the per-packet CSI (see :mod:`repro.guard`).  ``device_gain`` and
    ``antenna_gain`` are the linear power gains the ungated path
    multiplies into the PDP estimate, kept separate (and applied in that
    order) so both paths stay bit-identical.
    """

    name: str
    position: Point
    measurements: tuple[CSIMeasurement, ...]
    device_gain: float = 1.0
    antenna_gain: float = 1.0
    nomadic: bool = False

    def estimate(self, estimator=estimate_pdp) -> float:
        """The link's gained PDP estimate, as the ungated path computes it."""
        pdp = estimator(self.measurements)
        pdp *= self.device_gain
        pdp *= self.antenna_gain
        return pdp

    def to_anchor(self, estimator=estimate_pdp) -> Anchor:
        """Collapse the batch into the anchor the localizer consumes."""
        return Anchor(
            self.name, self.position, self.estimate(estimator), self.nomadic
        )


def measure_link_pdp(
    sim: LinkSimulator,
    tx: Point,
    rx: Point,
    packets: int,
    rng: np.random.Generator,
    estimator=estimate_pdp,
) -> float:
    """Estimate a link's strength from a batch of simulated packets.

    ``estimator`` defaults to the paper's PDP (max CIR tap power over
    one stacked IFFT of the batch, :func:`~repro.core.pdp.estimate_pdp`);
    any member of :data:`repro.core.pdp.PROXIMITY_METRICS` works.
    """
    batch = sim.measure_batch(tx, rx, packets, rng)
    return estimator(batch)


class NomLocSystem:
    """The deployable NomLoc stack over one scenario.

    Parameters
    ----------
    scenario:
        Venue, AP deployment, and evaluation sites.
    config:
        Measurement-campaign parameters.
    localizer_config:
        SP localizer knobs.
    synthesizer:
        Override the CSI synthesizer (defaults to the scenario's
        path-loss exponent with standard fading and noise).
    """

    def __init__(
        self,
        scenario: Scenario,
        config: SystemConfig | None = None,
        localizer_config: LocalizerConfig | None = None,
        synthesizer: CSISynthesizer | None = None,
        shadowing: ShadowingModel | None = None,
        device_offsets_db: dict[str, float] | None = None,
        antennas: dict[str, AntennaPattern] | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or SystemConfig()
        if synthesizer is None:
            synthesizer = CSISynthesizer(
                propagation=PropagationModel(
                    path_loss_exponent=scenario.path_loss_exponent
                )
            )
        self.link_sim = LinkSimulator(
            scenario.plan, synthesizer, shadowing=shadowing
        )
        self.localizer = NomLocLocalizer(
            scenario.plan.boundary, localizer_config
        )
        # Per-AP receive-chain gain offsets (device heterogeneity): real
        # deployments mix hardware, so PDPs measured by different devices
        # carry systematic dB offsets.  Keyed by AP name; unlisted APs are
        # nominal.  A nomadic AP's offset follows it to every site — which
        # is why same-device site-pair comparisons are immune (ABL-HETERO).
        offsets = device_offsets_db or {}
        unknown = set(offsets) - {ap.name for ap in scenario.aps}
        if unknown:
            raise ValueError(f"device offsets for unknown APs: {sorted(unknown)}")
        self.device_offsets_db = offsets
        # Per-AP antenna pattern (link-level directional gain towards the
        # object); unlisted APs are omnidirectional, as in the paper.
        antennas = antennas or {}
        unknown = set(antennas) - {ap.name for ap in scenario.aps}
        if unknown:
            raise ValueError(f"antennas for unknown APs: {sorted(unknown)}")
        self.antennas = antennas

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def gather_anchors(
        self,
        object_position: Point,
        rng: np.random.Generator,
        pattern: MobilityPattern | None = None,
    ) -> list[Anchor]:
        """Collect one localization query's anchor set.

        Static APs always contribute; nomadic APs contribute one anchor
        per distinct visited site when ``config.use_nomadic``, else a
        single anchor pinned at home.
        """
        metric = self.config.resolve_metric()
        return [
            record.to_anchor(metric)
            for record in self.gather_link_records(
                object_position, rng, pattern
            )
        ]

    def gather_link_records(
        self,
        object_position: Point,
        rng: np.random.Generator,
        pattern: MobilityPattern | None = None,
    ) -> list[LinkRecord]:
        """One query's raw per-link measurement batches (the guard seam).

        Identical measurement campaign to :meth:`gather_anchors` — same
        AP iteration order, same mobility walk, same RNG draw order — but
        stopping before PDP estimation, so the guard layer can inject
        faults and gate links at the channel boundary.
        ``gather_anchors`` is implemented on top of this and stays
        bit-identical to the historical path.
        """
        records: list[LinkRecord] = []
        for ap in self.scenario.aps:
            if ap.nomadic and self.config.use_nomadic:
                records.extend(
                    self._nomadic_records(ap, object_position, rng, pattern)
                )
            else:
                batch = self.link_sim.measure_batch(
                    object_position,
                    ap.position,
                    self.config.packets_per_link,
                    rng,
                )
                records.append(
                    LinkRecord(
                        ap.name,
                        ap.position,
                        tuple(batch),
                        device_gain=self._device_gain(ap.name),
                        antenna_gain=self._antenna_gain(
                            ap.name, ap.position, object_position
                        ),
                    )
                )
        return records

    def _device_gain(self, ap_name: str) -> float:
        """Linear power gain of one AP's receive chain."""
        offset = self.device_offsets_db.get(ap_name, 0.0)
        return 10.0 ** (offset / 10.0)

    def _antenna_gain(
        self, ap_name: str, ap_position: Point, object_position: Point
    ) -> float:
        """Linear directional gain of the AP's antenna towards the object."""
        pattern = self.antennas.get(ap_name)
        if pattern is None:
            return 1.0
        return 10.0 ** (
            pattern.gain_towards_db(ap_position, object_position) / 10.0
        )

    def _nomadic_records(
        self,
        ap: APSpec,
        object_position: Point,
        rng: np.random.Generator,
        pattern: MobilityPattern | None,
    ) -> list[LinkRecord]:
        trace = self._walk(ap, rng, pattern)
        records = []
        for step in trace.unique_steps():
            # Physics happen at the TRUE position; the constraint uses the
            # REPORTED one.
            batch = self.link_sim.measure_batch(
                object_position,
                step.true_position,
                self.config.packets_per_link,
                rng,
            )
            records.append(
                LinkRecord(
                    f"{ap.name}@s{step.site_index}",
                    step.reported_position,
                    tuple(batch),
                    device_gain=self._device_gain(ap.name),
                    antenna_gain=self._antenna_gain(
                        ap.name, step.true_position, object_position
                    ),
                    nomadic=True,
                )
            )
        return records

    def _walk(
        self,
        ap: APSpec,
        rng: np.random.Generator,
        pattern: MobilityPattern | None,
    ) -> MobilityTrace:
        model = MarkovMobilityModel(ap.sites)
        if pattern is None:
            return generate_trace(
                model,
                self.config.trace_steps,
                rng,
                self.config.position_error,
            )
        indices = pattern.generate(self.config.trace_steps, rng)
        steps = []
        for idx in indices:
            true_pos = ap.sites[idx]
            steps.append(
                TraceStep(
                    idx,
                    true_pos,
                    self.config.position_error.perturb(true_pos, rng),
                )
            )
        return MobilityTrace(tuple(steps))

    # ------------------------------------------------------------------
    # Localization
    # ------------------------------------------------------------------
    def locate(
        self,
        object_position: Point,
        rng: np.random.Generator,
        pattern: MobilityPattern | None = None,
    ) -> LocationEstimate:
        """One full localization query for an object at ``object_position``."""
        anchors = self.gather_anchors(object_position, rng, pattern)
        return self.localizer.locate(anchors)

    def locate_from_anchors(
        self, anchors: Sequence[Anchor]
    ) -> LocationEstimate:
        """Run only the SP stage on externally gathered anchors."""
        return self.localizer.locate(anchors)

    def localization_error(
        self,
        object_position: Point,
        rng: np.random.Generator,
        pattern: MobilityPattern | None = None,
    ) -> float:
        """Euclidean error of one localization query."""
        return self.locate(object_position, rng, pattern).error_to(
            object_position
        )
