"""Nodes of the NomLoc system architecture (Fig. 2).

* :class:`ObjectNode` — "transmits the probe request packages ... to the
  APs"; a person with a WiFi device, pinging every millisecond.
* :class:`APNode` — static AP: "only maintain[s] the task of collecting
  CSI samples ... and export[s] the measurements to the server".
* :class:`NomadicAPNode` — additionally walks its Markov site set and
  "report[s] its coordinates of the current sites with CSI measurements".
* :class:`ServerNode` — "finalizes the task of positioning": aggregates
  reports, estimates PDPs, runs the SP localizer.

All radio physics go through the shared :class:`~repro.channel.LinkSimulator`;
all timing goes through the :class:`~repro.net.simulator.EventSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import LinkSimulator
from ..core import Anchor, NomLocLocalizer, estimate_pdp
from ..geometry import Point
from ..mobility import MarkovMobilityModel, PositionErrorModel
from .messages import CSIReport, LocationFix, ProbePacket
from .simulator import EventSimulator

__all__ = ["NetworkConfig", "ObjectNode", "APNode", "NomadicAPNode", "ServerNode"]


@dataclass(frozen=True)
class NetworkConfig:
    """Timing and reliability parameters of the data path.

    Attributes
    ----------
    ping_interval_s:
        Object probe period ("sends PING message in millisecond").
    batch_size:
        CSI snapshots an AP accumulates before exporting to the server.
    report_latency_s:
        Mean one-way AP-to-server report latency.
    packet_loss:
        Probability a probe is lost on a link (i.i.d.).
    dwell_time_s:
        How long a nomadic AP measures at one site before moving.
    """

    ping_interval_s: float = 1e-3
    batch_size: int = 10
    report_latency_s: float = 5e-3
    packet_loss: float = 0.02
    dwell_time_s: float = 0.5

    def __post_init__(self) -> None:
        if self.ping_interval_s <= 0 or self.dwell_time_s <= 0:
            raise ValueError("intervals must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.packet_loss < 1.0:
            raise ValueError("packet_loss must be in [0, 1)")
        if self.report_latency_s < 0:
            raise ValueError("latency must be non-negative")


class ObjectNode:
    """The target being localized; emits probes to every registered AP."""

    def __init__(
        self,
        sim: EventSimulator,
        position: Point,
        config: NetworkConfig,
        object_id: str = "object",
    ) -> None:
        self.sim = sim
        self.position = position
        self.config = config
        self.object_id = object_id
        self.aps: list["APNode"] = []
        self.probes_sent = 0
        self._running = False

    def register_ap(self, ap: "APNode") -> None:
        """Make ``ap`` hear this object's probes."""
        self.aps.append(ap)

    def start(self) -> None:
        """Begin the periodic probe schedule."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(0.0, self._ping)

    def stop(self) -> None:
        """Stop emitting probes (pending probes still deliver)."""
        self._running = False

    def _ping(self) -> None:
        if not self._running:
            return
        packet = ProbePacket(self.probes_sent, self.sim.now, self.object_id)
        self.probes_sent += 1
        for ap in self.aps:
            ap.on_probe(packet, self.position)
        self.sim.schedule(self.config.ping_interval_s, self._ping)


class MovingObjectNode(ObjectNode):
    """An object that follows a ground-truth trajectory while probing.

    Each probe is transmitted from the trajectory position at the current
    virtual time (linear interpolation between samples); the node records
    where it truly was at each probe for later scoring.
    """

    def __init__(
        self,
        sim: EventSimulator,
        trajectory,
        config: NetworkConfig,
        object_id: str = "object",
    ) -> None:
        super().__init__(sim, trajectory.positions[0], config, object_id)
        self.trajectory = trajectory
        self.probe_log: list[tuple[float, Point]] = []

    def position_at(self, t: float) -> Point:
        """Ground-truth position at virtual time ``t`` (clamped ends)."""
        times = self.trajectory.times_s
        positions = self.trajectory.positions
        if t <= times[0]:
            return positions[0]
        if t >= times[-1]:
            return positions[-1]
        # Linear scan is fine: trajectories have tens of samples.
        for i in range(len(times) - 1):
            if times[i] <= t <= times[i + 1]:
                span = times[i + 1] - times[i]
                frac = (t - times[i]) / span
                a, b = positions[i], positions[i + 1]
                return a + (b - a) * frac
        return positions[-1]  # pragma: no cover - loop always matches

    def _ping(self) -> None:
        if not self._running:
            return
        self.position = self.position_at(self.sim.now)
        self.probe_log.append((self.sim.now, self.position))
        packet = ProbePacket(self.probes_sent, self.sim.now, self.object_id)
        self.probes_sent += 1
        for ap in self.aps:
            ap.on_probe(packet, self.position)
        self.sim.schedule(self.config.ping_interval_s, self._ping)


class APNode:
    """A static AP: measures CSI per probe, exports batches to the server."""

    def __init__(
        self,
        sim: EventSimulator,
        name: str,
        position: Point,
        link_sim: LinkSimulator,
        server: "ServerNode",
        config: NetworkConfig,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.name = name
        self.position = position
        self.link_sim = link_sim
        self.server = server
        self.config = config
        self.rng = rng
        self.probes_heard = 0
        self.probes_lost = 0
        self.failed = False
        self._pending: dict[str, list] = {}

    @property
    def nomadic(self) -> bool:
        return False

    def report_name(self) -> str:
        """Key the server groups this AP's measurements under."""
        return self.name

    def reported_position(self) -> Point:
        """Coordinates stamped on exported reports."""
        return self.position

    def fail(self) -> None:
        """Take the AP down: pending batches are lost, probes ignored."""
        self.failed = True
        self._pending.clear()

    def recover(self) -> None:
        """Bring a failed AP back online."""
        self.failed = False

    def on_probe(self, packet: ProbePacket, object_position: Point) -> None:
        """Receive one probe: channel-estimate it or lose it."""
        if self.failed:
            return
        if self.rng.uniform() < self.config.packet_loss:
            self.probes_lost += 1
            return
        self.probes_heard += 1
        measurement = self.link_sim.measure(
            object_position, self.position, self.rng
        )
        pending = self._pending.setdefault(packet.object_id, [])
        pending.append(measurement)
        if len(pending) >= self.config.batch_size:
            self.flush(packet.object_id)

    def flush(self, object_id: str | None = None) -> None:
        """Export accumulated measurements to the server.

        ``None`` flushes every object's pending batch.
        """
        if self.failed:
            return
        object_ids = (
            [object_id] if object_id is not None else list(self._pending)
        )
        for oid in object_ids:
            pending = self._pending.get(oid)
            if not pending:
                continue
            report = CSIReport(
                ap_name=self.report_name(),
                reported_position=self.reported_position(),
                measurements=tuple(pending),
                nomadic=self.nomadic,
                exported_at=self.sim.now,
                object_id=oid,
            )
            self._pending[oid] = []
            latency = float(
                self.rng.uniform(0.5, 1.5) * self.config.report_latency_s
            )
            self.sim.schedule(
                latency, lambda r=report: self.server.on_report(r)
            )


class NomadicAPNode(APNode):
    """A nomadic AP: walks its site set, stamping reports per site."""

    def __init__(
        self,
        sim: EventSimulator,
        name: str,
        mobility: MarkovMobilityModel,
        link_sim: LinkSimulator,
        server: "ServerNode",
        config: NetworkConfig,
        rng: np.random.Generator,
        error_model: PositionErrorModel | None = None,
        start_site: int = 0,
    ) -> None:
        super().__init__(
            sim, name, mobility.sites[start_site], link_sim, server, config, rng
        )
        self.mobility = mobility
        self.error_model = error_model or PositionErrorModel(0.0)
        self.site_index = start_site
        self.moves = 0
        self._reported = self.error_model.perturb(self.position, rng)
        self._moving = False

    @property
    def nomadic(self) -> bool:
        return True

    def report_name(self) -> str:
        """Group key including the current site (``"AP1@s2"``)."""
        return f"{self.name}@s{self.site_index}"

    def reported_position(self) -> Point:
        """The (possibly erroneous) coordinates stamped on reports."""
        return self._reported

    def start_moving(self) -> None:
        """Begin the dwell-move cycle."""
        if self._moving:
            return
        self._moving = True
        self.sim.schedule(self.config.dwell_time_s, self._move)

    def stop_moving(self) -> None:
        """Halt the dwell-move cycle (the AP stays at its current site)."""
        self._moving = False

    def _move(self) -> None:
        if not self._moving or self.failed:
            return
        # Export what this site measured before leaving it.
        self.flush()
        self.site_index = self.mobility.step(self.site_index, self.rng)
        self.position = self.mobility.sites[self.site_index]
        self._reported = self.error_model.perturb(self.position, self.rng)
        self.moves += 1
        self.sim.schedule(self.config.dwell_time_s, self._move)


class ServerNode:
    """The localization server: aggregates CSI reports, produces fixes.

    Reports are grouped per (object, AP/site) pair, so several objects
    can be localized concurrently off one deployment.
    """

    def __init__(self, localizer: NomLocLocalizer) -> None:
        self.localizer = localizer
        self.reports: list[CSIReport] = []
        self.fixes: list[LocationFix] = []
        self._groups: dict[tuple[str, str], list[CSIReport]] = {}

    def on_report(self, report: CSIReport) -> None:
        """Ingest one AP batch."""
        self.reports.append(report)
        key = (report.object_id, report.ap_name)
        self._groups.setdefault(key, []).append(report)

    def known_objects(self) -> list[str]:
        """Objects the server has heard measurements for."""
        return sorted({obj for obj, _ in self._groups})

    def anchors(
        self, object_id: str = "object", since: float | None = None
    ) -> list[Anchor]:
        """Current anchor view for one object: one per AP/site group.

        ``since`` restricts to reports exported at or after that time —
        the sliding window that keeps fixes fresh for moving targets.
        """
        anchors = []
        for (obj, name), group in sorted(self._groups.items()):
            if obj != object_id:
                continue
            if since is not None:
                group = [r for r in group if r.exported_at >= since]
                if not group:
                    continue
            measurements = [m for r in group for m in r.measurements]
            # One stacked IFFT per aggregated group.
            pdp = estimate_pdp(measurements)
            # Latest reported position wins (positions of one nomadic site
            # may differ across reports only through the error model).
            position = group[-1].reported_position
            anchors.append(Anchor(name, position, pdp, group[-1].nomadic))
        return anchors

    def produce_fix(
        self,
        now: float,
        object_id: str = "object",
        window_s: float | None = None,
    ) -> LocationFix:
        """Run the SP localizer over measurements of ``object_id``.

        ``window_s`` limits the evidence to the trailing window — stale
        measurements from a moving target's old positions would otherwise
        drag the fix backwards.
        """
        since = None if window_s is None else max(0.0, now - window_s)
        anchors = self.anchors(object_id, since)
        estimate = self.localizer.locate(anchors)
        fix = LocationFix(
            object_id=object_id,
            position=estimate.position,
            produced_at=now,
            num_reports=len(self.reports),
            relaxation_cost=estimate.relaxation_cost,
        )
        self.fixes.append(fix)
        return fix

    def distinct_sources(self, object_id: str = "object") -> int:
        """How many AP/site groups the server has heard for one object."""
        return sum(1 for obj, _ in self._groups if obj == object_id)
