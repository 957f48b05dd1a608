"""Link-level simulator: floor plan + tracer + CSI synthesis, with caching.

One :class:`LinkSimulator` wraps a venue.  Path traces are deterministic
per endpoint pair and cached, together with the link's packet-invariant
synthesis terms, so generating thousands of packets per site costs one
trace plus cheap per-packet fading/noise draws — mirroring how the real
prototype pings "thousands of packages at each site".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from ..geometry import Point

if TYPE_CHECKING:  # avoid a channel <-> environment import cycle
    from ..environment.floorplan import FloorPlan
from .cir import DelayProfile, delay_profile
from .csi import CSIMeasurement, CSISynthesizer, LinkTerms
from .multipath import PathComponent, TraceConfig, trace_paths
from .shadowing import ShadowingModel

__all__ = ["LinkSimulator"]


class _Link:
    """One cached link: its traced paths and, once measured, its terms.

    ``synthesizer`` records which synthesizer ``terms`` were built for,
    so replacing :attr:`LinkSimulator.synthesizer` rebuilds them.
    """

    __slots__ = ("paths", "terms", "synthesizer")

    def __init__(self, paths: list[PathComponent]) -> None:
        self.paths = paths
        self.terms: LinkTerms | None = None
        self.synthesizer: CSISynthesizer | None = None


@dataclass
class LinkSimulator:
    """Generates CSI measurements between arbitrary points of a venue.

    Attributes
    ----------
    plan:
        The floor plan radio paths are traced through.
    synthesizer:
        CSI synthesis parameters (TX power, fading, noise, OFDM layout).
    trace_config:
        Multipath tracer options.
    shadowing:
        Optional spatially correlated shadowing field applied per link.

    Links are cached per endpoint pair in a least-recently-used map of
    :attr:`CACHE_CAPACITY` entries, so callers that feed continuous
    positions (tracking, the network simulator) keep a bounded cache.
    """

    #: Links kept by the per-link cache; a campaign over one venue
    #: touches fewer than a hundred.  A cached link with its terms holds
    #: about 20 KB.
    CACHE_CAPACITY: ClassVar[int] = 1024

    plan: FloorPlan
    synthesizer: CSISynthesizer = field(default_factory=CSISynthesizer)
    trace_config: TraceConfig = field(default_factory=TraceConfig)
    shadowing: ShadowingModel | None = None
    _links: OrderedDict[tuple[float, float, float, float], _Link] = field(
        default_factory=OrderedDict, repr=False
    )

    def _link(self, tx: Point, rx: Point) -> _Link:
        """The cached link ``tx -> rx``, traced on a miss."""
        key = (tx.x, tx.y, rx.x, rx.y)
        links = self._links
        link = links.get(key)
        if link is None:
            link = links[key] = _Link(self._trace(tx, rx))
            if len(links) > self.CACHE_CAPACITY:
                links.popitem(last=False)
        else:
            links.move_to_end(key)
        return link

    def _trace(self, tx: Point, rx: Point) -> list[PathComponent]:
        paths = trace_paths(self.plan, tx, rx, self.trace_config)
        if self.shadowing is None:
            return paths
        offset = self.shadowing.link_shadowing_db(tx, rx)
        return [
            PathComponent(
                kind=c.kind,
                length_m=c.length_m,
                delay_s=c.delay_s,
                excess_loss_db=c.excess_loss_db + offset,
                bounces=c.bounces,
                blocked=c.blocked,
            )
            for c in paths
        ]

    def paths(self, tx: Point, rx: Point) -> list[PathComponent]:
        """Traced multipath components for one link (cached).

        When a shadowing model is attached, the link's (time-invariant)
        shadowing offset is folded into every component's excess loss.
        """
        return self._link(tx, rx).paths

    def link_terms(self, tx: Point, rx: Point) -> LinkTerms:
        """The link's packet-invariant synthesis terms (cached with it)."""
        link = self._link(tx, rx)
        if link.synthesizer is not self.synthesizer:
            link.terms = self.synthesizer.link_terms(link.paths)
            link.synthesizer = self.synthesizer
        return link.terms

    def is_los(self, tx: Point, rx: Point) -> bool:
        """True when the direct path between the endpoints is clear."""
        return self.plan.is_los(tx, rx)

    def measure(
        self,
        tx: Point,
        rx: Point,
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> CSIMeasurement:
        """One packet's CSI snapshot on the ``tx -> rx`` link."""
        return self.synthesizer.synthesize(self.paths(tx, rx), rng, with_fading)

    def measure_batch(
        self,
        tx: Point,
        rx: Point,
        num_packets: int,
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> list[CSIMeasurement]:
        """Independent CSI snapshots for ``num_packets`` packets."""
        return self.synthesizer.synthesize_terms(
            self.link_terms(tx, rx), num_packets, rng, with_fading
        )

    def measure_delay_profile(
        self,
        tx: Point,
        rx: Point,
        rng: np.random.Generator,
        with_fading: bool = True,
    ) -> DelayProfile:
        """One packet's power delay profile on the link (Fig. 3 view)."""
        return delay_profile(self.measure(tx, rx, rng, with_fading))

    def clear_cache(self) -> None:
        """Drop cached traces and their synthesis terms.

        Call after mutating the floor plan.
        """
        self._links.clear()
