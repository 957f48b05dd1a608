"""End-to-end pipeline profiling: trace a batch of queries per stage.

The engine behind ``repro profile``: run ``n`` localization queries over
a scenario with tracing enabled — measurement (CSI synthesis, IFFT/CIR)
client-side, solving (constraint build, per-piece LP, merge) through a
:class:`~repro.serving.LocalizationService` — and return the captured
spans plus the served responses.  The paper's SLV analysis attributes
error to *stages*; this attributes latency the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exporters import aggregate
from .instrument import capture
from .trace import Span, Tracer

__all__ = ["ProfileResult", "profile_scenario"]


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of one profiling run.

    Attributes
    ----------
    spans:
        Every span captured across the run, in completion order.
    errors_m:
        Per-query localization error against the known truth sites.
    metrics:
        The service's metrics snapshot (includes the obs aggregates).
    """

    spans: tuple[Span, ...]
    errors_m: tuple[float, ...]
    metrics: dict

    def stages(self) -> dict:
        """Per-stage latency aggregate of :attr:`spans`."""
        return aggregate(self.spans)


def profile_scenario(
    scenario_name: str,
    queries: int = 6,
    packets: int = 8,
    seed: int = 0,
    tracer: Tracer | None = None,
) -> ProfileResult:
    """Trace ``queries`` end-to-end localization queries over a scenario.

    Queries cycle through the scenario's test sites with per-query
    deterministic seeding (the same scheme as the serving CLI), so a
    profile is reproducible and comparable across code versions.
    """
    import numpy as np

    from ..core import NomLocSystem, SystemConfig
    from ..environment import get_scenario
    from ..serving import LocalizationService

    if queries < 1:
        raise ValueError("queries must be at least 1")
    scenario = get_scenario(scenario_name)
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=packets))
    with capture(tracer) as active:
        errors = []
        with LocalizationService(scenario.plan.boundary) as service:
            for i in range(queries):
                site = scenario.test_sites[i % len(scenario.test_sites)]
                rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
                anchors = tuple(system.gather_anchors(site, rng))
                response = service.locate(anchors, query_id=f"q{i}")
                errors.append(response.error_to(site))
            metrics = service.metrics_snapshot()
        spans = active.finished()
    return ProfileResult(spans, tuple(errors), metrics)
