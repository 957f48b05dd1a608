"""paper-campaign: the paper's Fig. 9 measurement campaign, end to end.

``run_campaign`` (sequential, ``workers=0``) drives the nomadic
``NomLocSystem`` over every lab and lobby test site with the default
``ExperimentConfig`` measurement (15 packets per link, 12-step nomadic
walks).  Each query synthesizes CSI for every link (``channel``),
estimates PDPs and runs the localizer, so this is the only workload
that loads the channel layer.  Rounds of one repetition per site over
both venues repeat until the run time is used; round ``r`` uses campaign
seed ``(seed, r)``.

Throughput is the median over rounds of fixes per second; it and the
per-fix latencies are scaled to reference machine speed
(``common.SpeedScale``).  The reported
error is the paper's metric: the mean over sites of each
site's mean error (EXPERIMENTS.md: lab 1.28 m, lobby 3.10 m).

Gates: no site fails, every error is finite, and the first round run
again gives the same errors to the last bit.
"""

from __future__ import annotations

import math
import time

from .common import Outcome, Report, SpeedScale, median, median_setup, percentile
from .layers import campaign_points, traced_metrics
from .tracer import Tracer, install, uninstall

VENUES = ("lab", "lobby")
SETUP_REPEATS = 3


class _Timed:
    """A campaign localizer that times each ``localization_error`` call."""

    def __init__(self, system, latencies: list) -> None:
        self.system = system
        self.latencies = latencies

    def localization_error(self, site, rng):
        started = time.perf_counter()
        error = self.system.localization_error(site, rng)
        self.latencies.append(time.perf_counter() - started)
        return error


def _build():
    """Both venues' systems, warmed by one query each."""
    import numpy as np

    from repro.core import NomLocSystem
    from repro.environment import get_scenario
    from repro.eval.experiments import ExperimentConfig

    started = time.perf_counter()
    systems = {}
    for venue in VENUES:
        scenario = get_scenario(venue)
        system = NomLocSystem(scenario, ExperimentConfig().system_config())
        system.localization_error(
            scenario.test_sites[0], np.random.default_rng(0))
        systems[venue] = system
    return systems, time.perf_counter() - started


def _round_seed(seed: int, round_index: int) -> int:
    return seed * 100_003 + round_index


class _Rounds:
    """Campaign rounds over both venues, with per-site error sums."""

    def __init__(self, systems, seed: int, outcome: Outcome) -> None:
        from repro.eval import runner

        self.runner = runner
        self.systems = systems
        self.seed = seed
        self.outcome = outcome
        self.site_errors: dict[tuple, list[float]] = {}
        self.latencies: list[float] = []
        self.rounds = self.fixes = 0
        self.wall = 0.0
        self.round_rates: list[float] = []
        self.scale = SpeedScale()
        self.first: dict[str, tuple] = {}

    def campaign(self, venue: str, round_index: int, latencies: list):
        system = self.systems[venue]
        return self.runner.run_campaign(
            _Timed(system, latencies),
            system.scenario.test_sites,
            repetitions=1,
            seed=_round_seed(self.seed, round_index),
            name=venue,
            workers=0,
            partial_results=True,
        )

    def run(self, seconds: float) -> None:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            round_started, round_fixes = time.perf_counter(), 0
            first = len(self.latencies)
            for venue in VENUES:
                result = self.campaign(venue, self.rounds, self.latencies)
                errors = [e for site in result.sites for e in site.errors]
                attempted = len(self.systems[venue].scenario.test_sites)
                bad = sum(1 for e in errors if not math.isfinite(e))
                self.outcome.count(venue, attempted, attempted - len(errors) + bad)
                for site in result.sites:
                    key = (venue, site.site.x, site.site.y)
                    self.site_errors.setdefault(key, []).extend(site.errors)
                self.first.setdefault(venue, (self.rounds, errors))
                round_fixes += attempted
            rate = round_fixes / (time.perf_counter() - round_started)
            factor = self.scale.window()
            self.round_rates.append(rate * factor)
            self.latencies[first:] = [x / factor for x in self.latencies[first:]]
            self.fixes += round_fixes
            self.rounds += 1
        self.wall += time.perf_counter() - started

    def recheck(self) -> None:
        """Run each venue's first round again; its errors must repeat."""
        for venue, (round_index, errors) in self.first.items():
            result = self.campaign(venue, round_index, [])
            again = [e for site in result.sites for e in site.errors]
            self.outcome.count("repeat", len(again), int(again != errors))
            self.outcome.gate(
                again == errors,
                f"{venue}: campaign round {round_index} did not repeat bit "
                "for bit",
            )

    def mean_site_error(self) -> float:
        means = [sum(v) / len(v) for v in self.site_errors.values()]
        return sum(means) / len(means)


def run(seed: int, seconds: float, trace: bool) -> Report:
    outcome = Outcome()
    systems, setup_s = median_setup(_build, lambda _s: None, SETUP_REPEATS)
    rounds = _Rounds(systems, seed, outcome)
    if not trace:
        rounds.run(seconds)
        rounds.recheck()
        lat = [x * 1e3 for x in rounds.latencies]
        metrics = {
            "setup_s": setup_s,
            "fixes_per_s": median(rounds.round_rates),
            "p50_ms": percentile(lat, 50),
            "tail_ms": percentile(lat, 95),
            "error_m": rounds.mean_site_error(),
        }
        venue_means = {
            venue: [sum(v) / len(v) for k, v in rounds.site_errors.items()
                    if k[0] == venue]
            for venue in VENUES
        }
        return Report(outcome, metrics, [
            f"campaign_fixes_per_s {metrics['fixes_per_s']:.1f} 1/s "
            f"({rounds.fixes} fixes in {rounds.rounds} rounds; as measured "
            f"{rounds.fixes / rounds.wall:.1f} 1/s)",
            f"per-fix p50 {metrics['p50_ms']:.3f} ms, p95 "
            f"{metrics['tail_ms']:.3f} ms",
            "campaign_mean_error_m {:.4f} m (lab {:.4f} m, lobby {:.4f} m)".format(
                metrics["error_m"],
                *(sum(m) / len(m) for m in venue_means.values())),
        ])
    rounds.run(seconds / 2)
    traced = _Rounds(systems, seed, outcome)
    tracer = Tracer()
    undo = install(tracer, campaign_points())
    tracer.enabled = True
    try:
        traced.run(seconds / 2)
    finally:
        tracer.enabled = False
        uninstall(undo)
    rounds.recheck()
    fixes = traced.fixes
    pieces = {venue: len(system.localizer.pieces) for venue, system in systems.items()}
    per_round = {venue: len(system.scenario.test_sites)
                 for venue, system in systems.items()}
    metrics, lines = traced_metrics(
        outcome, tracer.spans, traced.wall, fixes,
        {
            "obs.trace_overhead_frac": median(rounds.round_rates) / median(
                traced.round_rates) - 1.0,
        },
        {
            "eval.campaign": traced.rounds * len(VENUES),
            "measure.gather": fixes,
            # One PDP per link; a query has several static and nomadic links.
            "pdp.estimate": range(2 * fixes, 100 * fixes),
            "localizer.locate": fixes,
            "localizer.assemble": fixes,
            "localizer.solve": traced.rounds * sum(
                pieces[v] * per_round[v] for v in VENUES),
            "localizer.merge": fixes,
            "localizer.locate_batch": 0,
        },
    )
    return Report(outcome, metrics, lines, tracer.spans)
