"""locate-batch: the localizer and LP solver in-process, no I/O.

Inputs follow the ``bench_locate_pipeline`` recipe: per venue (lab and
lobby), query ``i`` is the anchor set gathered at test site ``i mod
sites`` with ``SeedSequence([seed, i])``, 6 packets per link and exact
nomadic sites.  Anchor positions repeat across queries, so the bisector
cache hits.

Two closed-loop phases on one thread share the run time:

* batched — ``LocalizationService.batch`` with ``max_workers=0,
  lp_batch=64``: the stacked-LP path, 64 lanes per solve;
* single — ``LocalizationService.locate_request`` one query at a time
  with ``lp_batch=0``: the scalar path the gateway uses.

Rates and latency percentiles are taken per pass over the whole input,
scaled to reference machine speed (``common.SpeedScale``) and reported
as the median over passes, which keeps load from other processes on the
machine out of the figures.

Gates: every answer is non-degraded, and the batched and single answers
to each query are identical to the last bit.
"""

from __future__ import annotations

import time

import numpy as np

from .common import Outcome, Report, SpeedScale, median, median_setup, percentile
from .layers import serving_points, traced_metrics
from .tracer import Tracer, install, uninstall

QUERIES_PER_VENUE = 128
PACKETS = 6
LANES = 64
VENUES = ("lab", "lobby")
SETUP_REPEATS = 5


def make_inputs(seed: int):
    """Per venue: ``(scenario, pieces, [request], [truth site])``."""
    from repro.core import NomLocLocalizer, NomLocSystem, SystemConfig
    from repro.environment import get_scenario
    from repro.serving import LocalizationRequest

    inputs = {}
    for venue in VENUES:
        scenario = get_scenario(venue)
        system = NomLocSystem(scenario, SystemConfig(packets_per_link=PACKETS))
        requests, truths = [], []
        for i in range(QUERIES_PER_VENUE):
            site = scenario.test_sites[i % len(scenario.test_sites)]
            rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
            anchors = tuple(system.gather_anchors(site, rng))
            requests.append(LocalizationRequest(anchors, query_id=f"{venue}-{i}"))
            truths.append(site)
        pieces = len(NomLocLocalizer(scenario.plan.boundary).pieces)
        inputs[venue] = (scenario, pieces, requests, truths)
    return inputs


def _build_services(inputs):
    """Both serving modes for both venues, warmed on two queries each."""
    from repro.serving import LocalizationService, ServingConfig

    started = time.perf_counter()
    services = {}
    for venue, (scenario, _pieces, requests, _truths) in inputs.items():
        batched = LocalizationService(
            scenario.plan.boundary,
            config=ServingConfig(max_workers=0, lp_batch=LANES),
        )
        single = LocalizationService(
            scenario.plan.boundary,
            config=ServingConfig(max_workers=0, lp_batch=0),
        )
        batched.batch(requests[:2])
        for request in requests[:2]:
            single.locate_request(request)
        services[venue] = (batched, single)
    return services, time.perf_counter() - started


def _close(services) -> None:
    for batched, single in services.values():
        batched.close()
        single.close()


class _Phases:
    """Runs the two phases, counting fixes and calls, gating answers."""

    def __init__(self, inputs, services, outcome: Outcome, reference) -> None:
        self.inputs = inputs
        self.services = services
        self.outcome = outcome
        self.reference = reference  # venue -> first batched answers
        # Per pass over the whole input (both venues): fixes per second,
        # and the single-query latency percentiles in ms, at reference
        # machine speed.
        self.batched_rates: list[float] = []
        self.single_rates: list[float] = []
        self.single_p50: list[float] = []
        self.single_p95: list[float] = []
        self.batched_fixes = self.single_fixes = 0
        self.batched_s = self.single_s = 0.0
        self.batch_calls = self.chunks = self.solve_calls = 0
        self.scale = SpeedScale()

    def batched(self, seconds: float) -> None:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            pass_started, fixes = time.perf_counter(), 0
            for venue, (_scenario, _pieces, requests, _truths) in self.inputs.items():
                answers = self.services[venue][0].batch(requests)
                self.batch_calls += 1
                self.chunks += -(-len(requests) // LANES)
                self._check(venue, answers, "batched")
                fixes += len(answers)
            rate = fixes / (time.perf_counter() - pass_started)
            self.batched_rates.append(rate * self.scale.window())
            self.batched_fixes += fixes
        self.batched_s += time.perf_counter() - started

    def single(self, seconds: float) -> None:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            pass_started, latencies = time.perf_counter(), []
            for venue, (_scenario, pieces, requests, _truths) in self.inputs.items():
                service = self.services[venue][1]
                answers = []
                for request in requests:
                    t0 = time.perf_counter()
                    answers.append(service.locate_request(request))
                    latencies.append((time.perf_counter() - t0) * 1e3)
                self.solve_calls += pieces * len(requests)
                self._check(venue, answers, "single")
            rate = len(latencies) / (time.perf_counter() - pass_started)
            factor = self.scale.window()
            self.single_rates.append(rate * factor)
            self.single_p50.append(percentile(latencies, 50) / factor)
            self.single_p95.append(percentile(latencies, 95) / factor)
            self.single_fixes += len(latencies)
        self.single_s += time.perf_counter() - started

    def _check(self, venue: str, answers, phase: str) -> None:
        """Count the answers; degraded ones and ones that differ from the
        batched answer to the same query are failed operations."""
        reference = self.reference.setdefault(venue, answers)
        degraded = sum(a.degraded for a in answers)
        mismatched = sum(
            1 for a, r in zip(answers, reference)
            if not (a.degraded or r.degraded)
            and (a.position.x, a.position.y) != (r.position.x, r.position.y)
        )
        self.outcome.count(phase, len(answers), degraded + mismatched)
        self.outcome.gate(
            mismatched == 0,
            f"{venue}: {mismatched} {phase} answers differ from the "
            "batched answers to the same queries",
        )


def _error_m(inputs, reference) -> float:
    """Mean over venues of the median error against the truth sites."""
    medians = [
        median(a.position.distance_to(t) for a, t in zip(reference[venue], truths))
        for venue, (_scenario, _pieces, _requests, truths) in inputs.items()
    ]
    return sum(medians) / len(medians)


def run(seed: int, seconds: float, trace: bool) -> Report:
    outcome = Outcome()
    inputs = make_inputs(seed)
    services, setup_s = median_setup(
        lambda: _build_services(inputs), _close, SETUP_REPEATS
    )
    try:
        reference: dict = {}
        phases = _Phases(inputs, services, outcome, reference)
        if not trace:
            phases.batched(seconds / 2)
            phases.single(seconds / 2)
            batched_rate = median(phases.batched_rates)
            single_rate = median(phases.single_rates)
            metrics = {
                "setup_s": setup_s,
                "fixes_per_s": batched_rate,
                "p50_ms": median(phases.single_p50),
                "tail_ms": median(phases.single_p95),
                "error_m": _error_m(inputs, reference),
            }
            return Report(outcome, metrics, [
                f"batch_fixes_per_s {batched_rate:.1f} 1/s "
                f"({phases.batched_fixes} fixes)",
                f"single_fixes_per_s {single_rate:.1f} 1/s "
                f"({phases.single_fixes} fixes; p50 {metrics['p50_ms']:.3f} ms,"
                f" p95 {metrics['tail_ms']:.3f} ms)",
                f"median_error_m {metrics['error_m']:.4f} m "
                "(mean of the lab and lobby medians)",
                f"as measured: batched {phases.batched_fixes / phases.batched_s:.1f}"
                f" 1/s, single {phases.single_fixes / phases.single_s:.1f} 1/s;"
                f" machine speed factor median {median(phases.scale.factors):.3f}",
            ])
        # Traced run: both phases untraced, then both traced; per-layer
        # numbers come from the traced half, the rate ratio is the
        # tracing overhead.
        phases.batched(seconds / 4)
        phases.single(seconds / 4)
        traced = _Phases(inputs, services, outcome, reference)
        tracer = Tracer()
        undo = install(tracer, serving_points())
        tracer.enabled = True
        try:
            traced.batched(seconds / 4)
            traced.single(seconds / 4)
        finally:
            tracer.enabled = False
            uninstall(undo)
        hits = misses = 0
        for pair in services.values():
            for service in pair:
                stats = service.bisector_cache.stats()
                hits, misses = hits + stats.hits, misses + stats.misses
        fixes = traced.batched_fixes + traced.single_fixes
        metrics, lines = traced_metrics(
            outcome,
            tracer.spans,
            traced.batched_s + traced.single_s,
            fixes,
            {
                "serving.bisector_hit_rate": hits / max(1, hits + misses),
                "serving.degraded": float(outcome.failed),
                "obs.trace_overhead_frac": (
                    median(phases.batched_rates) / median(traced.batched_rates)
                    + median(phases.single_rates) / median(traced.single_rates)
                ) / 2 - 1.0,
            },
            {
                "serving.batch": traced.batch_calls,
                "localizer.assemble_batch": traced.chunks,
                "localizer.locate_batch": traced.chunks,
                "serving.locate_request": traced.single_fixes,
                "localizer.assemble": traced.single_fixes,
                "localizer.solve": traced.solve_calls,
                "localizer.merge": fixes,
                "localizer.locate": 0,
            },
        )
        return Report(outcome, metrics, lines, tracer.spans)
    finally:
        _close(services)
