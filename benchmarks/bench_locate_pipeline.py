"""PIPELINE — the batched locate pipeline: stage split + speedup floor.

The batched pipeline stacks the relaxation and centre LPs (with a
crash-basis Phase-I start) and runs geometry winner-only; constraint
assembly runs the scalar builder per query and stacks its matrices once,
and regions clip per lane through the scalar clipper.  This bench pins
the win three ways:

* **speedup floor** — the serving layer's ``cached-batched`` mode
  (``max_workers=0, lp_batch=QUERIES``: exactly the batched pipeline, no
  worker processes) must sustain **>= 1.5x** the QPS the PR-7 ledger
  ``results/BENCH_serving_throughput.json`` recorded on the identical
  workload (frozen below as :data:`PR7_BATCHED_QPS` — the live ledger
  file is rewritten by every bench run, so the floor pins the numbers
  this PR was accepted against);
* **bit-exactness** — ``locate_batch`` answers bit-identically to the
  scalar ``locate`` per query, for both the default CENTROID centring and
  the LP-heavy CHEBYSHEV method (the stacked Chebyshev path);
* **stage split** — an untimed instrumented pass records where batch
  wall-time goes (constraint assembly / stacked LPs / geometry / merge),
  so future regressions name their stage instead of just moving a total.

Results persist to ``results/PIPELINE.txt`` and the machine-readable
ledger ``results/BENCH_locate_pipeline.json`` that the CI regression gate
(``benchmarks/check_regression.py``) diffs against: ``qps`` floors,
``p50`` ceilings, and the ``bit_exact`` flags must never flip false.
"""

import time

import numpy as np

from repro.core import (
    LocalizerConfig,
    NomLocLocalizer,
    NomLocSystem,
    SystemConfig,
)
from repro.core.center import CenterMethod
from repro.environment import get_scenario
from repro.eval import format_table
from repro.obs import capture
from repro.serving import LocalizationService, ServingConfig

from conftest import run_once

QUERIES = 64
PACKETS = 6
REPS = 3
SCENARIOS = ("lab", "lobby")
SPEEDUP_FLOOR = 1.5

#: ``cached-batched`` QPS from the committed PR-7 serving ledger
#: (``results/BENCH_serving_throughput.json`` as of the commit before the
#: vectorized pipeline landed).  Frozen here because the live file is
#: overwritten whenever the serving bench re-runs.
PR7_BATCHED_QPS = {"lab": 1213.7, "lobby": 630.9}
CENTER_METHODS = (CenterMethod.CENTROID, CenterMethod.CHEBYSHEV)
STAGES = (
    "constraints.build_batch",
    "lp.solve_batch",
    "geometry.batch",
    "merge",
)


def _gather_queries(scenario_name: str):
    """The exact workload of bench_serving_throughput (same seeds)."""
    scenario = get_scenario(scenario_name)
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=PACKETS))
    sets = []
    for i in range(QUERIES):
        site = scenario.test_sites[i % len(scenario.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([7, i]))
        sets.append(tuple(system.gather_anchors(site, rng)))
    return scenario, sets


def _time_batched_serving(scenario, anchor_sets):
    """Best-of-REPS QPS of the warm cached-batched serving mode."""
    config = ServingConfig(max_workers=0, lp_batch=QUERIES)
    svc = LocalizationService(scenario.plan.boundary, config=config)
    try:
        svc.batch(anchor_sets[:2])  # warm topology + bisector caches
        best = float("inf")
        for _ in range(REPS):
            started = time.perf_counter()
            responses = svc.batch(anchor_sets)
            best = min(best, time.perf_counter() - started)
        snap = svc.metrics_snapshot()
        return {
            "responses": responses,
            "qps": len(anchor_sets) / best,
            "p50_ms": snap["latency_p50_s"] * 1e3,
        }
    finally:
        svc.close()


def _bit_exact(scenario, anchor_sets, method):
    """locate_batch vs scalar locate, winner regions included."""
    localizer = NomLocLocalizer(
        scenario.plan.boundary, LocalizerConfig(center_method=method)
    ).warm()
    batched = localizer.locate_batch(list(anchor_sets))
    for anchors, est in zip(anchor_sets, batched):
        scalar = localizer.locate(anchors)
        if (
            scalar.position != est.position
            or scalar.relaxation_cost != est.relaxation_cost
            or scalar.num_constraints != est.num_constraints
        ):
            return False
        if (scalar.region is None) != (est.region is None):
            return False
        if scalar.region is not None and [
            (p.x, p.y) for p in scalar.region.vertices
        ] != [(p.x, p.y) for p in est.region.vertices]:
            return False
    return True


def _stage_split_ms(scenario, anchor_sets):
    """Per-stage wall time of one instrumented locate_batch pass."""
    localizer = NomLocLocalizer(scenario.plan.boundary).warm()
    localizer.locate_batch(list(anchor_sets[:2]))  # warm, untraced
    with capture() as tracer:
        localizer.locate_batch(list(anchor_sets))
    totals: dict[str, float] = {}
    for span in tracer.finished():
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
    return {name: totals.get(name, 0.0) * 1e3 for name in STAGES}


def _pipeline_comparison():
    results = {}
    for scenario_name in SCENARIOS:
        scenario, anchor_sets = _gather_queries(scenario_name)
        timing = _time_batched_serving(scenario, anchor_sets)
        results[scenario_name] = {
            "qps": timing["qps"],
            "p50_ms": timing["p50_ms"],
            "responses": timing["responses"],
            "stage_ms": _stage_split_ms(scenario, anchor_sets),
            "bit_exact": {
                method.name.lower(): _bit_exact(scenario, anchor_sets, method)
                for method in CENTER_METHODS
            },
        }
    return results


def test_locate_pipeline(benchmark, save_result, save_json):
    results = run_once(benchmark, _pipeline_comparison)

    rows = []
    for scenario_name, r in results.items():
        # Every centring method answers bit-identically to the scalar path.
        for method, ok in r["bit_exact"].items():
            assert ok, f"{scenario_name}/{method}: batch diverged from scalar"
        # The vectorized pipeline must beat the PR-7 batched serving path
        # by the floor, on the identical workload and serving config.
        base_qps = PR7_BATCHED_QPS[scenario_name]
        speedup = r["qps"] / base_qps
        assert speedup >= SPEEDUP_FLOOR, (
            f"{scenario_name}: batched pipeline at {r['qps']:.1f} q/s is "
            f"only {speedup:.2f}x the PR-7 baseline {base_qps:.1f} q/s "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
        stage = r["stage_ms"]
        rows.append(
            [
                scenario_name,
                round(r["qps"], 1),
                round(r["p50_ms"], 2),
                round(speedup, 2),
                round(stage["constraints.build_batch"], 2),
                round(stage["lp.solve_batch"], 2),
                round(stage["geometry.batch"], 2),
                round(stage["merge"], 2),
            ]
        )

    table = format_table(
        [
            "scenario",
            "qps",
            "p50(ms)",
            "vs-pr7",
            "assemble(ms)",
            "lp(ms)",
            "geometry(ms)",
            "merge(ms)",
        ],
        rows,
    )
    save_result("PIPELINE", table)
    save_json(
        "locate_pipeline",
        {
            scenario_name: {
                "qps": r["qps"],
                "p50_ms": r["p50_ms"],
                "speedup_vs_pr7": r["qps"] / PR7_BATCHED_QPS[scenario_name],
                "bit_exact": r["bit_exact"],
                "stage_ms": {
                    name.replace(".", "_"): ms
                    for name, ms in r["stage_ms"].items()
                },
            }
            for scenario_name, r in results.items()
        },
    )
    print()
    print(table)
