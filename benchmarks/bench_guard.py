"""GUARD — link-quality gating: bit-exactness + accuracy under corruption.

Two claims of the ``repro.guard`` subsystem, benchmarked:

* **Zero faults** — a :class:`repro.guard.GuardedSystem` composed with an
  empty :class:`repro.guard.LinkFaultInjector` answers *bit-identically*
  to the plain :class:`repro.core.NomLocSystem` pipeline on every query
  (the gate never perturbs clean traffic: a clean verdict averages the
  row maxima with ``repro.core.pdp.packet_mean``, the accumulation
  ``estimate_pdp`` uses).
* **Corruption drill** — with every link hit by an oscillator phase
  smear at 20% probability per query, the gating-ON arm's median error
  beats the gating-OFF arm.  The OFF arm trusts the smeared links'
  max-tap PDP, which a phase smear biases ~10 dB low; the ON arm
  detects the dispersed CIR energy and salvages each smeared link from
  its total energy, recalibrated against the clean links of the same
  query.  Both arms see byte-identical corrupted measurements (the
  injector is a pure function of seed, link name, and call index).

Median errors per arm and the zero-fault check are persisted to
``benchmarks/results/BENCH_guard.json`` (and ``GUARD.txt``).
"""

import numpy as np

from repro.core import NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.eval import format_table
from repro.guard import (
    GuardedSystem,
    InsufficientLinksError,
    LinkFaultInjector,
    LinkFaultPlan,
)

from conftest import run_once

PACKETS = 8
REPETITIONS = 5
CORRUPTION_RATE = 0.2
FAULT_SEED = 11


def _queries(scenario):
    """(truth, rng) pairs: every test site, REPETITIONS seeds each."""
    out = []
    for site_idx, site in enumerate(scenario.test_sites):
        for rep in range(REPETITIONS):
            out.append((site, np.random.SeedSequence([3, site_idx, rep])))
    return out


def _zero_fault_check(scenario, queries):
    """Gated-with-empty-plan vs plain pipeline, position for position."""
    plain = NomLocSystem(scenario, SystemConfig(packets_per_link=PACKETS))
    guarded = GuardedSystem(
        NomLocSystem(scenario, SystemConfig(packets_per_link=PACKETS)),
        injector=LinkFaultInjector(),
    )
    mismatches = 0
    for truth, seed in queries:
        reference = plain.locate(truth, np.random.default_rng(seed))
        gated = guarded.locate(truth, np.random.default_rng(seed))
        if (
            gated.position.x != reference.position.x
            or gated.position.y != reference.position.y
            or gated.confidence != 1.0
            or gated.degradation_reasons != ()
        ):
            mismatches += 1
    return {"queries": len(queries), "mismatches": mismatches}


def _corruption_arm(scenario, queries, gate):
    """One drill arm; both arms replay identical corrupted measurements."""
    xmin, ymin, xmax, ymax = scenario.plan.boundary.bounding_box()
    diag = float(np.hypot(xmax - xmin, ymax - ymin))
    guarded = GuardedSystem(
        NomLocSystem(scenario, SystemConfig(packets_per_link=PACKETS)),
        injector=LinkFaultInjector(
            LinkFaultPlan.phase_offset(CORRUPTION_RATE), seed=FAULT_SEED
        ),
        gate=gate,
    )
    errors = []
    unanswered = 0
    degraded = 0
    rejected = 0
    for truth, seed in queries:
        try:
            estimate, result = guarded.locate_with_result(
                truth, np.random.default_rng(seed)
            )
        except InsufficientLinksError:
            # Refusing to answer is scored as the worst possible answer,
            # so the gate cannot win by abstaining.
            unanswered += 1
            errors.append(diag)
            continue
        errors.append(float(estimate.error_to(truth)))
        degraded += len(result.degraded)
        rejected += len(result.rejected)
    return {
        "median_m": float(np.median(errors)),
        "mean_m": float(np.mean(errors)),
        "p90_m": float(np.percentile(errors, 90)),
        "unanswered": unanswered,
        "degraded_links": degraded,
        "rejected_links": rejected,
    }


def _guard_campaign():
    scenario = get_scenario("lab")
    queries = _queries(scenario)
    zero_fault = _zero_fault_check(scenario, queries)
    gating_on = _corruption_arm(scenario, queries, gate=True)
    gating_off = _corruption_arm(scenario, queries, gate=False)
    return zero_fault, gating_on, gating_off, len(queries)


def test_guard_bit_exactness_and_gating_wins(
    benchmark, save_result, save_json
):
    zero_fault, on, off, n_queries = run_once(benchmark, _guard_campaign)

    # Invariant (a): the gate never changes a bit of clean traffic.
    assert zero_fault["mismatches"] == 0, (
        f"{zero_fault['mismatches']}/{zero_fault['queries']} zero-fault "
        "queries diverged from the ungated pipeline"
    )

    # Invariant (b): under corruption, gating must pay for itself.
    assert on["median_m"] < off["median_m"], (
        f"gating-ON median {on['median_m']:.2f} m not better than "
        f"gating-OFF {off['median_m']:.2f} m at "
        f"{CORRUPTION_RATE:.0%} corruption"
    )
    # The gate must actually have gated something to claim the win.
    assert on["degraded_links"] > 0

    rows = [
        ["zero-fault", "-", "-", "-", f"0/{zero_fault['queries']} mismatch"],
        [
            "gating ON",
            round(on["median_m"], 2),
            round(on["mean_m"], 2),
            round(on["p90_m"], 2),
            f"{on['degraded_links']} links salvaged",
        ],
        [
            "gating OFF",
            round(off["median_m"], 2),
            round(off["mean_m"], 2),
            round(off["p90_m"], 2),
            "corrupted links trusted",
        ],
    ]
    table = format_table(
        ["arm", "median(m)", "mean(m)", "p90(m)", "notes"], rows
    )
    save_result("GUARD", table)
    save_json(
        "guard",
        {
            "queries": n_queries,
            "packets_per_link": PACKETS,
            "zero_fault": {
                "bit_exact": zero_fault["mismatches"] == 0,
                "queries": zero_fault["queries"],
            },
            "corruption_drill": {
                "fault": f"phase-offset rate {CORRUPTION_RATE}",
                "gating_on": on,
                "gating_off": off,
                "median_improvement_m": off["median_m"] - on["median_m"],
            },
        },
    )
    print()
    print(table)
