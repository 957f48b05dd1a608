"""HOTPATH — measurement fast path: vectorized vs per-packet, parallel campaigns.

Three quality gates over the measurement path, enforced in CI's
benchmark smoke job:

* **synthesis speedup** — the vectorized ``CSISynthesizer.synthesize_batch``
  must beat the per-packet oracle loop (``tests/oracles.py``) by
  ``MIN_SYNTHESIS_SPEEDUP`` at the canonical 100 packets x 8 paths
  workload;
* **bit-exactness** — vectorized synthesis (CSI + RSSI), stacked PDP
  extraction, and process-parallel campaigns must all reproduce their
  per-packet/sequential references bit-for-bit;
* **ledger** — metrics are persisted both as the human table
  (``results/HOTPATH.txt``) and as machine-readable JSON
  (``results/BENCH_hotpath.json``).

The campaign parallel speedup is *reported*, not asserted: CI runners may
expose a single core, where process fan-out only pays overhead.
"""

import pathlib
import sys
import time

import numpy as np

from repro.channel import (
    SPEED_OF_LIGHT,
    CSISynthesizer,
    PathComponent,
    PathKind,
)
from repro.core import NomLocSystem, SystemConfig
from repro.core.pdp import estimate_pdp
from repro.environment import get_scenario
from repro.eval import format_table, run_campaign

from conftest import run_once

# The per-packet references live with the tests; make the repo root
# importable when pytest runs from inside benchmarks/.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests import oracles  # noqa: E402

PACKETS = 100
PATHS = 8
ROUNDS = 3
#: Vectorized synthesis must beat the per-packet oracle by this factor.
MIN_SYNTHESIS_SPEEDUP = 3.0

CAMPAIGN_SITES = 4
CAMPAIGN_REPETITIONS = 2
CAMPAIGN_PACKETS = 5
CAMPAIGN_WORKERS = 2
SEED = 42


def _make_paths(count: int = PATHS) -> tuple[PathComponent, ...]:
    """A deterministic direct-plus-reflections path set for one link."""
    lengths = [8.0 + 3.0 * i for i in range(count)]
    paths = [
        PathComponent(
            PathKind.DIRECT, lengths[0], lengths[0] / SPEED_OF_LIGHT, 0.0
        )
    ]
    for i in range(1, count):
        paths.append(
            PathComponent(
                PathKind.REFLECTED,
                lengths[i],
                lengths[i] / SPEED_OF_LIGHT,
                4.0 + 2.0 * i,
                bounces=1,
            )
        )
    return tuple(paths)


def _best_of(fn, rounds: int = ROUNDS):
    """Best-of-``rounds`` wall time (noise only ever slows a round down)."""
    elapsed = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - started)
    return elapsed, result


def _synthesis_comparison() -> dict:
    synthesizer = CSISynthesizer()
    paths = _make_paths()

    scalar_s, scalar_batch = _best_of(
        lambda: oracles.synthesize_batch_scalar(
            synthesizer, paths, PACKETS, np.random.default_rng(SEED)
        )
    )
    vector_s, vector_batch = _best_of(
        lambda: synthesizer.synthesize_batch(
            paths, PACKETS, np.random.default_rng(SEED)
        )
    )
    csi_identical = all(
        np.array_equal(s.csi, v.csi)
        for s, v in zip(scalar_batch, vector_batch)
    )
    rssi_identical = all(
        s.rssi_dbm == v.rssi_dbm
        for s, v in zip(scalar_batch, vector_batch)
    )
    return {
        "packets": PACKETS,
        "paths": PATHS,
        "scalar_s": scalar_s,
        "vectorized_s": vector_s,
        "speedup": scalar_s / vector_s,
        "csi_bit_identical": csi_identical,
        "rssi_bit_identical": rssi_identical,
        "measurements": vector_batch,
    }


def _pdp_comparison(measurements) -> dict:
    scalar_s, scalar_value = _best_of(
        lambda: oracles.estimate_pdp(measurements)
    )
    batch_s, batch_value = _best_of(lambda: estimate_pdp(measurements))
    return {
        "packets": len(measurements),
        "scalar_s": scalar_s,
        "batched_s": batch_s,
        "speedup": scalar_s / batch_s,
        "bit_identical": scalar_value == batch_value,
    }


def _campaign_comparison() -> dict:
    scenario = get_scenario("lab")
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=CAMPAIGN_PACKETS)
    )
    sites = scenario.test_sites[:CAMPAIGN_SITES]

    sequential_s, sequential = _best_of(
        lambda: run_campaign(
            system, sites, CAMPAIGN_REPETITIONS, SEED, "hotpath"
        ),
        rounds=2,
    )
    parallel_s, parallel = _best_of(
        lambda: run_campaign(
            system,
            sites,
            CAMPAIGN_REPETITIONS,
            SEED,
            "hotpath",
            workers=CAMPAIGN_WORKERS,
        ),
        rounds=2,
    )
    return {
        "sites": len(sites),
        "repetitions": CAMPAIGN_REPETITIONS,
        "workers": CAMPAIGN_WORKERS,
        "sequential_s": sequential_s,
        "parallel_s": parallel_s,
        "speedup": sequential_s / parallel_s,
        "bit_identical": sequential == parallel,
    }


def _hotpath_suite() -> dict:
    synthesis = _synthesis_comparison()
    pdp = _pdp_comparison(synthesis.pop("measurements"))
    campaign = _campaign_comparison()
    return {"synthesis": synthesis, "pdp": pdp, "campaign": campaign}


def test_hotpath(benchmark, save_result, save_json):
    r = run_once(benchmark, _hotpath_suite)
    synthesis, pdp, campaign = r["synthesis"], r["pdp"], r["campaign"]

    # Gate 1: the fast path computes the same floats, everywhere.
    assert synthesis["csi_bit_identical"], (
        "vectorized synthesize_batch diverged from the per-packet oracle CSI"
    )
    assert synthesis["rssi_bit_identical"], (
        "vectorized RSSI reporting diverged from the per-packet oracle"
    )
    assert pdp["bit_identical"], (
        "stacked PDP estimation diverged from the per-packet oracle"
    )
    assert campaign["bit_identical"], (
        "process-parallel campaign diverged from the sequential reference"
    )

    # Gate 2: vectorization actually pays at the canonical workload.
    assert synthesis["speedup"] >= MIN_SYNTHESIS_SPEEDUP, (
        f"vectorized synthesis only {synthesis['speedup']:.2f}x faster "
        f"than the per-packet oracle (floor {MIN_SYNTHESIS_SPEEDUP:.1f}x): "
        f"{synthesis['vectorized_s'] * 1e3:.2f} ms vs "
        f"{synthesis['scalar_s'] * 1e3:.2f} ms"
    )

    rows = [
        [
            "csi.synthesize",
            f"{PACKETS}p x {PATHS}paths",
            round(synthesis["scalar_s"] * 1e3, 3),
            round(synthesis["vectorized_s"] * 1e3, 3),
            round(synthesis["speedup"], 2),
            "yes",
        ],
        [
            "pdp.estimate",
            f"{pdp['packets']} packets",
            round(pdp["scalar_s"] * 1e3, 3),
            round(pdp["batched_s"] * 1e3, 3),
            round(pdp["speedup"], 2),
            "yes",
        ],
        [
            "eval.campaign",
            f"{campaign['sites']}s x {campaign['repetitions']}r, "
            f"{campaign['workers']}w",
            round(campaign["sequential_s"] * 1e3, 1),
            round(campaign["parallel_s"] * 1e3, 1),
            round(campaign["speedup"], 2),
            "yes",
        ],
    ]
    table = format_table(
        ["stage", "workload", "ref(ms)", "fast(ms)", "speedup", "bit-identical"],
        rows,
    )
    save_result("HOTPATH", table)
    save_json("hotpath", r)
    print()
    print(table)
