"""Frozen guard verdicts under each measurement fault kind.

``tests/core/golden/guard_faults.json`` holds one seeded lab query per
:class:`~repro.guard.LinkFaultPlan` kind — subcarrier dropout, packet
loss, NaN burst, RSSI saturation, phase offset and outage — run through
the gated and the ungated guard arms.  Per link it stores the verdict's
status, quality, reasons and packet counts plus the ``pdp``/``energy``
estimates as ``float.hex``; per query, the located position and the
confidence.  The gate's accumulations and the ungated arm's estimators
are diffed against answers frozen before any refactor of the CSI → PDP
path.

Regenerate deliberately, and only when a change is meant to move
answers::

    PYTHONPATH=src python -m tests.core.test_golden_guard --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.guard import (
    GuardedSystem,
    LinkFaultInjector,
    LinkFaultPlan,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "guard_faults.json"
PACKETS = 12
TRACE_STEPS = 4
SITE = 1
SEED = 1717
#: Every fault targets every link; packet-level kinds hit each packet
#: and link-level kinds each link with this probability.
RATE = 0.5
PLANS = {
    "subcarrier_dropout": LinkFaultPlan.subcarrier_dropout(RATE),
    "packet_loss": LinkFaultPlan.packet_loss(RATE),
    "nan_burst": LinkFaultPlan.nan_burst(RATE),
    "rssi_saturation": LinkFaultPlan.rssi_saturation(RATE),
    "phase_offset": LinkFaultPlan.phase_offset(RATE),
    "outage": LinkFaultPlan.outage(RATE),
}
ARMS = {"gated": True, "ungated": False}


def _hex(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def run_case(kind: str, gate: bool) -> dict:
    """One seeded lab query under ``kind``'s plan, frozen to plain data."""
    scenario = get_scenario("lab")
    system = NomLocSystem(
        scenario,
        SystemConfig(packets_per_link=PACKETS, trace_steps=TRACE_STEPS),
    )
    guarded = GuardedSystem(
        system, injector=LinkFaultInjector(PLANS[kind], seed=SEED), gate=gate
    )
    estimate, result = guarded.locate_with_result(
        scenario.test_sites[SITE], np.random.default_rng(SEED)
    )
    return {
        "position": [_hex(estimate.position.x), _hex(estimate.position.y)],
        "confidence": _hex(estimate.confidence),
        "verdicts": [
            {
                "name": v.name,
                "status": v.status.value,
                "quality": _hex(v.quality),
                "reasons": list(v.reasons),
                "clean_packets": v.clean_packets,
                "expected_packets": v.expected_packets,
                "pdp": _hex(v.pdp),
                "energy": _hex(v.energy),
            }
            for v in result.verdicts
        ],
    }


def build_corpus() -> dict:
    return {
        kind: {arm: run_case(kind, gate) for arm, gate in ARMS.items()}
        for kind in PLANS
    }


@pytest.fixture(scope="module")
def corpus() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class TestGuardFaultGolden:
    def test_every_kind_trips_the_gate(self, corpus):
        assert set(corpus) == set(PLANS)
        for kind, arms in corpus.items():
            statuses = {v["status"] for v in arms["gated"]["verdicts"]}
            assert statuses != {"ok"}, kind

    @pytest.mark.parametrize("arm", sorted(ARMS))
    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_verdicts_match(self, corpus, kind, arm):
        assert run_case(kind, ARMS[arm]) == corpus[kind][arm]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(
            "usage: python -m tests.core.test_golden_guard --write",
            file=sys.stderr,
        )
        return 2
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(build_corpus(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
