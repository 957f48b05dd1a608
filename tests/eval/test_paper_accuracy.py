"""Paper-accuracy regression: the Fig. 8-10 numbers of EXPERIMENTS.md.

The experiment pipeline is deterministic per seed, so the default
:class:`~repro.eval.ExperimentConfig` campaigns are pinned two ways:

* **frozen errors** — ``tests/core/golden/paper_accuracy.json`` holds, as
  ``float.hex``, the per-site mean errors behind Fig. 9 and Fig. 10 and
  the error statistics behind Fig. 8, for the lab and the lobby, static
  and nomadic, ER = 0-3 m.  A change to the measurement or solve path
  that moves a single site's error by one bit fails here;
* **shape claims** — the orderings EXPERIMENTS.md draws from those
  numbers, asserted with the tolerances stated below and independently
  of the frozen file, so a deliberate regeneration cannot quietly give
  up the paper's result.

Regenerate the frozen file only when a change is meant to move answers::

    PYTHONPATH=src python -m tests.eval.test_paper_accuracy --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.eval import (
    DEFAULT,
    fig8_slv,
    fig9_error_cdf,
    fig10_position_error,
)

GOLDEN_PATH = Path(__file__).parents[1] / "core/golden/paper_accuracy.json"
VENUES = ("lab", "lobby")
ERROR_RANGES = (0.0, 1.0, 2.0, 3.0)

#: Nomadic must beat static by at least this much, on mean and p90 (m).
NOMADIC_MARGIN_M = 0.25
#: The lobby's relative SLV cut must exceed the lab's by this much.
SLV_CUT_MARGIN = 0.05
#: "ER <= 2 m costs <= 0.1 m" (EXPERIMENTS.md, Fig. 10).
SMALL_ER_M = 2.0
SMALL_ER_COST_M = 0.1
#: EXPERIMENTS.md rounds its figures to two or three decimals.
REPORTED_TOL = 0.005

#: The figures EXPERIMENTS.md quotes: (mean, p90) per deployment,
#: (static, nomadic) SLV, and Fig. 10 means at ER = 0/1/2/3 m.
REPORTED = {
    "lab": {
        "static": (1.95, 3.50),
        "nomadic": (1.28, 1.97),
        "slv": (1.09, 0.29),
        "fig10": (1.276, 1.364, 1.360, 1.693),
    },
    "lobby": {
        "static": (3.73, 6.91),
        "nomadic": (3.10, 4.64),
        "slv": (5.34, 0.95),
        "fig10": (3.104, 3.088, 3.040, 3.159),
    },
}


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def build_record() -> dict:
    """Every frozen number, computed at the default experiment config."""
    fig8 = fig8_slv(DEFAULT, VENUES)
    record = {"config": asdict(DEFAULT), "fig8": {}, "fig9": {}, "fig10": {}}
    for venue in VENUES:
        record["fig8"][venue] = {
            arm: {
                k: v.hex() if isinstance(v, float) else v
                for k, v in asdict(stats).items()
            }
            for arm, stats in fig8.stats[venue].items()
        }
        fig9 = fig9_error_cdf(venue, DEFAULT)
        record["fig9"][venue] = {
            "static": _hexes(fig9.static_cdf.samples),
            "nomadic": _hexes(fig9.nomadic_cdf.samples),
        }
        fig10 = fig10_position_error(venue, DEFAULT, ERROR_RANGES)
        record["fig10"][venue] = {
            str(er): _hexes(fig10.cdfs[er].samples) for er in ERROR_RANGES
        }
    return record


@pytest.fixture(scope="module")
def measured() -> dict:
    return build_record()


@pytest.fixture(scope="module")
def frozen() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _floats(hexes) -> list[float]:
    return [float.fromhex(h) for h in hexes]


def _mean(hexes) -> float:
    values = _floats(hexes)
    return sum(values) / len(values)


def _p90(hexes) -> float:
    return float(np.percentile(_floats(hexes), 90))


class TestFrozenErrors:
    def test_config_is_the_default(self, frozen):
        assert frozen["config"] == asdict(DEFAULT)

    @pytest.mark.parametrize("figure", ["fig8", "fig9", "fig10"])
    def test_errors_match(self, measured, frozen, figure):
        for venue in VENUES:
            assert measured[figure][venue] == frozen[figure][venue], venue


class TestShapeClaims:
    @pytest.mark.parametrize("venue", VENUES)
    def test_nomadic_beats_static_on_mean_and_p90(self, measured, venue):
        fig9 = measured["fig9"][venue]
        for stat in (_mean, _p90):
            static, nomadic = stat(fig9["static"]), stat(fig9["nomadic"])
            assert nomadic <= static - NOMADIC_MARGIN_M, (stat.__name__, venue)

    def test_lobby_slv_cut_exceeds_lab(self, measured):
        cuts = {}
        for venue in VENUES:
            fig8 = measured["fig8"][venue]
            static = float.fromhex(fig8["static"]["slv"])
            nomadic = float.fromhex(fig8["nomadic"]["slv"])
            assert nomadic < static, venue
            cuts[venue] = (static - nomadic, 1.0 - nomadic / static)
        assert cuts["lobby"][0] > cuts["lab"][0]
        assert cuts["lobby"][1] >= cuts["lab"][1] + SLV_CUT_MARGIN

    @pytest.mark.parametrize("venue", VENUES)
    def test_small_position_error_is_cheap(self, measured, venue):
        fig10 = measured["fig10"][venue]
        base = _mean(fig10["0.0"])
        for er in ERROR_RANGES:
            if er <= SMALL_ER_M:
                assert _mean(fig10[str(er)]) - base <= SMALL_ER_COST_M, er

    @pytest.mark.parametrize("venue", VENUES)
    def test_reported_figures(self, measured, venue):
        want = REPORTED[venue]
        fig9 = measured["fig9"][venue]
        for arm in ("static", "nomadic"):
            got = (_mean(fig9[arm]), _p90(fig9[arm]))
            assert got == pytest.approx(want[arm], abs=REPORTED_TOL), arm
        slv = tuple(
            float.fromhex(measured["fig8"][venue][arm]["slv"])
            for arm in ("static", "nomadic")
        )
        assert slv == pytest.approx(want["slv"], abs=REPORTED_TOL)
        fig10 = measured["fig10"][venue]
        means = tuple(_mean(fig10[str(er)]) for er in ERROR_RANGES)
        assert means == pytest.approx(want["fig10"], abs=REPORTED_TOL)


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(
            "usage: python -m tests.eval.test_paper_accuracy --write",
            file=sys.stderr,
        )
        return 2
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(build_record(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
