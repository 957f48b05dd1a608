"""Frozen golden corpus for the localizer.

``tests/core/golden/<venue>.json`` holds, for the lab and lobby venues,
24 seeded ``gather_anchors`` queries and the localizer's answers to them
under every centre method, with and without per-anchor quality weights.
Floats are stored as ``float.hex`` so the comparison is exact.  Both
``locate`` and ``locate_batch`` must reproduce every stored record: the
position, the relaxation cost, the winning piece's row count and region
vertices, every piece's cost, and each losing piece's region and centre
(materialized from the lazy stand-ins on the batched path).

The corpus is an oracle that does not depend on any second implementation
in the tree: a refactor of the solver or the geometry is diffed against
answers frozen before it.  Regenerate deliberately, and only when a change
is meant to move answers::

    PYTHONPATH=src python -m tests.core.test_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    Anchor,
    CenterMethod,
    LocalizerConfig,
    NomLocLocalizer,
    NomLocSystem,
    SystemConfig,
)
from repro.environment import get_scenario
from repro.geometry import Point

GOLDEN_DIR = Path(__file__).parent / "golden"
VENUES = ("lab", "lobby")
METHODS = (CenterMethod.CENTROID, CenterMethod.CHEBYSHEV, CenterMethod.ANALYTIC)
WEIGHTINGS = ("ungated", "quality")
QUERIES = 24
PACKETS = 6
SEED = 1402


def _hex(x: float) -> str:
    return float(x).hex()


def _point(p: Point) -> list[str]:
    return [_hex(p.x), _hex(p.y)]


def _region(region) -> list[list[str]] | None:
    return None if region is None else [_point(v) for v in region.vertices]


def gather_inputs(venue: str) -> list[dict]:
    """The venue's seeded queries: truth site, anchors and quality weights."""
    scenario = get_scenario(venue)
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=PACKETS))
    sites = scenario.test_sites
    inputs = []
    for i in range(QUERIES):
        site = sites[i % len(sites)]
        rng = np.random.default_rng(np.random.SeedSequence([SEED, i]))
        anchors = system.gather_anchors(site, rng)
        # Per-anchor link-quality scores in (0, 1]: 1 - U[0, 1).
        qrng = np.random.default_rng(np.random.SeedSequence([SEED, i, 1]))
        quality = {a.name: 1.0 - float(qrng.random()) for a in anchors}
        inputs.append(
            {
                "seed": [SEED, i],
                "site": _point(site),
                "anchors": [
                    {
                        "name": a.name,
                        "x": _hex(a.position.x),
                        "y": _hex(a.position.y),
                        "pdp": _hex(a.pdp),
                        "nomadic": a.nomadic,
                    }
                    for a in anchors
                ],
                "quality": {name: _hex(q) for name, q in quality.items()},
            }
        )
    return inputs


def decode_query(entry: dict) -> tuple[list[Anchor], dict[str, float]]:
    anchors = [
        Anchor(
            a["name"],
            Point(float.fromhex(a["x"]), float.fromhex(a["y"])),
            float.fromhex(a["pdp"]),
            nomadic=a["nomadic"],
        )
        for a in entry["anchors"]
    ]
    quality = {name: float.fromhex(q) for name, q in entry["quality"].items()}
    return anchors, quality


def record(estimate, tolerance: float) -> dict:
    """The frozen view of one estimate (reads lazy losers' geometry)."""
    best = estimate.relaxation_cost
    return {
        "position": _point(estimate.position),
        "relaxation_cost": _hex(estimate.relaxation_cost),
        "num_constraints": estimate.num_constraints,
        "region": _region(estimate.region),
        "piece_costs": [_hex(s.cost) for s in estimate.pieces],
        "losers": [
            {
                "piece": s.piece_index,
                "region": _region(s.region),
                "center": _point(s.center),
            }
            for s in estimate.pieces
            if s.cost > best + tolerance
        ],
    }


def answer(venue: str, method: CenterMethod, inputs: list[dict], batched: bool):
    """Records for every query under one centre method and both weightings."""
    scenario = get_scenario(venue)
    localizer = NomLocLocalizer(
        scenario.plan.boundary, LocalizerConfig(center_method=method)
    )
    tol = localizer.config.cost_merge_tolerance
    decoded = [decode_query(entry) for entry in inputs]
    queries = [anchors for anchors, _ in decoded]
    out = {}
    for weighting in WEIGHTINGS:
        weights = [
            quality if weighting == "quality" else None for _, quality in decoded
        ]
        if batched:
            estimates = localizer.locate_batch(queries, quality_weights=weights)
        else:
            estimates = [
                localizer.locate(anchors, quality_weights=qw)
                for anchors, qw in zip(queries, weights)
            ]
        out[weighting] = [record(est, tol) for est in estimates]
    return out


def build_corpus(venue: str) -> dict:
    inputs = gather_inputs(venue)
    return {
        "venue": venue,
        "packets_per_link": PACKETS,
        "queries": inputs,
        "answers": {
            method.value: answer(venue, method, inputs, batched=False)
            for method in METHODS
        },
    }


def load_corpus(venue: str) -> dict:
    with open(GOLDEN_DIR / f"{venue}.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=VENUES)
def corpus(request):
    return load_corpus(request.param)


class TestGoldenCorpus:
    def test_corpus_covers_the_matrix(self, corpus):
        assert len(corpus["queries"]) == QUERIES
        assert set(corpus["answers"]) == {m.value for m in METHODS}
        for per_method in corpus["answers"].values():
            assert set(per_method) == set(WEIGHTINGS)
            for records in per_method.values():
                assert len(records) == QUERIES
        if corpus["venue"] == "lobby":
            # The two-piece venue must exercise losing pieces.
            losers = corpus["answers"]["centroid"]["ungated"]
            assert any(rec["losers"] for rec in losers)

    def test_gather_anchors_reproduces_inputs(self, corpus):
        assert gather_inputs(corpus["venue"]) == corpus["queries"]

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("batched", [False, True], ids=["locate", "batch"])
    def test_answers_match(self, corpus, method, batched):
        got = answer(corpus["venue"], method, corpus["queries"], batched)
        want = corpus["answers"][method.value]
        for weighting in WEIGHTINGS:
            for i, (g, w) in enumerate(zip(got[weighting], want[weighting])):
                assert g == w, f"{weighting} query {i}"


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: python -m tests.core.test_golden --write", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for venue in VENUES:
        path = GOLDEN_DIR / f"{venue}.json"
        with open(path, "w") as fh:
            json.dump(build_corpus(venue), fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
