"""Frozen event logs of the tracking drill's fixed stream.

``tests/core/golden/tracking_digests.json`` holds, per motion filter
(Kalman and particle), what ``repro track lab --packets 3`` produces:
the event-log digest and chain head, and every per-fix track error as
``float.hex``.  ``repro track`` serves every tick through
:meth:`~repro.serving.LocalizationService.batch`, so the stream pins
the serving layer's answers end to end; the errors tell the two
filters apart, since both emit the same zone events.

The stream is replayed with the default ``--lp-batch 0`` and with
``--lp-batch 2``, which cuts each three-object tick into one stacked
chunk of two and a one-request tail: both must reproduce the golden.

Regenerate deliberately, and only when a change is meant to move
answers::

    PYTHONPATH=src python -m tests.core.test_golden_tracking --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cli import _track_run, build_parser

GOLDEN_PATH = Path(__file__).parent / "golden" / "tracking_digests.json"
#: The CI recovery drill's plain run.
COMMAND = ["track", "lab", "--packets", "3"]
FILTERS = ("kalman", "particle")


def run_stream(filter_kind: str, lp_batch: int = 0) -> dict:
    """The drill's stream under one filter, frozen to plain data."""
    args = build_parser().parse_args(
        COMMAND + ["--filter", filter_kind, "--lp-batch", str(lp_batch)]
    )
    run = _track_run(args)
    return {
        "digest": run["digest"],
        "chain": run["chain"],
        "events": sum(run["manager"].event_log.counts().values()),
        "errors": [float(e).hex() for e in run["errors"]],
    }


def build_corpus() -> dict:
    return {
        "command": " ".join(["repro"] + COMMAND),
        "filters": {kind: run_stream(kind) for kind in FILTERS},
    }


@pytest.fixture(scope="module")
def corpus() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class TestTrackingGolden:
    def test_corpus_covers_both_filters(self, corpus):
        assert set(corpus["filters"]) == set(FILTERS)
        for frozen in corpus["filters"].values():
            assert frozen["events"] > 0
            assert len(frozen["errors"]) == 30  # 3 objects x 10 ticks

    def test_filters_are_told_apart(self, corpus):
        kalman, particle = (corpus["filters"][kind] for kind in FILTERS)
        assert kalman["errors"] != particle["errors"]

    @pytest.mark.parametrize("lp_batch", [0, 2])
    @pytest.mark.parametrize("filter_kind", FILTERS)
    def test_stream_matches(self, corpus, filter_kind, lp_batch):
        assert run_stream(filter_kind, lp_batch) == corpus["filters"][filter_kind]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(
            "usage: python -m tests.core.test_golden_tracking --write",
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
