"""The repository benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload locate-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` runs the same work half untraced and half with spans
recorded around each layer's public callables, and reports the
per-layer metrics.  Human-readable lines go to stdout first; the last
stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from ``src/`` of the current
directory; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
#: Workload name → module under ``perfbench``.
WORKLOADS = {
    "locate-batch": "wl_locate",
    "gateway-ingest": "wl_gateway",
    "track-durable": "wl_track",
    "paper-campaign": "wl_campaign",
}

#: End-to-end metric units (see BENCHMARK.json for what each workload
#: reports under each name).
E2E_UNITS = {
    "setup_s": "s",
    "fixes_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "error_m": "m",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program under test: {ROOT / 'src' / 'repro'} is "
            "missing (run from the root of a checkout)",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import SPANS_ROOT
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.tracer import dump

    started = time.perf_counter()
    workload = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    report = workload.run(args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    missing = set(units) - set(report.metrics)
    if missing:
        report.outcome.gate(False, f"metrics not measured: {sorted(missing)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"wall {time.perf_counter() - started:.2f} s")
    if report.spans:
        SPANS_ROOT.mkdir(exist_ok=True)
        path = SPANS_ROOT / f"{args.workload}-seed{args.seed}.jsonl"
        dump(report.spans, path)
        print(f"spans written to {path}")
    for line in report.lines + report.outcome.report_lines():
        print(line)
    for name, unit in units.items():
        print(f"metric {name} = {report.metrics.get(name, float('nan')):.6g} {unit}")
    print(json.dumps({
        "correct": report.outcome.correct,
        "attempted": report.outcome.attempted,
        "failed": report.outcome.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in report.metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
