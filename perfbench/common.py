"""Shared pieces of the workloads: outcome accounting and statistics."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Latency (ms) recorded for an operation that failed or was refused:
#: it misses every latency limit, so it sorts above every real sample,
#: and stays a finite number in the JSON result.
MISSED = 1e9

#: Scratch space for databases, inside the checkout; removed after a run.
WORK_ROOT = Path(".perfbench_work")
#: Where traced runs leave their spans (JSON lines), inside the checkout.
SPANS_ROOT = Path(".perfbench_spans")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


median = statistics.median


@dataclass
class Outcome:
    """Attempted / failed operations and correctness of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    phases: dict[str, list[int]] = field(default_factory=dict)

    def count(self, phase: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        entry = self.phases.setdefault(phase, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    def gate(self, ok: bool, message: str) -> None:
        """A correctness gate: a failure fails the run (reported once)."""
        if not ok and message not in self.problems:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def report_lines(self) -> list[str]:
        lines = [
            f"phase {name}: attempted {a}, succeeded {a - f}, failed {f}"
            for name, (a, f) in self.phases.items()
        ]
        lines += [f"GATE FAILED: {p}" for p in self.problems]
        return lines


def work_dir(workload: str) -> Path:
    """A fresh scratch directory for one run (removed by :func:`cleanup`)."""
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


#: Seconds :func:`kernel_seconds` takes on the reference machine (the
#: 2-vCPU VM described in ``record.json``).
REFERENCE_KERNEL_S = 0.00175


def kernel_seconds() -> float:
    """Time a fixed mix of interpreter work and small NumPy calls.

    The machine the benchmark shares runs other jobs, and its speed
    drifts by a fifth or more over tens of seconds.  Timing this kernel
    between windows of the workload measures that drift alongside the
    workload, so every timing can be scaled to the reference speed.
    Returns the median of three runs.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0.0
        table = {}
        for i in range(3000):
            acc += (i * 0.5) ** 0.5
            table[i & 63] = acc
        a = np.arange(64.0)
        for _ in range(150):
            a = np.abs(np.fft.ifft(a * 1.0001)).real + 1.0
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class SpeedScale:
    """Machine speed, sampled between the windows of a workload.

    :meth:`window` returns the factor for the window that just ended:
    its kernel time (mean of the samples before and after it) over the
    reference kernel time.  A measured rate times the factor, or a
    measured duration divided by it, is the value at reference speed.
    ``probe`` times the kernel; by default in this process, or in the
    process that does the work when that is another one.
    """

    def __init__(self, probe=kernel_seconds) -> None:
        self.probe = probe
        self.last = probe()
        self.factors: list[float] = []

    def window(self) -> float:
        now = self.probe()
        factor = (self.last + now) / 2.0 / REFERENCE_KERNEL_S
        self.last = now
        self.factors.append(factor)
        return factor


def median_setup(build, close, repeats: int):
    """Set up ``repeats`` times; keep the last, close the others.

    ``build`` returns ``(system, seconds)``.  Returns the kept system and
    the median set-up time at reference speed.
    """
    scale = SpeedScale()
    times = []
    kept = None
    for _ in range(repeats):
        if kept is not None:
            close(kept)
        kept, seconds = build()
        times.append(seconds / scale.window())
    return kept, statistics.median(times)


@dataclass
class Report:
    """What one workload run hands back to ``run.py``."""

    outcome: Outcome
    metrics: dict[str, float]
    lines: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)  # traced runs only
