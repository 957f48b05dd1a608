"""TRACKING — streaming sessions: fleet scale, determinism, confidence.

Three claims of the ``repro.sessions`` subsystem, benchmarked:

* **Fleet scale** — a single :class:`repro.sessions.SessionManager`
  sustains >= 1000 concurrent tracked objects fed synthetic fix streams,
  and its update throughput stays above a conservative floor.  Two
  identical runs must produce byte-identical event logs (the zone FSMs
  and geofence rules are pure functions of the fix stream).
* **Worker-mode determinism** — a seeded multi-object walk served
  through a real :class:`repro.serving.LocalizationService` produces a
  byte-identical session event log whether the service runs inline or
  on process workers: the serving layer's bit-exactness contract carries
  through the whole tracking stack.
* **Confidence pays** — with 20% of fixes replaced by far-off
  zero-confidence positions (guard-flagged corruption), the
  confidence-modulated arm's median track error beats the
  confidence-blind arm on the *same* fix stream.

Results are persisted to ``benchmarks/results/BENCH_tracking.json``
(and ``TRACKING.txt``); the qps floor and both bit flags are gated by
``check_regression.py``.
"""

import time

import numpy as np

from repro.core import NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.eval import format_table
from repro.geometry import Point
from repro.serving import LocalizationService, ServingConfig
from repro.sessions import SessionConfig, SessionManager, ZoneMap
from repro.tracking import random_trajectory

from conftest import run_once

SEED = 5
PACKETS = 4
FLEET_OBJECTS = 1200
FLEET_TICKS = 20
FLEET_ZONE_GRID = (4, 5)
#: Conservative floor: the session layer must not become the bottleneck
#: of a serving stack whose solve path tops out far below this.
MIN_UPDATES_QPS = 2000.0
SERVICE_OBJECTS = 4
SERVICE_TICKS = 10
SERVICE_ZONE_GRID = (2, 3)
CORRUPTION_RATE = 0.2


# ----------------------------------------------------------------------
# Fleet-scale arm: synthetic fix streams, >= 1000 concurrent objects
# ----------------------------------------------------------------------

def _fleet_fixes(boundary):
    """Seeded bouncing walks for the whole fleet, precomputed.

    Returns ``(fixes[tick, obj, 2], confidence[tick, obj])`` so the
    timed section measures the session layer alone.
    """
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 1]))
    xmin, ymin, xmax, ymax = boundary.bounding_box()
    lo = np.array([xmin + 0.5, ymin + 0.5])
    hi = np.array([xmax - 0.5, ymax - 0.5])
    pos = rng.uniform(lo, hi, size=(FLEET_OBJECTS, 2))
    vel = rng.uniform(-1.0, 1.0, size=(FLEET_OBJECTS, 2))
    fixes = np.empty((FLEET_TICKS, FLEET_OBJECTS, 2))
    for tick in range(FLEET_TICKS):
        fixes[tick] = pos
        pos = pos + vel
        for dim in range(2):
            over = pos[:, dim] > hi[dim]
            under = pos[:, dim] < lo[dim]
            pos[over, dim] = 2 * hi[dim] - pos[over, dim]
            pos[under, dim] = 2 * lo[dim] - pos[under, dim]
            vel[over | under, dim] *= -1.0
    confidence = rng.uniform(0.3, 1.0, size=(FLEET_TICKS, FLEET_OBJECTS))
    return fixes, confidence


def _fleet_run(zones, fixes, confidence):
    """Feed the precomputed fleet once; returns (manager, elapsed_s)."""
    manager = SessionManager(
        zones, SessionConfig(idle_timeout_s=10.0 * FLEET_TICKS)
    )
    object_ids = [f"obj-{i:04d}" for i in range(FLEET_OBJECTS)]
    start = time.perf_counter()
    for tick in range(FLEET_TICKS):
        t_s = float(tick)
        tick_fixes = fixes[tick]
        tick_conf = confidence[tick]
        for i, object_id in enumerate(object_ids):
            manager.observe(
                object_id,
                t_s,
                Point(float(tick_fixes[i, 0]), float(tick_fixes[i, 1])),
                confidence=float(tick_conf[i]),
            )
    elapsed = time.perf_counter() - start
    return manager, elapsed


def _fleet_arm():
    boundary = get_scenario("lab").plan.boundary
    zones = ZoneMap.grid(boundary, *FLEET_ZONE_GRID)
    fixes, confidence = _fleet_fixes(boundary)
    manager, elapsed = _fleet_run(zones, fixes, confidence)
    repeat, _ = _fleet_run(zones, fixes, confidence)
    updates = manager.updates_total
    return {
        "objects": FLEET_OBJECTS,
        "ticks": FLEET_TICKS,
        "concurrent_sessions": len(manager),
        "updates": updates,
        "elapsed_s": round(elapsed, 4),
        "updates_qps": round(updates / elapsed, 1),
        "events": manager.event_log.counts(),
        "repeat_bit_identical": (
            manager.event_log.digest() == repeat.event_log.digest()
        ),
        "event_log_digest": manager.event_log.digest(),
    }


# ----------------------------------------------------------------------
# Service-driven arms: inline-vs-process determinism + confidence payoff
# ----------------------------------------------------------------------

def _service_fix_stream(workers):
    """Seeded walk served through a real service; per-tick fix rows.

    Returns ``[[(object_id, fix, confidence, truth), ...] per tick]``.
    """
    scenario = get_scenario("lab")
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=PACKETS)
    )
    trajectories = [
        random_trajectory(
            scenario.plan,
            np.random.default_rng(np.random.SeedSequence([SEED, 1000 + i])),
            num_waypoints=4,
        )
        for i in range(SERVICE_OBJECTS)
    ]
    service = LocalizationService(
        scenario.plan.boundary,
        config=ServingConfig(max_workers=workers, lp_batch=3),
    )
    ticks = []
    try:
        for tick in range(SERVICE_TICKS):
            truths = []
            batch = []
            for i, traj in enumerate(trajectories):
                truth = traj.positions[min(tick, len(traj) - 1)]
                truths.append(truth)
                rng = np.random.default_rng(
                    np.random.SeedSequence([SEED, tick, i])
                )
                batch.append(tuple(system.gather_anchors(truth, rng)))
            responses = service.batch(batch)
            ticks.append(
                [
                    (f"obj-{i}", resp.position, resp.confidence, truths[i])
                    for i, resp in enumerate(responses)
                ]
            )
    finally:
        service.close()
    return ticks


def _session_replay(fix_ticks, modulate=True, corrupt=0.0):
    """Feed one fix stream into a fresh manager; (digest, errors)."""
    boundary = get_scenario("lab").plan.boundary
    zones = ZoneMap.grid(boundary, *SERVICE_ZONE_GRID)
    manager = SessionManager(
        zones, SessionConfig(modulate_noise=modulate)
    )
    errors = []
    for tick, rows in enumerate(fix_ticks):
        for i, (object_id, fix, conf, truth) in enumerate(rows):
            crng = np.random.default_rng(
                np.random.SeedSequence([SEED, 77, tick, i])
            )
            if corrupt and crng.random() < corrupt:
                angle = crng.random() * 2.0 * np.pi
                fix = Point(
                    fix.x + 6.0 * np.cos(angle),
                    fix.y + 6.0 * np.sin(angle),
                )
                conf = 0.0
            update, _ = manager.observe(
                object_id, float(tick), fix, confidence=conf
            )
            errors.append(update.position.distance_to(truth))
    return manager.event_log.digest(), errors


def _median(values):
    return float(np.median(values))


def _tracking_campaign():
    fleet = _fleet_arm()
    inline_fixes = _service_fix_stream(0)
    process_fixes = _service_fix_stream(2)
    inline_digest, _ = _session_replay(inline_fixes)
    process_digest, _ = _session_replay(process_fixes)
    _, modulated_errors = _session_replay(
        inline_fixes, modulate=True, corrupt=CORRUPTION_RATE
    )
    _, blind_errors = _session_replay(
        inline_fixes, modulate=False, corrupt=CORRUPTION_RATE
    )
    worker_modes = {
        "event_log_bit_identical": inline_digest == process_digest,
        "inline_digest": inline_digest,
        "process_digest": process_digest,
    }
    confidence = {
        "corruption_rate": CORRUPTION_RATE,
        "modulated_median_m": round(_median(modulated_errors), 3),
        "blind_median_m": round(_median(blind_errors), 3),
        "improvement_m": round(
            _median(blind_errors) - _median(modulated_errors), 3
        ),
    }
    return fleet, worker_modes, confidence


def test_tracking_scale_determinism_confidence(
    benchmark, save_result, save_json
):
    fleet, worker_modes, confidence = run_once(benchmark, _tracking_campaign)

    # Invariant (a): fleet scale with a deterministic event log.
    assert fleet["concurrent_sessions"] >= 1000, (
        f"only {fleet['concurrent_sessions']} concurrent sessions"
    )
    assert fleet["repeat_bit_identical"], (
        "identical fleet runs produced different event logs"
    )
    assert fleet["updates_qps"] >= MIN_UPDATES_QPS, (
        f"session layer too slow: {fleet['updates_qps']:.0f} updates/s "
        f"< floor {MIN_UPDATES_QPS:.0f}"
    )

    # Invariant (b): process workers never leak into the event log.
    assert worker_modes["event_log_bit_identical"], (
        "inline vs process serving diverged: "
        f"{worker_modes['inline_digest'][:16]} != "
        f"{worker_modes['process_digest'][:16]}"
    )

    # Invariant (c): confidence modulation pays under corruption.
    assert confidence["modulated_median_m"] < confidence["blind_median_m"], (
        f"modulated median {confidence['modulated_median_m']} m not "
        f"better than blind {confidence['blind_median_m']} m at "
        f"{CORRUPTION_RATE:.0%} corruption"
    )

    rows = [
        [
            "fleet",
            fleet["concurrent_sessions"],
            fleet["updates"],
            f"{fleet['updates_qps']:.0f}/s",
            "repeat bit-identical",
        ],
        [
            "worker modes",
            SERVICE_OBJECTS,
            SERVICE_OBJECTS * SERVICE_TICKS,
            "-",
            "inline == process (byte-identical log)",
        ],
        [
            "confidence",
            SERVICE_OBJECTS,
            SERVICE_OBJECTS * SERVICE_TICKS,
            "-",
            f"median {confidence['modulated_median_m']:.2f} m vs "
            f"{confidence['blind_median_m']:.2f} m blind "
            f"at {CORRUPTION_RATE:.0%} corruption",
        ],
    ]
    table = format_table(
        ["arm", "objects", "updates", "throughput", "notes"], rows
    )
    save_result("TRACKING", table)
    save_json(
        "tracking",
        {
            "fleet": fleet,
            "worker_modes": worker_modes,
            "confidence_drill": confidence,
        },
    )
    print()
    print(table)
