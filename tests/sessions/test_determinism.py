"""Determinism regression tests for the streaming tracking layer.

The subsystem's core contract: a seeded multi-object scenario produces a
byte-identical session event log — across repeat runs, across
thread/process serving workers (the serving layer's bit-exactness
carries through the whole stack), and independent of object arrival
order for the per-object particle RNGs.
"""

import numpy as np

from repro.core import NomLocSystem, SystemConfig
from repro.environment import FloorPlan, get_scenario
from repro.geometry import Point, Polygon
from repro.serving import LocalizationService, ServingConfig
from repro.sessions import SessionConfig, SessionManager, ZoneMap
from repro.tracking import random_trajectory

SEED = 5
PACKETS = 4
OBJECTS = 3
TICKS = 6


def _synthetic_fixes():
    """Seeded fix stream: [(object_id, t_s, Point, confidence), ...]."""
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 9]))
    rows = []
    for tick in range(12):
        for i in range(OBJECTS):
            rows.append(
                (
                    f"obj-{i}",
                    float(tick),
                    Point(*rng.uniform((0.5, 0.5), (11.5, 7.5))),
                    float(rng.uniform(0.2, 1.0)),
                )
            )
    return rows


def _replay(fixes, **config_overrides):
    zones = ZoneMap.grid(Polygon.rectangle(0, 0, 12, 8), 2, 3)
    plan = FloorPlan("room", Polygon.rectangle(0, 0, 12, 8))
    manager = SessionManager(
        zones, SessionConfig(**config_overrides), plan=plan
    )
    for object_id, t_s, fix, confidence in fixes:
        manager.observe(object_id, t_s, fix, confidence=confidence)
    return manager


class TestRepeatRuns:
    def test_kalman_event_log_byte_identical(self):
        fixes = _synthetic_fixes()
        first = _replay(fixes)
        second = _replay(fixes)
        assert first.event_log.to_jsonl() == second.event_log.to_jsonl()
        assert first.event_log.digest() == second.event_log.digest()

    def test_particle_event_log_byte_identical(self):
        fixes = _synthetic_fixes()
        first = _replay(fixes, filter_kind="particle", seed=3)
        second = _replay(fixes, filter_kind="particle", seed=3)
        assert first.event_log.digest() == second.event_log.digest()

    def test_particle_rngs_are_arrival_order_independent(self):
        # Per-object RNGs are keyed by object identity, not by arrival
        # order: interleaving objects differently must not change any
        # object's track.
        fixes = _synthetic_fixes()
        by_tick = _replay(fixes, filter_kind="particle", seed=3)
        # Same fixes, grouped per object instead of per tick.
        regrouped = sorted(fixes, key=lambda row: (row[0], row[1]))
        by_object = _replay(regrouped, filter_kind="particle", seed=3)
        for object_id in by_tick.object_ids():
            a = by_tick.session(object_id).filter.estimate()
            b = by_object.session(object_id).filter.estimate()
            assert a == b, object_id


class TestWorkerModes:
    def test_inline_and_process_serving_produce_identical_logs(self):
        scenario = get_scenario("lab")
        system = NomLocSystem(
            scenario, SystemConfig(packets_per_link=PACKETS)
        )
        trajectories = [
            random_trajectory(
                scenario.plan,
                np.random.default_rng(
                    np.random.SeedSequence([SEED, 1000 + i])
                ),
                num_waypoints=4,
            )
            for i in range(OBJECTS)
        ]

        def served_digest(workers):
            zones = ZoneMap.grid(scenario.plan.boundary, 2, 3)
            manager = SessionManager(zones, SessionConfig())
            service = LocalizationService(
                scenario.plan.boundary,
                config=ServingConfig(max_workers=workers, lp_batch=3),
            )
            try:
                for tick in range(TICKS):
                    batch = []
                    for i, traj in enumerate(trajectories):
                        truth = traj.positions[min(tick, len(traj) - 1)]
                        rng = np.random.default_rng(
                            np.random.SeedSequence([SEED, tick, i])
                        )
                        batch.append(tuple(system.gather_anchors(truth, rng)))
                    for i, resp in enumerate(service.batch(batch)):
                        manager.ingest(f"obj-{i}", float(tick), resp)
            finally:
                service.close()
            return manager.event_log.digest()

        assert served_digest(0) == served_digest(2)
