"""Tests for the cached link-level simulator."""

import numpy as np
import pytest

from repro.channel import (
    METAL,
    CSISynthesizer,
    LinkSimulator,
    PathComponent,
    PropagationModel,
    ShadowingModel,
    TraceConfig,
)
from repro.environment import FloorPlan, Obstacle
from repro.geometry import Point, Polygon


@pytest.fixture
def sim():
    plan = FloorPlan(
        "room",
        Polygon.rectangle(0, 0, 10, 10),
        (),
        (Obstacle(Polygon.rectangle(4, 4, 6, 6), METAL, "rack"),),
    )
    return LinkSimulator(plan)


class TestLinkSimulator:
    def test_trace_cached(self, sim):
        a, b = Point(1, 1), Point(9, 9)
        p1 = sim.paths(a, b)
        p2 = sim.paths(a, b)
        assert p1 is p2
        sim.clear_cache()
        assert sim.paths(a, b) is not p1

    def test_is_los(self, sim):
        assert sim.is_los(Point(1, 1), Point(9, 1))
        assert not sim.is_los(Point(1, 5), Point(9, 5))  # through the rack

    def test_measure_shapes(self, sim):
        rng = np.random.default_rng(0)
        m = sim.measure(Point(1, 1), Point(9, 1), rng)
        assert m.csi.shape == (56,)
        batch = sim.measure_batch(Point(1, 1), Point(9, 1), 5, rng)
        assert len(batch) == 5

    def test_closer_link_stronger(self, sim):
        rng = np.random.default_rng(0)
        near = np.mean(
            [
                sim.measure(Point(1, 1), Point(3, 1), rng).total_power_mw()
                for _ in range(50)
            ]
        )
        far = np.mean(
            [
                sim.measure(Point(1, 1), Point(9, 1), rng).total_power_mw()
                for _ in range(50)
            ]
        )
        assert near > far

    def test_nlos_weaker_than_los_at_same_distance(self, sim):
        rng = np.random.default_rng(0)
        # Both links are 8 m; one passes through the metal rack.
        los = np.mean(
            [
                sim.measure(Point(1, 1), Point(9, 1), rng).total_power_mw()
                for _ in range(50)
            ]
        )
        nlos = np.mean(
            [
                sim.measure(Point(1, 5), Point(9, 5), rng).total_power_mw()
                for _ in range(50)
            ]
        )
        assert nlos < los

    def test_delay_profile_shortcut(self, sim):
        rng = np.random.default_rng(0)
        profile = sim.measure_delay_profile(Point(1, 1), Point(9, 1), rng)
        assert profile.delays_s[0] == 0.0
        assert profile.max_power() > 0

    def test_custom_synthesizer(self):
        plan = FloorPlan("r", Polygon.rectangle(0, 0, 5, 5))
        synth = CSISynthesizer(
            tx_power_dbm=20.0,
            propagation=PropagationModel(path_loss_exponent=3.0),
            noise=None,
        )
        sim = LinkSimulator(plan, synth)
        rng = np.random.default_rng(0)
        m = sim.measure(Point(1, 1), Point(4, 4), rng, with_fading=False)
        assert m.total_power_mw() > 0


def _same_batches(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.csi.tobytes() == y.csi.tobytes()
        assert x.rssi_dbm == y.rssi_dbm


def _same_terms(a, b):
    for name in ("amplitudes", "specular", "sigma", "phases"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestLinkCache:
    def test_terms_cached_with_trace(self, sim):
        a, b = Point(1, 1), Point(9, 9)
        terms = sim.link_terms(a, b)
        assert sim.link_terms(a, b) is terms
        _same_terms(terms, sim.synthesizer.link_terms(sim.paths(a, b)))

    def test_clear_cache_drops_terms(self, sim):
        a, b = Point(1, 1), Point(9, 9)
        terms = sim.link_terms(a, b)
        sim.clear_cache()
        assert len(sim._links) == 0
        again = sim.link_terms(a, b)
        assert again is not terms
        _same_terms(again, terms)

    def test_replaced_synthesizer_rebuilds_terms(self, sim):
        a, b = Point(1, 1), Point(9, 9)
        terms = sim.link_terms(a, b)
        sim.synthesizer = CSISynthesizer(tx_power_dbm=20.0)
        rebuilt = sim.link_terms(a, b)
        assert rebuilt is not terms
        assert np.all(rebuilt.amplitudes > terms.amplitudes)

    def test_terms_are_read_only(self, sim):
        terms = sim.link_terms(Point(1, 1), Point(9, 9))
        with pytest.raises(ValueError):
            terms.phases[0, 0] = 0.0

    def test_measure_batch_matches_direct_synthesis(self, sim):
        a, b = Point(1, 5), Point(9, 5)
        for _ in range(2):  # first call fills the cache, second hits it
            rng_link = np.random.default_rng(11)
            rng_direct = np.random.default_rng(11)
            _same_batches(
                sim.measure_batch(a, b, 12, rng_link),
                sim.synthesizer.synthesize_batch(sim.paths(a, b), 12, rng_direct),
            )
            assert rng_link.bit_generator.state == rng_direct.bit_generator.state

    def test_shadowed_terms_carry_offset(self):
        plan = FloorPlan("room", Polygon.rectangle(0, 0, 20, 20))
        shadowing = ShadowingModel(sigma_db=6.0, seed=4)
        sim = LinkSimulator(plan, shadowing=shadowing)
        tx, rx = Point(2, 2), Point(15, 9)
        offset = shadowing.link_shadowing_db(tx, rx)
        assert offset != 0.0
        shadowed = [
            PathComponent(
                c.kind,
                c.length_m,
                c.delay_s,
                c.excess_loss_db + offset,
                c.bounces,
                c.blocked,
            )
            for c in LinkSimulator(plan).paths(tx, rx)
        ]
        _same_terms(sim.link_terms(tx, rx), sim.synthesizer.link_terms(shadowed))
        cached = sim.measure_batch(tx, rx, 9, np.random.default_rng(2))
        uncached = sim.synthesizer.synthesize_batch(
            shadowed, 9, np.random.default_rng(2)
        )
        _same_batches(cached, uncached)

    def test_cache_is_bounded(self):
        plan = FloorPlan("r", Polygon.rectangle(0, 0, 100, 100))
        sim = LinkSimulator(plan, trace_config=TraceConfig(max_reflection_order=0))
        rng = np.random.default_rng(0)
        rx = Point(50.0, 50.0)
        for i in range(10_000):
            tx = Point(1.0 + i % 100 * 0.5, 1.0 + i // 100 * 0.5)
            sim.measure_batch(tx, rx, 1, rng)
            assert len(sim._links) <= LinkSimulator.CACHE_CAPACITY
        assert len(sim._links) == LinkSimulator.CACHE_CAPACITY

    def test_evicted_link_recomputes_bit_identically(self, sim, monkeypatch):
        monkeypatch.setattr(LinkSimulator, "CACHE_CAPACITY", 4)
        a, b = Point(1, 1), Point(9, 9)
        first = sim.measure_batch(a, b, 8, np.random.default_rng(3))
        for i in range(4):
            sim.paths(Point(1.0 + i, 2.0), b)
        assert (a.x, a.y, b.x, b.y) not in sim._links
        again = sim.measure_batch(a, b, 8, np.random.default_rng(3))
        _same_batches(first, again)

    def test_recently_used_link_survives_eviction(self, sim, monkeypatch):
        monkeypatch.setattr(LinkSimulator, "CACHE_CAPACITY", 2)
        a, b, c, rx = Point(1, 1), Point(2, 1), Point(3, 1), Point(9, 9)
        paths_a = sim.paths(a, rx)
        sim.paths(b, rx)
        assert sim.paths(a, rx) is paths_a  # refreshes a
        sim.paths(c, rx)  # evicts b, the least recently used
        assert sim.paths(a, rx) is paths_a
        assert (b.x, b.y, rx.x, rx.y) not in sim._links
