"""Tests for the LocalizationService façade.

Covers the serving subsystem's contract: cached-vs-uncached and
process-vs-inline answers are bit-identical to the direct localizer,
backpressure rejects at capacity, and LP failures/timeouts degrade
gracefully to the flagged weighted-centroid fallback.
"""

import threading

import numpy as np
import pytest

import repro.core.localizer as localizer_module
from repro.core import NomLocLocalizer, NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.eval import run_campaign, run_campaign_via_service
from repro.geometry import Polygon
from repro.serving import (
    LocalizationRequest,
    LocalizationService,
    QueueFullError,
    ServiceClosedError,
    ServingConfig,
)


@pytest.fixture(scope="module")
def lab():
    return get_scenario("lab")


@pytest.fixture(scope="module")
def lab_system(lab):
    return NomLocSystem(lab, SystemConfig(packets_per_link=4))


@pytest.fixture(scope="module")
def anchor_sets(lab, lab_system):
    """Six seeded queries across the lab's test sites."""
    sets = []
    for i in range(6):
        site = lab.test_sites[i % len(lab.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([42, i]))
        sets.append((site, tuple(lab_system.gather_anchors(site, rng))))
    return sets


class TestBitExactness:
    def test_cached_equals_uncached_for_same_seed(self, lab, anchor_sets):
        cached = LocalizationService(lab.plan.boundary)
        uncached = LocalizationService(
            lab.plan.boundary,
            config=ServingConfig(
                cache_topologies=False, cache_bisectors=False
            ),
        )
        with cached, uncached:
            # Two passes so the second one is served fully from cache.
            anchors = [a for _, a in anchor_sets]
            cached.batch(anchors)
            warm = cached.batch(anchors)
            cold = uncached.batch(anchors)
        assert cached.metrics_snapshot()["topology_cache"]["hits"] > 0
        for w, c in zip(warm, cold):
            assert w.position == c.position
            assert w.estimate.relaxation_cost == c.estimate.relaxation_cost
            assert w.estimate.num_constraints == c.estimate.num_constraints

    def test_concurrent_batch_equals_sequential_batch(self, lab, anchor_sets):
        anchors = [a for _, a in anchor_sets]
        with LocalizationService(lab.plan.boundary) as seq_svc:
            sequential = seq_svc.batch(anchors)
        with LocalizationService(
            lab.plan.boundary, config=ServingConfig(max_workers=4)
        ) as conc_svc:
            concurrent = conc_svc.batch(anchors)
        for s, c in zip(sequential, concurrent):
            assert s.position == c.position
            assert s.estimate.relaxation_cost == c.estimate.relaxation_cost

    def test_service_matches_direct_localizer(self, lab, anchor_sets):
        localizer = NomLocLocalizer(lab.plan.boundary)
        with LocalizationService(lab.plan.boundary) as service:
            for _, anchors in anchor_sets:
                resp = service.locate(anchors)
                direct = localizer.locate(anchors)
                assert resp.position == direct.position
                assert resp.estimate.relaxation_cost == direct.relaxation_cost
                assert not resp.degraded


class TestBackpressure:
    def test_submit_rejects_when_queue_full(self, lab, anchor_sets):
        _, anchors = anchor_sets[0]
        config = ServingConfig(queue_capacity=1)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            service.queue.try_acquire()  # an in-flight query holds the slot
            with pytest.raises(QueueFullError):
                service.submit(anchors)
            service.queue.release()
            assert service.submit(anchors).result().position is not None
            snap = service.metrics_snapshot()
        assert snap["rejected"] == 1
        assert snap["admitted"] == 1

    def test_batch_blocks_instead_of_rejecting(self, lab, anchor_sets):
        anchors = [a for _, a in anchor_sets]
        config = ServingConfig(max_workers=2, queue_capacity=2)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            responses = service.batch(anchors)
            snap = service.metrics_snapshot()
        assert len(responses) == len(anchors)
        assert snap["rejected"] == 0
        assert snap["queue_depth"] == 0  # all slots returned


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": -1},
            {"queue_capacity": 0},
            {"timeout_s": 0.0},
            {"max_cached_topologies": 0},
            {"max_cached_bisectors": 0},
            {"latency_window": 0},
        ],
    )
    def test_bad_knobs_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


class TestQueueFullUnderConcurrency:
    def test_racing_submitters_shed_against_capacity_one(
        self, lab, anchor_sets
    ):
        """Satellite drill: real threads racing a saturated capacity-1
        service all bounce with QueueFullError, and the shed total is
        visible in the metrics snapshot."""
        _, anchors = anchor_sets[0]
        config = ServingConfig(queue_capacity=1)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            service.queue.try_acquire()  # saturates the only slot
            outcomes = []

            def racer():
                try:
                    outcomes.append(service.submit(anchors))
                except QueueFullError:
                    outcomes.append(QueueFullError)

            threads = [threading.Thread(target=racer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            service.queue.release()
            assert service.submit(anchors).result().position is not None
            snap = service.metrics_snapshot()
        assert outcomes == [QueueFullError] * 4
        assert snap["rejected"] == 4
        assert snap["queue_rejected_total"] == 4
        assert snap["admitted"] == 1


class TestLifecycle:
    def test_drain_stops_admissions_and_flushes_metrics(
        self, lab, anchor_sets
    ):
        _, anchors = anchor_sets[0]
        service = LocalizationService(lab.plan.boundary)
        service.locate(anchors)
        assert not service.closed
        snapshot = service.drain()
        assert service.closed
        assert snapshot["completed"] == 1
        with pytest.raises(ServiceClosedError):
            service.submit(anchors)
        with pytest.raises(ServiceClosedError):
            service.batch([anchors])
        with pytest.raises(ServiceClosedError):
            list(service.serve([anchors]))
        service.close()  # idempotent

    def test_drain_waits_for_in_flight_queries(self, lab, anchor_sets):
        _, anchors = anchor_sets[0]
        service = LocalizationService(lab.plan.boundary)
        assert service.submit(anchors).result().position is not None
        service.queue.try_acquire()  # a query still in flight
        # The in-flight query holds its slot; a bounded drain times out
        # but leaves the service able to finish it.
        with pytest.raises(TimeoutError):
            service.drain(timeout_s=0.05)
        assert service.closed
        service.queue.release()  # ... and the query completes
        snapshot = service.drain()
        assert snapshot["completed"] == 1
        assert snapshot["queue_depth"] == 0


class TestGracefulDegradation:
    def test_injected_lp_failure_degrades(self, lab, anchor_sets, monkeypatch):
        truth, anchors = anchor_sets[0]

        def broken_relaxation(systems):
            raise RuntimeError("injected LP failure")

        monkeypatch.setattr(
            localizer_module, "solve_relaxation_batch", broken_relaxation
        )
        with LocalizationService(lab.plan.boundary) as service:
            resp = service.locate(anchors)
            snap = service.metrics_snapshot()
        assert resp.degraded and not resp.ok
        assert resp.reason == "lp-failure"
        assert resp.estimate is None
        # The fallback still answers inside the venue, near the truth-ish.
        assert lab.plan.boundary.contains(resp.position)
        assert snap["degraded"] == 1
        assert snap["lp_failures"] == 1

    def test_lp_failure_propagates_when_degradation_off(
        self, lab, anchor_sets, monkeypatch
    ):
        _, anchors = anchor_sets[0]

        def broken_relaxation(systems):
            raise RuntimeError("injected LP failure")

        monkeypatch.setattr(
            localizer_module, "solve_relaxation_batch", broken_relaxation
        )
        config = ServingConfig(degrade_on_failure=False)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            with pytest.raises(RuntimeError, match="injected"):
                service.locate(anchors)
            snap = service.metrics_snapshot()
        # A query that raised produced no response, so nothing about it
        # is recorded: no completion, no cache lookup.
        assert snap["completed"] == 0
        assert snap["cache_hits"] + snap["cache_misses"] == 0

    def test_expired_deadline_degrades_with_timeout_reason(
        self, lab, anchor_sets
    ):
        _, anchors = anchor_sets[0]
        with LocalizationService(lab.plan.boundary) as service:
            resp = service.locate(anchors, timeout_s=1e-9)
            snap = service.metrics_snapshot()
        assert resp.degraded
        assert resp.reason == "timeout"
        assert snap["timeouts"] == 1

    def test_fallback_is_pdp_weighted_centroid(self, lab, anchor_sets):
        _, anchors = anchor_sets[0]
        with LocalizationService(lab.plan.boundary) as service:
            resp = service.locate(anchors, timeout_s=1e-9)
        total = sum(a.pdp for a in anchors)
        expected_x = sum(a.pdp * a.position.x for a in anchors) / total
        expected_y = sum(a.pdp * a.position.y for a in anchors) / total
        localizer = NomLocLocalizer(lab.plan.boundary)
        projected = localizer.project_into_area(
            type(resp.position)(expected_x, expected_y)
        )
        assert resp.position.almost_equals(projected)


class TestStreaming:
    def test_serve_preserves_order(self, lab, anchor_sets):
        anchors = [a for _, a in anchor_sets]
        config = ServingConfig(max_workers=3)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            streamed = list(service.serve(iter(anchors)))
        with LocalizationService(lab.plan.boundary) as reference:
            expected = reference.batch(anchors)
        assert [r.position for r in streamed] == [
            r.position for r in expected
        ]

    def test_requests_accept_query_ids(self, lab, anchor_sets):
        _, anchors = anchor_sets[0]
        request = LocalizationRequest(anchors, query_id="q-7")
        with LocalizationService(lab.plan.boundary) as service:
            resp = service.batch([request])[0]
        assert resp.query_id == "q-7"

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            LocalizationRequest(())


class TestMicroBatching:
    def test_lp_batch_bit_identical_to_sequential(self, lab, anchor_sets):
        anchors = [a for _, a in anchor_sets]
        with LocalizationService(lab.plan.boundary) as reference:
            expected = reference.batch(anchors)
        for chunk_size in (2, 3, 64):
            config = ServingConfig(lp_batch=chunk_size)
            with LocalizationService(
                lab.plan.boundary, config=config
            ) as service:
                served = service.batch(anchors)
            for seq, chunked in zip(expected, served):
                assert chunked.position == seq.position
                assert (
                    chunked.estimate.relaxation_cost
                    == seq.estimate.relaxation_cost
                )
                assert (
                    chunked.estimate.num_constraints
                    == seq.estimate.num_constraints
                )

    def test_one_request_tail_chunk_takes_scalar_path(
        self, lab, anchor_sets, monkeypatch
    ):
        # lp_batch only sizes chunks; the chunk picks the solve path.
        # Five requests at lp_batch=4 are a stacked chunk of four and a
        # tail chunk of one, which runs the scalar pipeline.
        lanes = []
        stacked = localizer_module.NomLocLocalizer.locate_batch

        def spy(self, queries, *args, **kwargs):
            lanes.append(len(queries))
            return stacked(self, queries, *args, **kwargs)

        monkeypatch.setattr(
            localizer_module.NomLocLocalizer, "locate_batch", spy
        )
        requests = [
            LocalizationRequest(a, query_id=f"q{i}")
            for i, (_, a) in enumerate(anchor_sets[:5])
        ]
        config = ServingConfig(lp_batch=4)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            served = service.batch(requests)
        assert lanes == [4]
        with LocalizationService(lab.plan.boundary) as reference:
            expected = [reference.locate_request(r) for r in requests]
        assert lanes == [4]  # the reference never stacks either
        for seq, got in zip(expected, served):
            assert got.query_id == seq.query_id
            assert got.position == seq.position
            assert got.estimate.relaxation_cost == seq.estimate.relaxation_cost
            assert got.estimate.num_constraints == seq.estimate.num_constraints

    def test_lp_batch_off_never_stacks(self, lab, anchor_sets, monkeypatch):
        def no_stacking(*args, **kwargs):
            raise AssertionError("lp_batch <= 1 must not stack")

        monkeypatch.setattr(
            localizer_module.NomLocLocalizer, "locate_batch", no_stacking
        )
        anchors = [a for _, a in anchor_sets]
        for lp_batch in (0, 1):
            config = ServingConfig(lp_batch=lp_batch)
            with LocalizationService(
                lab.plan.boundary, config=config
            ) as service:
                served = service.batch(anchors)
                snapshot = service.metrics_snapshot()
            assert all(not r.degraded for r in served)
            assert snapshot["completed"] == len(anchors)

    def test_deadline_requests_take_scalar_path(self, lab, anchor_sets):
        # A request with its own deadline cannot ride a stacked pass
        # (deadlines are checked between piece solves); it must still be
        # answered, in order, alongside its chunked batch mates.
        _, anchors = anchor_sets[0]
        requests = [
            LocalizationRequest(a, query_id=f"q{i}")
            for i, (_, a) in enumerate(anchor_sets)
        ]
        requests[2] = LocalizationRequest(
            anchors, query_id="q2", timeout_s=30.0
        )
        config = ServingConfig(lp_batch=3)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            served = service.batch(requests)
        with LocalizationService(lab.plan.boundary) as reference:
            expected = reference.batch(requests)
        assert [r.query_id for r in served] == [f"q{i}" for i in range(6)]
        assert [r.position for r in served] == [r.position for r in expected]

    def test_poisoned_group_degrades_per_request(
        self, lab, anchor_sets, monkeypatch
    ):
        # When the stacked solve blows up, the chunk falls back to scalar
        # handling so only genuinely-failing queries degrade.
        def broken_batch(*args, **kwargs):
            raise RuntimeError("stacked solve corrupted")

        monkeypatch.setattr(
            localizer_module.NomLocLocalizer, "locate_batch", broken_batch
        )
        anchors = [a for _, a in anchor_sets]
        config = ServingConfig(lp_batch=3)
        with LocalizationService(lab.plan.boundary, config=config) as service:
            served = service.batch(anchors)
        with LocalizationService(lab.plan.boundary) as reference:
            expected = reference.batch(anchors)
        assert [r.position for r in served] == [r.position for r in expected]
        assert all(not r.degraded for r in served)


class TestMultiTenant:
    def test_request_area_override(self, lab, anchor_sets):
        _, anchors = anchor_sets[0]
        other = Polygon.rectangle(0, 0, 50, 40)
        with LocalizationService(lab.plan.boundary) as service:
            service.locate(anchors)
            service.locate(anchors, area=other)
            snap = service.metrics_snapshot()
        assert snap["topology_cache"]["size"] == 2


class TestCampaignViaService:
    def test_matches_direct_campaign(self, lab, lab_system):
        sites = lab.test_sites[:3]
        direct = run_campaign(lab_system, sites, repetitions=2, seed=11)
        with LocalizationService(lab.plan.boundary) as service:
            served = run_campaign_via_service(
                service,
                lab_system.gather_anchors,
                sites,
                repetitions=2,
                seed=11,
            )
        assert served.per_site_means() == pytest.approx(
            direct.per_site_means(), abs=1e-12
        )
