"""Tests for the LocalizationCluster façade.

The cluster's two-sided contract: with no faults, any shard/replica
shape answers bit-identically to one sequential LocalizationService;
with faults injected, availability is preserved by failover/retries and
every non-fresh answer is flagged, never silently wrong.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    FaultPlan,
    LocalizationCluster,
    ReplicaState,
    RetryPolicy,
    route_key,
)
from repro.core import NomLocLocalizer, NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.eval import run_campaign, run_campaign_via_service
from repro.serving import LocalizationRequest, LocalizationService


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


@pytest.fixture(scope="module")
def reference(lab, anchor_sets):
    """The bit-exactness baseline: one sequential service."""
    with LocalizationService(lab.plan.boundary) as service:
        return service.batch([a for _, a in anchor_sets])


def primary_of(cluster, area):
    """(shard, primary replica index) the router picks for one venue."""
    shard, order = cluster.router.route(
        route_key(area, cluster.localizer_config)
    )
    return shard, order[0]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"replicas_per_shard": 0},
            {"heartbeat_every": -1},
            {"latency_window": 0},
            {"suspect_after": 0},
        ],
    )
    def test_bad_knobs_rejected(self, lab, kwargs):
        with pytest.raises(ValueError):
            LocalizationCluster(
                lab.plan.boundary, config=ClusterConfig(**kwargs)
            )


class TestBitExactness:
    @pytest.mark.parametrize(
        "shards,replicas", [(1, 1), (2, 2), (3, 2)]
    )
    def test_matches_single_sequential_service(
        self, lab, anchor_sets, reference, shards, replicas
    ):
        config = ClusterConfig(num_shards=shards, replicas_per_shard=replicas)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
        for resp, ref in zip(responses, reference):
            assert not resp.degraded
            assert resp.position == ref.position
            assert (
                resp.estimate.relaxation_cost == ref.estimate.relaxation_cost
            )
            assert (
                resp.estimate.num_constraints == ref.estimate.num_constraints
            )

    def test_one_venue_routes_to_one_shard_and_replica(self, lab, anchor_sets):
        config = ClusterConfig(num_shards=3, replicas_per_shard=2)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
        assert len({r.shard for r in responses}) == 1
        assert len({r.replica for r in responses}) == 1

    def test_requests_carry_query_ids_and_accept_bare_anchors(
        self, lab, anchor_sets
    ):
        _, anchors = anchor_sets[0]
        with LocalizationCluster(lab.plan.boundary) as cluster:
            tagged = cluster.batch(
                [LocalizationRequest(anchors, query_id="q-9"), anchors]
            )
        assert tagged[0].query_id == "q-9"
        assert tagged[1].position == tagged[0].position


class TestMicroBatching:
    @pytest.mark.parametrize("shards,replicas", [(1, 1), (2, 2)])
    def test_coalesced_batch_matches_reference(
        self, lab, anchor_sets, reference, shards, replicas
    ):
        from repro.serving import ServingConfig

        config = ClusterConfig(
            num_shards=shards,
            replicas_per_shard=replicas,
            serving=ServingConfig(lp_batch=4),
        )
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
        for resp, ref in zip(responses, reference):
            assert not resp.degraded
            assert resp.position == ref.position
            assert (
                resp.estimate.relaxation_cost == ref.estimate.relaxation_cost
            )
            assert (
                resp.estimate.num_constraints == ref.estimate.num_constraints
            )

    def test_coalesced_batch_with_crash_fails_over(
        self, lab, anchor_sets, reference
    ):
        from repro.serving import ServingConfig

        config = ClusterConfig(
            num_shards=1,
            replicas_per_shard=2,
            serving=ServingConfig(lp_batch=4),
        )
        probe = LocalizationCluster(lab.plan.boundary, config=config)
        shard, primary = primary_of(probe, lab.plan.boundary)
        probe.close()
        plan = FaultPlan.crash(shard, primary, after=0)
        with LocalizationCluster(
            lab.plan.boundary, config=config, fault_plan=plan
        ) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
            snap = cluster.metrics_snapshot()
        # Queries hit by the crash drop out of the coalesced run and
        # retry through the scalar path — nothing is lost or unflagged.
        for resp, ref in zip(responses, reference):
            assert not resp.degraded
            assert resp.position == ref.position
        assert snap["availability"] == 1.0
        assert snap["failovers"] >= 1

    def test_heartbeat_every_forces_scalar_path(
        self, lab, anchor_sets, reference
    ):
        from repro.serving import ServingConfig

        # Count-based heartbeats interleave with queries; coalescing
        # would change when sweeps fire, so lp_batch defers to it.
        config = ClusterConfig(
            num_shards=1,
            replicas_per_shard=2,
            heartbeat_every=2,
            serving=ServingConfig(lp_batch=4),
        )
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
        for resp, ref in zip(responses, reference):
            assert resp.position == ref.position


class TestFailover:
    def test_primary_crash_fails_over_without_losing_answers(
        self, lab, anchor_sets, reference
    ):
        config = ClusterConfig(num_shards=1, replicas_per_shard=2)
        probe = LocalizationCluster(lab.plan.boundary, config=config)
        shard, primary = primary_of(probe, lab.plan.boundary)
        probe.close()
        plan = FaultPlan.crash(shard, primary, after=0)
        with LocalizationCluster(
            lab.plan.boundary, config=config, fault_plan=plan
        ) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets])
            snap = cluster.metrics_snapshot()
        # The first query fails over; after that the health machine
        # routes around the suspect primary entirely.  Either way every
        # answer comes from the secondary, bit-exact.
        for resp, ref in zip(responses, reference):
            assert not resp.degraded
            assert resp.position == ref.position
        assert responses[0].failovers >= 1
        assert snap["availability"] == 1.0
        assert snap["failovers"] >= 1
        assert cluster.replica_states()[(shard, primary)] in (
            ReplicaState.SUSPECT,
            ReplicaState.DEAD,
        )

    def test_whole_group_down_degrades_to_flagged_fallback(
        self, lab, anchor_sets
    ):
        plan = FaultPlan.crash(0, 0, after=0)
        with LocalizationCluster(
            lab.plan.boundary, fault_plan=plan
        ) as cluster:
            responses = cluster.batch([a for _, a in anchor_sets[:3]])
            snap = cluster.metrics_snapshot()
        for resp in responses:
            assert resp.degraded
            assert resp.reason == "unavailable"
            assert resp.estimate is None
            assert resp.replica is None
            # Coarse, but still a position inside the venue.
            assert lab.plan.boundary.contains(resp.position)
        assert snap["availability"] < 1.0
        assert snap["unavailable"] == 3

    def test_retry_budget_caps_amplification(self, lab, anchor_sets):
        config = ClusterConfig(
            num_shards=1,
            replicas_per_shard=1,
            retry=RetryPolicy(budget_ratio=0.0, budget_burst=0),
        )
        plan = FaultPlan.crash(0, 0, after=0)
        with LocalizationCluster(
            lab.plan.boundary, config=config, fault_plan=plan
        ) as cluster:
            resp = cluster.locate(anchor_sets[0][1])
            snap = cluster.metrics_snapshot()
        assert resp.reason == "unavailable"
        assert snap["retries"] == 0
        assert snap["retry_denied"] == 1
        assert snap["retry_budget"]["denied"] == 1


class TestRejoin:
    def test_crashed_replica_rejoins_via_heartbeats(self, lab, anchor_sets):
        config = ClusterConfig(
            num_shards=1, replicas_per_shard=2, dead_after=3, rejoin_after=2
        )
        probe = LocalizationCluster(lab.plan.boundary, config=config)
        shard, primary = primary_of(probe, lab.plan.boundary)
        probe.close()
        plan = FaultPlan.crash(shard, primary, after=0, until=3)
        with LocalizationCluster(
            lab.plan.boundary, config=config, fault_plan=plan
        ) as cluster:
            # Query 0 fails over (SUSPECT); two failed probes finish the
            # demotion to DEAD while the fault is still active.
            cluster.batch([anchor_sets[0][1]])
            cluster.heartbeat()
            cluster.heartbeat()
            assert (
                cluster.replica_states()[(shard, primary)]
                is ReplicaState.DEAD
            )
            # Advance the fault clock past the window; the secondary
            # serves while the primary is down.
            cluster.batch([a for _, a in anchor_sets[1:3]])
            # Fault cleared (query index >= 3): probes bring it back,
            # slowly — probation first, then healthy.
            states = cluster.heartbeat()
            assert states[(shard, primary)] is ReplicaState.REJOINING
            states = cluster.heartbeat()
            assert states[(shard, primary)] is ReplicaState.HEALTHY


class TestStaleTopology:
    def test_stale_replica_answers_are_flagged_not_wrong(
        self, lab, anchor_sets
    ):
        config = ClusterConfig(num_shards=1, replicas_per_shard=2)
        probe = LocalizationCluster(lab.plan.boundary, config=config)
        shard, primary = primary_of(probe, lab.plan.boundary)
        probe.close()
        plan = FaultPlan.stale_topology(shard, primary, after=0, until=3)
        localizer = NomLocLocalizer(lab.plan.boundary)
        with LocalizationCluster(
            lab.plan.boundary, config=config, fault_plan=plan
        ) as cluster:
            # A nomadic AP moves; the faulted primary misses the push.
            cluster.note_topology_change()
            stale_resps = cluster.batch([a for _, a in anchor_sets[:3]])
            # Fault window over: the heartbeat sweep re-syncs the primary.
            cluster.heartbeat()
            fresh = cluster.locate(anchor_sets[3][1])
            snap = cluster.metrics_snapshot()
        for (_, anchors), resp in zip(anchor_sets[:3], stale_resps):
            assert resp.degraded
            assert resp.reason == "stale-topology"
            # Staleness flags the topology version, never the solve.
            assert resp.estimate is not None
            assert resp.position == localizer.locate(anchors).position
        assert not fresh.degraded
        assert snap["stale_flagged"] == 3
        assert snap["topology_version"] == 1


class TestLifecycle:
    def test_closed_cluster_refuses_queries(self, lab, anchor_sets):
        cluster = LocalizationCluster(lab.plan.boundary)
        cluster.locate(anchor_sets[0][1])
        snapshot = cluster.drain()
        assert snapshot["routed"] == 1
        with pytest.raises(RuntimeError):
            cluster.locate(anchor_sets[0][1])
        cluster.close()  # idempotent

    def test_heartbeat_every_n_queries(self, lab, anchor_sets):
        config = ClusterConfig(heartbeat_every=2)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            cluster.batch([a for _, a in anchor_sets[:5]])
            snap = cluster.metrics_snapshot()
        assert snap["heartbeat_rounds"] == 2  # at query indices 2 and 4


class TestMetricsSnapshot:
    def test_layout_covers_fleet_and_replicas(self, lab, anchor_sets):
        config = ClusterConfig(num_shards=2, replicas_per_shard=2)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            cluster.batch([a for _, a in anchor_sets])
            snap = cluster.metrics_snapshot()
        assert snap["services"]["replica_count"] == 4
        assert snap["services"]["completed"] == len(anchor_sets)
        assert len(snap["replicas"]) == 4
        assert set(snap["states"].values()) == {"healthy"}
        assert snap["retry_budget"]["attempts"] == len(anchor_sets)
        assert snap["topology_version"] == 0


class TestCampaignViaCluster:
    def test_matches_direct_campaign(self, lab, lab_system):
        sites = lab.test_sites[:3]
        direct = run_campaign(lab_system, sites, repetitions=2, seed=11)
        config = ClusterConfig(num_shards=2, replicas_per_shard=2)
        with LocalizationCluster(lab.plan.boundary, config=config) as cluster:
            served = run_campaign_via_service(
                cluster,
                lab_system.gather_anchors,
                sites,
                repetitions=2,
                seed=11,
            )
        assert served.per_site_means() == pytest.approx(
            direct.per_site_means(), abs=1e-12
        )
