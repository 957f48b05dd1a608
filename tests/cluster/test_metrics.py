"""Tests for cluster-level metrics and the fleet roll-up."""

import json

from repro.cluster import ClusterMetrics, merge_service_snapshots


class TestClusterMetrics:
    def test_availability_counts_only_fallbacks_against(self):
        metrics = ClusterMetrics()
        metrics.record_query(0.01)
        metrics.record_query(0.01, degraded=True, stale=True)
        metrics.record_query(0.05, degraded=True, unavailable=True)
        snap = metrics.snapshot()
        assert snap["routed"] == 3
        assert snap["answered"] == 2
        assert snap["unavailable"] == 1
        assert snap["degraded"] == 2
        assert snap["stale_flagged"] == 1
        assert snap["availability"] == 2 / 3

    def test_failover_retry_accounting(self):
        metrics = ClusterMetrics()
        metrics.record_query(0.01, failovers=2, retries=1)
        metrics.record_retry_denied()
        metrics.record_heartbeat_round()
        snap = metrics.snapshot()
        assert snap["failovers"] == 2
        assert snap["retries"] == 1
        assert snap["retry_denied"] == 1
        assert snap["heartbeat_rounds"] == 1

    def test_empty_cluster_is_fully_available(self):
        snap = ClusterMetrics().snapshot()
        assert snap["availability"] == 1.0
        assert snap["routed"] == 0


class TestMergeServiceSnapshots:
    def test_counters_sum_and_depth_takes_worst(self):
        merged = merge_service_snapshots(
            [
                {
                    "completed": 3,
                    "cache_hits": 2,
                    "cache_misses": 1,
                    "queue_depth": 0,
                    "queue_rejected_total": 1,
                },
                {
                    "completed": 5,
                    "cache_hits": 4,
                    "cache_misses": 1,
                    "queue_depth": 7,
                },
            ]
        )
        assert merged["completed"] == 8
        assert merged["queue_depth"] == 7
        assert merged["queue_rejected_total"] == 1
        assert merged["cache_hit_rate"] == 6 / 8
        assert merged["replica_count"] == 2

    def test_empty_fleet(self):
        merged = merge_service_snapshots([])
        assert merged["replica_count"] == 0
        assert merged["cache_hit_rate"] == 0.0


class TestClusterMetricsToJson:
    def test_to_json_dumps_cleanly_with_stable_order(self):
        metrics = ClusterMetrics()
        metrics.record_query(0.01)
        metrics.record_query(0.02, degraded=True)
        doc = metrics.to_json()
        assert doc == json.loads(json.dumps(doc, sort_keys=True))
        assert list(doc) == sorted(doc)
        assert doc["routed"] == 2

    def test_to_json_matches_snapshot_values(self):
        metrics = ClusterMetrics()
        metrics.record_query(0.125)
        snap = metrics.snapshot()
        doc = metrics.to_json()
        assert doc["latency_p95_s"] == snap["latency_p95_s"]  # exact floats
        assert doc["availability"] == snap["availability"]
