"""Which public callables are traced, and the per-layer metrics.

Each trace point is a callable the layer exposes to the layer above it,
named after its ``src/repro`` module.  The service path reaches the
localizer through ``build_shared_constraints`` / ``solve_piece`` /
``estimate_from_solutions`` (scalar) or ``locate_batch`` (stacked), never
through ``NomLocLocalizer.locate``; the campaign path uses ``locate``.
Every workload checks the call counts of these points against the counts
its own inputs imply (see :func:`traced_metrics`), so a wrapper on a callable
that the path never reaches shows up as a failed check, not as a zero.
"""

from __future__ import annotations

from .tracer import summarize

#: Per-layer metrics, in BENCHMARK.json order, with their units.
PER_LAYER_UNITS = {
    "localizer.assemble_ms": "ms",
    "localizer.solve_ms": "ms",
    "localizer.merge_ms": "ms",
    "localizer.calls": "count",
    "serving.self_ms": "ms",
    "serving.batch_lanes_mean": "count",
    "serving.bisector_hit_rate": "ratio",
    "serving.degraded": "count",
    "cluster.route_self_ms": "ms",
    "cluster.failovers": "count",
    "gateway.decode_ms": "ms",
    "gateway.ledger_batch_ms": "ms",
    "gateway.ledger_estimate_ms": "ms",
    "gateway.bridge_wait_ms": "ms",
    "gateway.backlog_max": "count",
    "gateway.generator_late_ms": "ms",
    "sessions.observe_self_us": "us",
    "sessions.events": "count",
    "sessions.evict_ms": "ms",
    "durable.append_us": "us",
    "durable.flush_ms": "ms",
    "durable.flushes": "count",
    "durable.snapshot_ms": "ms",
    "durable.snapshots": "count",
    "durable.recover_restore_ms": "ms",
    "durable.recover_replay_ms": "ms",
    "durable.replayed_entries": "count",
    "measure.gather_ms": "ms",
    "pdp.estimate_ms": "ms",
    "eval.campaign_self_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
}

#: Span name prefix → layer, for the self-time waterfall.
LAYER_OF_SPAN = {
    "localizer": "core",
    "serving": "serving",
    "cluster": "cluster",
    "gateway": "gateway",
    "sessions": "sessions",
    "durable": "durable",
    "measure": "channel",
    "pdp": "channel",
    "eval": "eval",
}


def _query_id(_self, request, *args, **kwargs):
    return request.query_id


def _batch_id(_self, batch_id, *args, **kwargs):
    return batch_id


def core_points():
    from repro.core import localizer

    cls = localizer.NomLocLocalizer
    return [
        (cls, "build_shared_constraints", "localizer.assemble", None),
        (cls, "build_shared_constraints_batch", "localizer.assemble_batch", None),
        (cls, "locate_batch", "localizer.locate_batch", None),
        (cls, "locate", "localizer.locate", None),
        (cls, "solve_piece", "localizer.solve", None),
        (cls, "solve_pieces_batch", "localizer.solve", None),
        (cls, "estimate_from_solutions", "localizer.merge", None),
    ]


def serving_points():
    from repro.serving import LocalizationService

    return [
        (LocalizationService, "locate_request", "serving.locate_request", _query_id),
        (LocalizationService, "batch", "serving.batch", None),
    ] + core_points()


def gateway_points():
    from repro.cluster import LocalizationCluster
    from repro.gateway import bridge, http, protocol, store

    return [
        (http.HttpRequest, "json", "gateway.decode", None),
        (protocol, "decode_measurement_batch", "gateway.decode", None),
        (store.MeasurementLedger, "record_batch", "gateway.ledger_batch", _batch_id),
        (store.MeasurementLedger, "record_estimate", "gateway.ledger_estimate", _batch_id),
        (bridge.SolverBridge, "locate", "gateway.bridge", _query_id),
        (LocalizationCluster, "locate_request", "cluster.route", _query_id),
    ] + serving_points() + sessions_points()


def sessions_points():
    from repro.sessions import durable, manager

    mgr, store = manager.SessionManager, durable.SessionStore
    return [
        (mgr, "observe", "sessions.observe", None),
        (mgr, "evict_idle", "sessions.evict", None),
        (store, "append_journal", "durable.append", None),
        (store, "flush", "durable.flush", None),
        (mgr, "state_dict", "durable.snapshot_state", None),
        (store, "save_snapshot", "durable.snapshot_write", None),
        (durable, "recover", "durable.recover", None),
        (store, "latest_snapshot", "durable.restore", None),
        (mgr, "restore_state", "durable.restore", None),
    ]


def campaign_points():
    from repro.core import system
    from repro.eval import runner

    return [
        (runner, "run_campaign", "eval.campaign", None),
        (system.NomLocSystem, "gather_link_records", "measure.gather", None),
        (system.LinkRecord, "estimate", "pdp.estimate", None),
    ] + core_points()


def _per(value: float, count: float, scale: float = 1.0) -> float:
    return value / count * scale if count else 0.0


def per_layer_metrics(spans, fixes: int, extra: dict) -> dict[str, float]:
    """Every per-layer metric from one traced phase's spans.

    ``fixes`` is the number of fixes (or session updates) the traced
    phase completed; ``extra`` carries the counts that come from outside
    the spans (cache statistics, client-side backlog, overhead).
    Metrics of layers the workload never reaches are 0.
    """
    s = summarize(spans)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    batch_calls = calls("localizer.locate_batch")
    batch_fixes = calls("localizer.merge") - calls("localizer.assemble")
    if batch_calls:
        lanes = batch_fixes / batch_calls
    else:
        lanes = 1.0 if calls("localizer.merge") else 0.0
    snapshots = calls("durable.snapshot_write")
    recoveries = calls("durable.recover")
    restore = total("durable.restore")
    out = {
        "localizer.assemble_ms": _per(
            total("localizer.assemble") + total("localizer.assemble_batch"),
            fixes, 1e3),
        "localizer.solve_ms": _per(
            total("localizer.solve") + self_s("localizer.locate_batch"),
            fixes, 1e3),
        "localizer.merge_ms": _per(total("localizer.merge"), fixes, 1e3),
        "localizer.calls": _per(
            sum(v["calls"] for k, v in s.items() if k.startswith("localizer.")),
            fixes),
        "serving.self_ms": _per(
            self_s("serving.locate_request") + self_s("serving.batch"),
            fixes, 1e3),
        "serving.batch_lanes_mean": lanes,
        "cluster.route_self_ms": _per(self_s("cluster.route"), fixes, 1e3),
        "gateway.decode_ms": _per(
            total("gateway.decode"), calls("gateway.ledger_batch"), 1e3),
        "gateway.ledger_batch_ms": _per(
            total("gateway.ledger_batch"), calls("gateway.ledger_batch"), 1e3),
        "gateway.ledger_estimate_ms": _per(
            total("gateway.ledger_estimate"),
            calls("gateway.ledger_estimate"), 1e3),
        "gateway.bridge_wait_ms": _per(
            self_s("gateway.bridge"), calls("gateway.bridge"), 1e3),
        "sessions.observe_self_us": _per(
            self_s("sessions.observe"), calls("sessions.observe"), 1e6),
        "sessions.evict_ms": _per(
            total("sessions.evict"), calls("sessions.evict"), 1e3),
        "durable.append_us": _per(
            self_s("durable.append"), calls("durable.append"), 1e6),
        "durable.flush_ms": _per(
            total("durable.flush"), calls("durable.flush"), 1e3),
        "durable.flushes": _per(calls("durable.flush"), fixes, 1e3),
        "durable.snapshot_ms": _per(
            total("durable.snapshot_state") + total("durable.snapshot_write"),
            snapshots, 1e3),
        "durable.snapshots": _per(snapshots, fixes, 1e3),
        "durable.recover_restore_ms": _per(restore, recoveries, 1e3),
        "durable.recover_replay_ms": _per(
            total("durable.recover") - restore, recoveries, 1e3),
        "measure.gather_ms": _per(total("measure.gather"), fixes, 1e3),
        "pdp.estimate_ms": _per(total("pdp.estimate"), fixes, 1e3),
        "eval.campaign_self_ms": _per(self_s("eval.campaign"), fixes, 1e3),
    }
    for name in PER_LAYER_UNITS:
        out.setdefault(name, 0.0)
    out.update(extra)
    return {name: float(out[name]) for name in PER_LAYER_UNITS}


def layer_waterfall(spans, wall_s: float) -> list[tuple[str, float, float]]:
    """``(layer, self seconds, share of wall)`` per layer, largest first."""
    per_layer: dict[str, float] = {}
    for name, entry in summarize(spans).items():
        layer = LAYER_OF_SPAN[name.split(".", 1)[0]]
        per_layer[layer] = per_layer.get(layer, 0.0) + entry["self_s"]
    rows = [(layer, t, t / wall_s if wall_s else 0.0)
            for layer, t in per_layer.items()]
    return sorted(rows, key=lambda r: -r[1])


def traced_metrics(outcome, spans, wall_s, fixes, extra, expected):
    """Per-layer metrics of a traced phase, after its call-count checks.

    ``expected`` maps span names to the call count the phase's inputs
    imply (or a ``range`` of counts); every mismatch fails the run.
    Returns the metrics and the report lines (checks, then the self-time
    waterfall).
    """
    s = summarize(spans)
    lines = []
    for name, want in expected.items():
        got = s.get(name, {}).get("calls", 0)
        ok = got in want if isinstance(want, range) else got == want
        outcome.gate(ok, f"call count {name}: {got}, expected {want}")
        lines.append(f"calls {name}: {got} (expected {want})")
    lines.append(f"traced wall {wall_s:.3f} s over {fixes} fixes")
    for layer, self_s, share in layer_waterfall(spans, wall_s):
        lines.append(
            f"layer {layer:<9} self {self_s * 1e3:10.1f} ms  "
            f"{self_s * 1e3 / max(1, fixes):8.4f} ms/fix  "
            f"{share * 100:5.1f}% of wall"
        )
    return per_layer_metrics(spans, fixes, extra), lines
