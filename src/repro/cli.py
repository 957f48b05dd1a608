"""Command-line interface for the NomLoc reproduction.

Usage::

    python -m repro scenarios                 # list venues, render maps
    python -m repro locate lab 6.4 4.2        # one localization query
    python -m repro locate lab 6.4 4.2 --static --seed 7
    python -m repro experiment fig8           # run a paper experiment
    python -m repro experiment fig9 --scenario lobby
    python -m repro record lab out.json       # record a measurement campaign
    python -m repro replay out.json           # re-localize it offline
    python -m repro batch-locate lab -n 24    # batch queries through the service
    python -m repro serve lab --queries 50    # simulated serving run + metrics
    python -m repro profile lab -n 6          # per-stage latency breakdown
    python -m repro profile lab --trace-out traces.jsonl
    python -m repro guard --selftest          # guard-layer corruption drill
    python -m repro guard lab --faults nan-burst:0.3:AP2
    python -m repro track lab --objects 4     # streaming tracking sessions
    python -m repro track lab --selftest      # deterministic-replay drill
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NomLoc (ICDCS 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list built-in venues and render them")

    locate = sub.add_parser("locate", help="run one localization query")
    locate.add_argument("scenario", help="scenario name (lab, lobby)")
    locate.add_argument("x", type=float, help="object x coordinate (m)")
    locate.add_argument("y", type=float, help="object y coordinate (m)")
    locate.add_argument(
        "--static", action="store_true", help="pin the nomadic AP at home"
    )
    locate.add_argument("--seed", type=int, default=0)
    locate.add_argument(
        "--packets", type=int, default=30, help="CSI packets per link"
    )
    locate.add_argument(
        "--no-map", action="store_true", help="skip the ASCII rendering"
    )

    experiment = sub.add_parser(
        "experiment", help="run one paper experiment and print its rows"
    )
    experiment.add_argument(
        "name",
        choices=["fig3", "fig7", "fig8", "fig9", "fig10", "baselines"],
    )
    experiment.add_argument(
        "--scenario", default="lab", help="scenario for per-venue experiments"
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--repetitions", type=int, default=3)
    experiment.add_argument(
        "--packets", type=int, default=15, help="CSI packets per link"
    )
    experiment.add_argument(
        "--workers",
        type=int,
        default=0,
        help="campaign worker processes (0 = sequential; results are "
        "bit-identical for any worker count)",
    )

    record = sub.add_parser("record", help="record a measurement campaign")
    record.add_argument("scenario")
    record.add_argument("output", help="output JSON path")
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--repetitions", type=int, default=1)
    record.add_argument("--packets", type=int, default=30)

    replay = sub.add_parser("replay", help="re-localize a recorded campaign")
    replay.add_argument("dataset", help="dataset JSON path")
    replay.add_argument(
        "--paper-literal",
        action="store_true",
        help="disable nomadic site-pair constraints (Eq. 13 exactly)",
    )

    heatmap = sub.add_parser(
        "heatmap", help="render a localization-error heatmap of a venue"
    )
    heatmap.add_argument("scenario")
    heatmap.add_argument(
        "--static", action="store_true", help="pin the nomadic AP at home"
    )
    heatmap.add_argument("--spacing", type=float, default=1.5)
    heatmap.add_argument("--packets", type=int, default=8)
    heatmap.add_argument("--seed", type=int, default=0)

    batch = sub.add_parser(
        "batch-locate",
        help="run a batch of queries through the localization service",
    )
    _add_serving_args(batch)
    batch.add_argument(
        "-n", "--count", type=int, default=12, help="number of queries"
    )
    batch.add_argument(
        "--selftest",
        action="store_true",
        help="verify service answers match the direct localizer bit-for-bit",
    )

    serve = sub.add_parser(
        "serve",
        help="simulated serving run: stream queries, report service metrics",
    )
    _add_serving_args(serve)
    serve.add_argument(
        "--queries", type=int, default=48, help="stream length"
    )
    serve.add_argument(
        "--timeout", type=float, default=None, help="per-query deadline (s)"
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64, help="in-flight bound"
    )

    cluster = sub.add_parser(
        "cluster",
        help="simulated cluster run: shard + replicate the service, "
        "optionally inject faults, report cluster metrics",
    )
    _add_serving_args(cluster)
    cluster.add_argument(
        "--queries", type=int, default=24, help="number of routed queries"
    )
    cluster.add_argument(
        "--shards", type=int, default=2, help="number of shards"
    )
    cluster.add_argument(
        "--replicas", type=int, default=2, help="replicas per shard"
    )
    cluster.add_argument(
        "--timeout", type=float, default=None, help="per-query deadline (s)"
    )
    cluster.add_argument(
        "--heartbeat-every",
        type=int,
        default=8,
        help="heartbeat sweep every N queries (0 = never)",
    )
    cluster.add_argument(
        "--crash",
        metavar="S:R:AFTER[:UNTIL]",
        action="append",
        default=[],
        help="crash replica R of shard S after the AFTER-th query "
        "(optionally recovering at UNTIL); repeatable",
    )
    cluster.add_argument(
        "--stale",
        metavar="S:R:AFTER[:UNTIL]",
        action="append",
        default=[],
        help="cut replica R of shard S off from topology updates; "
        "repeatable",
    )
    cluster.add_argument(
        "--selftest",
        action="store_true",
        help="verify replica-served answers match a single sequential "
        "service bit-for-bit",
    )

    guard = sub.add_parser(
        "guard",
        help="measurement-fault drill: inject link corruption, report "
        "per-link verdicts and degradation-aware estimates",
    )
    guard.add_argument(
        "scenario", nargs="?", default="lab", help="scenario name (lab, lobby)"
    )
    guard.add_argument(
        "--faults",
        metavar="TYPE:RATE[:AP]",
        action="append",
        default=[],
        help="schedule a link fault (e.g. nan-burst:0.3:AP2, "
        "subcarrier-dropout:0.5, ap-outage:1.0:AP3); repeatable",
    )
    guard.add_argument(
        "--selftest",
        action="store_true",
        help="run the scripted corruption drill and gate on its checks",
    )
    guard.add_argument(
        "--no-gate",
        action="store_true",
        help="run the injector but skip gating (the comparison arm)",
    )
    guard.add_argument("--seed", type=int, default=7)
    guard.add_argument(
        "-n", "--count", type=int, default=6, help="number of queries"
    )
    guard.add_argument(
        "--packets", type=int, default=24, help="CSI packets per link"
    )

    track = sub.add_parser(
        "track",
        help="streaming tracking sessions: walk seeded objects through "
        "the venue, stream their estimates into per-object filters and "
        "zone/geofence sessions, report occupancy analytics",
    )
    _add_serving_args(track)
    track.add_argument(
        "--objects", type=int, default=3, help="number of tracked objects"
    )
    track.add_argument(
        "--steps", type=int, default=10, help="fix ticks per object"
    )
    track.add_argument(
        "--zones",
        metavar="ROWSxCOLS",
        default="2x3",
        help="zone grid partition of the venue (e.g. 2x3)",
    )
    track.add_argument(
        "--filter",
        choices=("kalman", "particle"),
        default="kalman",
        help="per-object motion filter",
    )
    track.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        metavar="RATE",
        help="fraction of fixes replaced by a far-off zero-confidence "
        "position (models guard-flagged corruption)",
    )
    track.add_argument(
        "--blind",
        action="store_true",
        help="ignore confidence when setting measurement noise (the "
        "confidence-blind reference arm)",
    )
    track.add_argument(
        "--selftest",
        action="store_true",
        help="deterministic-replay drill: seeded runs must produce "
        "byte-identical event logs, and confidence-modulated filtering "
        "must beat the blind arm under injected corruption",
    )
    track.add_argument(
        "--durable",
        action="store_true",
        help="journal every applied fix to a WAL SQLite session store "
        "with periodic fleet snapshots (see repro.sessions.durable)",
    )
    track.add_argument(
        "--db",
        default="track.db",
        help="session store path for --durable (default: track.db)",
    )
    track.add_argument(
        "--checkpoint-every",
        type=int,
        default=100,
        metavar="N",
        help="journal entries between snapshots (--durable)",
    )
    track.add_argument(
        "--group-commit",
        type=int,
        default=16,
        metavar="N",
        help="journal rows per fsynced transaction (--durable)",
    )
    track.add_argument(
        "--kill-after",
        type=int,
        default=0,
        metavar="K",
        help="SIGKILL this process after K applied fixes — the "
        "crash half of the recovery drill (needs --durable)",
    )
    track.add_argument(
        "--resume",
        action="store_true",
        help="recover from the --db store (snapshot + journal replay) "
        "and continue the run where the journal ends",
    )

    gateway = sub.add_parser(
        "gateway",
        help="network front door: asyncio HTTP/WebSocket server with a "
        "durable measurement ledger over a localization cluster",
    )
    gateway.add_argument(
        "scenario", nargs="?", default="lab", help="scenario name (lab, lobby)"
    )
    gateway.add_argument(
        "--serve",
        action="store_true",
        help="serve until SIGTERM/SIGINT (the default action)",
    )
    gateway.add_argument("--host", default="127.0.0.1", help="bind address")
    gateway.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    gateway.add_argument(
        "--db",
        default="gateway.db",
        help="ledger database path (WAL sqlite; ':memory:' disables "
        "durability)",
    )
    gateway.add_argument(
        "--shards", type=int, default=1, help="cluster shards"
    )
    gateway.add_argument(
        "--replicas", type=int, default=1, help="replicas per shard"
    )
    gateway.add_argument(
        "--solver-workers",
        type=int,
        default=2,
        help="solver threads behind the async/sync bridge",
    )
    gateway.add_argument(
        "--selftest",
        action="store_true",
        help="in-process client round-trip: socket answers must match the "
        "direct service bit-for-bit, acked ingest must survive a drain",
    )
    gateway.add_argument(
        "--packets", type=int, default=4, help="CSI packets per link (selftest)"
    )
    gateway.add_argument(
        "--load-s",
        type=float,
        default=1.0,
        help="selftest loadgen duration in seconds",
    )
    gateway.add_argument(
        "--p95-bound-s",
        type=float,
        default=2.0,
        help="selftest fails if loadgen p95 latency exceeds this",
    )
    gateway.add_argument("--seed", type=int, default=0)

    profile = sub.add_parser(
        "profile",
        help="trace end-to-end queries and print a per-stage latency table",
    )
    profile.add_argument("scenario", help="scenario name (lab, lobby)")
    profile.add_argument(
        "-n", "--count", type=int, default=6, help="number of queries"
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--packets", type=int, default=8, help="CSI packets per link"
    )
    profile.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="also write the raw spans as JSONL",
    )
    return parser


def _add_serving_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``batch-locate`` and ``serve`` subcommands."""
    parser.add_argument("scenario", help="scenario name (lab, lobby)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--packets", type=int, default=8, help="CSI packets per link"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes, which share the warm caches "
        "copy-on-write (0 = inline reference path)",
    )
    parser.add_argument(
        "--lp-batch",
        type=int,
        default=0,
        help="stack up to N queries' relaxation LPs into one batched "
        "solve (0 = per-query scalar solves)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the topology/bisector caches",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable span tracing; metrics include per-stage aggregates",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "scenarios": _cmd_scenarios,
        "locate": _cmd_locate,
        "experiment": _cmd_experiment,
        "record": _cmd_record,
        "replay": _cmd_replay,
        "heatmap": _cmd_heatmap,
        "batch-locate": _cmd_batch_locate,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "guard": _cmd_guard,
        "track": _cmd_track,
        "gateway": _cmd_gateway,
        "profile": _cmd_profile,
    }[args.command]
    return handler(args)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .environment import SCENARIOS, get_scenario
    from .viz import render_scenario

    for name in sorted(SCENARIOS):
        scenario = get_scenario(name)
        nomadic = ", ".join(ap.name for ap in scenario.nomadic_aps)
        print(
            f"== {name}: {scenario.plan.boundary.area():.0f} m^2, "
            f"{len(scenario.aps)} APs (nomadic: {nomadic}), "
            f"{len(scenario.test_sites)} test sites, "
            f"clutter {scenario.plan.clutter_density():.0%} =="
        )
        print(render_scenario(scenario, width=72))
        print()
    return 0


def _cmd_locate(args: argparse.Namespace) -> int:
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .geometry import Point
    from .viz import render_scenario

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    truth = Point(args.x, args.y)
    if not scenario.plan.contains(truth):
        print(
            f"error: ({args.x}, {args.y}) is outside the {args.scenario} venue",
            file=sys.stderr,
        )
        return 2
    system = NomLocSystem(
        scenario,
        SystemConfig(
            packets_per_link=args.packets, use_nomadic=not args.static
        ),
    )
    estimate = system.locate(truth, np.random.default_rng(args.seed))
    mode = "static" if args.static else "nomadic"
    print(
        f"{mode} estimate: ({estimate.position.x:.2f}, "
        f"{estimate.position.y:.2f}); error "
        f"{estimate.error_to(truth):.2f} m; "
        f"{estimate.num_constraints} constraints, relaxation cost "
        f"{estimate.relaxation_cost:.3f}"
    )
    if not args.no_map:
        print(
            render_scenario(
                scenario,
                width=72,
                truth=truth,
                estimate=estimate.position,
                region=estimate.region,
            )
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .eval import (
        ExperimentConfig,
        baseline_comparison,
        fig3_delay_profiles,
        fig7_pdp_accuracy,
        fig8_slv,
        fig9_error_cdf,
        fig10_position_error,
        format_cdf_table,
        format_delay_profile,
        format_stats_table,
        format_table,
    )

    config = ExperimentConfig(
        repetitions=args.repetitions,
        packets_per_link=args.packets,
        seed=args.seed,
        workers=args.workers,
    )
    if args.name == "fig3":
        result = fig3_delay_profiles(config)
        print(format_delay_profile(result.los_profile, "LOS"))
        print()
        print(format_delay_profile(result.nlos_profile, "NLOS"))
        print(f"\nNLOS/LOS first-tap ratio: {result.first_tap_ratio():.3f}")
    elif args.name == "fig7":
        result = fig7_pdp_accuracy(args.scenario, config)
        rows = [
            [i + 1, acc] for i, acc in enumerate(result.site_accuracies)
        ]
        print(format_table(["position index", "PDP accuracy"], rows))
        print(f"\nmean accuracy: {result.mean_accuracy:.3f}")
    elif args.name == "fig8":
        result = fig8_slv(config)
        rows = [
            [scen, mode, result.slv[scen][mode], result.stats[scen][mode].mean]
            for scen in result.slv
            for mode in ("static", "nomadic")
        ]
        print(format_table(["scenario", "deployment", "SLV", "mean err(m)"], rows))
    elif args.name == "fig9":
        result = fig9_error_cdf(args.scenario, config)
        print(
            format_cdf_table(
                {"static": result.static_cdf, "nomadic": result.nomadic_cdf}
            )
        )
    elif args.name == "fig10":
        result = fig10_position_error(args.scenario, config)
        print(
            format_cdf_table(
                {f"ER={er:.0f}": cdf for er, cdf in sorted(result.cdfs.items())}
            )
        )
    else:  # baselines
        print(format_stats_table(baseline_comparison(args.scenario, config)))
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .core import NomLocSystem, SystemConfig
    from .data import record_dataset
    from .environment import get_scenario

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=args.packets)
    )
    dataset = record_dataset(
        system, repetitions=args.repetitions, seed=args.seed
    )
    dataset.save(args.output)
    print(
        f"recorded {len(dataset)} queries over {len(scenario.test_sites)} "
        f"sites -> {args.output}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .core import LocalizerConfig
    from .data import Dataset, replay_dataset
    from .eval import ErrorStats

    try:
        dataset = Dataset.load(args.dataset)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = (
        LocalizerConfig(include_nomadic_pairs=False)
        if args.paper_literal
        else None
    )
    errors = replay_dataset(dataset, config)
    stats = ErrorStats.from_errors(errors)
    print(
        f"{len(errors)} queries: mean {stats.mean:.2f} m, median "
        f"{stats.median:.2f} m, p90 {stats.p90:.2f} m, SLV {stats.slv:.2f}"
    )
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .viz import render_heatmap

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = NomLocSystem(
        scenario,
        SystemConfig(
            packets_per_link=args.packets, use_nomadic=not args.static
        ),
    )

    def sample(p):
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [args.seed, int(p.x * 100), int(p.y * 100)]
            )
        )
        return system.localization_error(p, rng)

    mode = "static" if args.static else "nomadic"
    print(f"{mode} deployment localization error over a "
          f"{args.spacing} m grid:")
    hm = render_heatmap(
        scenario.plan, sample, grid_spacing_m=args.spacing, width=72
    )
    print(hm.text)
    print(hm.legend())
    values = list(hm.values)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    print(f"mean error {mean:.2f} m, SLV {var:.2f}")
    return 0


def _serving_setup(args: argparse.Namespace):
    """Scenario + measurement system + seeded query generator, shared by
    the ``batch-locate`` and ``serve`` commands."""
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario

    scenario = get_scenario(args.scenario)
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=args.packets)
    )

    def queries(count: int):
        sites = scenario.test_sites
        for i in range(count):
            site = sites[i % len(sites)]
            rng = np.random.default_rng(
                np.random.SeedSequence([args.seed, i])
            )
            yield site, tuple(system.gather_anchors(site, rng))

    return scenario, system, queries


def _print_metrics(snapshot: dict) -> None:
    """Render a service metrics snapshot as aligned key/value lines."""
    print(
        f"  throughput {snapshot['throughput_qps']:.1f} q/s | latency "
        f"p50 {snapshot['latency_p50_s'] * 1e3:.1f} ms, "
        f"p95 {snapshot['latency_p95_s'] * 1e3:.1f} ms | "
        f"completed {snapshot['completed']}, degraded "
        f"{snapshot['degraded']}, rejected {snapshot['rejected']}"
    )
    print(
        f"  queue wait p50 {snapshot['queue_wait_p50_s'] * 1e3:.2f} ms, "
        f"p95 {snapshot['queue_wait_p95_s'] * 1e3:.2f} ms "
        f"(mean {snapshot['queue_wait_mean_s'] * 1e3:.2f} ms)"
    )
    topo = snapshot.get("topology_cache")
    if topo is not None:
        print(
            f"  topology cache: {topo['hits']} hits / "
            f"{topo['misses']} misses (rate {topo['hit_rate']:.0%})"
        )
    bis = snapshot.get("bisector_cache")
    if bis is not None:
        print(
            f"  bisector cache: {bis['hits']} hits / "
            f"{bis['misses']} misses (rate {bis['hit_rate']:.0%})"
        )
    spans = snapshot.get("spans")
    if spans:
        from .obs import format_stage_table

        print("  stage breakdown:")
        for line in format_stage_table(spans).splitlines():
            print(f"    {line}")


def _trace_tracer(args: argparse.Namespace):
    """Install a fresh tracer when ``--trace`` was given (else no-op)."""
    if not getattr(args, "trace", False):
        return None
    from . import obs

    return obs.enable()


def _cmd_batch_locate(args: argparse.Namespace) -> int:
    from .serving import LocalizationService, ServingConfig

    try:
        if args.count < 1:
            raise ValueError("--count must be at least 1")
        scenario, system, queries = _serving_setup(args)
        config = ServingConfig(
            max_workers=args.workers,
            lp_batch=args.lp_batch,
            cache_topologies=not args.no_cache,
            cache_bisectors=not args.no_cache,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _trace_tracer(args)
    batch = list(queries(args.count))
    # Metrics are flushed in ``finally``: a SIGINT (KeyboardInterrupt)
    # mid-batch still reports whatever the service completed, instead of
    # discarding the run's observability with the traceback.
    responses = []
    interrupted = False
    service = LocalizationService(scenario.plan.boundary, config=config)
    try:
        responses = service.batch([anchors for _, anchors in batch])
    except KeyboardInterrupt:
        interrupted = True
        print("interrupted; flushing service metrics", file=sys.stderr)
    finally:
        snapshot = service.metrics_snapshot()
        service.close()
    errors = []
    for (truth, _), resp in zip(batch, responses):
        errors.append(resp.error_to(truth))
        flag = f" [degraded: {resp.reason}]" if resp.degraded else ""
        print(
            f"  ({truth.x:5.2f}, {truth.y:5.2f}) -> "
            f"({resp.position.x:5.2f}, {resp.position.y:5.2f})  "
            f"err {errors[-1]:5.2f} m  "
            f"{resp.latency_s * 1e3:6.1f} ms{flag}"
        )
    if errors:
        print(f"{len(responses)} queries, mean error "
              f"{sum(errors) / len(errors):.2f} m")
    _print_metrics(snapshot)
    if interrupted:
        return 130
    if args.selftest:
        mismatches = _serving_selftest(scenario, batch, responses)
        if mismatches:
            print(f"SELFTEST FAIL: {mismatches} mismatching queries",
                  file=sys.stderr)
            return 1
        print("SELFTEST OK: service answers identical to direct localizer")
    return 0


def _serving_selftest(scenario, batch, responses) -> int:
    """Count service answers differing from the direct localizer path."""
    from .core import NomLocLocalizer

    localizer = NomLocLocalizer(scenario.plan.boundary)
    mismatches = 0
    for (_, anchors), resp in zip(batch, responses):
        direct = localizer.locate(anchors)
        if resp.degraded or resp.position != direct.position:
            mismatches += 1
    return mismatches


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import LocalizationService, ServingConfig

    try:
        if args.queries < 1:
            raise ValueError("--queries must be at least 1")
        scenario, system, queries = _serving_setup(args)
        config = ServingConfig(
            max_workers=args.workers,
            lp_batch=args.lp_batch,
            queue_capacity=args.queue_capacity,
            timeout_s=args.timeout,
            cache_topologies=not args.no_cache,
            cache_bisectors=not args.no_cache,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _trace_tracer(args)
    mode = f"{args.workers} worker processes" if args.workers else "sequential"
    if args.lp_batch > 1:
        mode += f", lp-batch {args.lp_batch}"
    print(
        f"serving {args.queries} queries against {scenario.name} "
        f"({mode}, queue capacity {config.queue_capacity})"
    )
    truths = []
    errors = []
    interrupted = False
    service = LocalizationService(scenario.plan.boundary, config=config)
    try:
        stream = queries(args.queries)

        def requests():
            for truth, anchors in stream:
                truths.append(truth)
                yield anchors

        for resp in service.serve(requests()):
            truth = truths[len(errors)]
            errors.append(resp.error_to(truth))
    except KeyboardInterrupt:
        # SIGINT mid-stream: stop ingesting, but still flush and report
        # the metrics of everything served so far.
        interrupted = True
        print("interrupted; flushing service metrics", file=sys.stderr)
    finally:
        snapshot = service.metrics_snapshot()
        service.close()
    if errors:
        print(f"served {len(errors)} queries, mean error "
              f"{sum(errors) / len(errors):.2f} m")
    _print_metrics(snapshot)
    return 130 if interrupted else 0


def _parse_fault_specs(specs, kind):
    """``S:R:AFTER[:UNTIL]`` strings → one merged :class:`FaultPlan`."""
    from .cluster import FaultPlan

    plan = FaultPlan()
    builder = {"crash": FaultPlan.crash, "stale": FaultPlan.stale_topology}[
        kind
    ]
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad --{kind} spec {spec!r} (want S:R:AFTER[:UNTIL])"
            )
        shard, replica, after = (int(p) for p in parts[:3])
        until = int(parts[3]) if len(parts) == 4 else None
        plan = plan.plus(builder(shard, replica, after, until))
    return plan


def _print_cluster_metrics(snapshot: dict) -> None:
    """Render a cluster metrics snapshot as aligned key/value lines."""
    print(
        f"  availability {snapshot['availability']:.1%} "
        f"({snapshot['answered']}/{snapshot['routed']} answered, "
        f"{snapshot['unavailable']} unavailable) | "
        f"degraded {snapshot['degraded']} "
        f"(stale {snapshot['stale_flagged']})"
    )
    print(
        f"  failovers {snapshot['failovers']}, retries "
        f"{snapshot['retries']} (denied {snapshot['retry_denied']}), "
        f"heartbeat rounds {snapshot['heartbeat_rounds']}"
    )
    print(
        f"  latency p50 {snapshot['latency_p50_s'] * 1e3:.1f} ms, "
        f"p95 {snapshot['latency_p95_s'] * 1e3:.1f} ms | "
        f"throughput {snapshot['throughput_qps']:.1f} q/s"
    )
    fleet = snapshot["services"]
    print(
        f"  fleet: {fleet['replica_count']} replicas, "
        f"{fleet['completed']} queries served, "
        f"cache hit rate {fleet['cache_hit_rate']:.0%}, "
        f"shed {fleet['queue_rejected_total']}"
    )
    states = ", ".join(
        f"{rid}={state}" for rid, state in sorted(snapshot["states"].items())
    )
    print(f"  states: {states}")
    spans = snapshot.get("spans")
    if spans:
        from .obs import format_stage_table

        print("  stage breakdown:")
        for line in format_stage_table(spans).splitlines():
            print(f"    {line}")


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import ClusterConfig, LocalizationCluster
    from .serving import ServingConfig

    try:
        if args.queries < 1:
            raise ValueError("--queries must be at least 1")
        scenario, system, queries = _serving_setup(args)
        plan = _parse_fault_specs(args.crash, "crash").plus(
            _parse_fault_specs(args.stale, "stale")
        )
        config = ClusterConfig(
            num_shards=args.shards,
            replicas_per_shard=args.replicas,
            heartbeat_every=args.heartbeat_every,
            serving=ServingConfig(
                max_workers=args.workers,
                lp_batch=args.lp_batch,
                timeout_s=args.timeout,
                cache_topologies=not args.no_cache,
                cache_bisectors=not args.no_cache,
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _trace_tracer(args)
    faulted = f", {len(plan.faults)} faults scripted" if plan.faults else ""
    print(
        f"cluster of {args.shards} shard(s) x {args.replicas} replica(s) "
        f"serving {args.queries} queries against {scenario.name}{faulted}"
    )
    batch = list(queries(args.queries))
    responses = []
    interrupted = False
    cluster = LocalizationCluster(
        scenario.plan.boundary, config=config, fault_plan=plan
    )
    try:
        responses = cluster.batch([anchors for _, anchors in batch])
    except KeyboardInterrupt:
        interrupted = True
        print("interrupted; flushing cluster metrics", file=sys.stderr)
        snapshot = cluster.metrics_snapshot()
    else:
        snapshot = cluster.metrics_snapshot()
    finally:
        cluster.close()
    errors = [
        resp.error_to(truth) for (truth, _), resp in zip(batch, responses)
    ]
    if errors:
        degraded = sum(1 for r in responses if r.degraded)
        print(
            f"{len(responses)} queries routed, mean error "
            f"{sum(errors) / len(errors):.2f} m, {degraded} flagged degraded"
        )
    _print_cluster_metrics(snapshot)
    if interrupted:
        return 130
    if args.selftest:
        mismatches = _cluster_selftest(scenario, batch, responses)
        if mismatches:
            print(
                f"SELFTEST FAIL: {mismatches} mismatching queries",
                file=sys.stderr,
            )
            return 1
        print(
            "SELFTEST OK: replica-served answers identical to a single "
            "sequential service"
        )
    return 0


def _cluster_selftest(scenario, batch, responses) -> int:
    """Count replica-served answers differing from the direct localizer.

    Fallback answers (``reason == "unavailable"``) are exempt — they are
    flagged as not being SP estimates — but *stale or degraded* replica
    answers must still match what the localizer computes, since staleness
    only flags the topology version, never changes the solve.
    """
    from .core import NomLocLocalizer

    localizer = NomLocLocalizer(scenario.plan.boundary)
    mismatches = 0
    for (_, anchors), resp in zip(batch, responses):
        if resp.reason == "unavailable":
            continue
        direct = localizer.locate(anchors)
        if resp.estimate is None or resp.position != direct.position:
            mismatches += 1
    return mismatches


def _cmd_guard(args: argparse.Namespace) -> int:
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .guard import (
        GuardedSystem,
        InsufficientLinksError,
        LinkFaultInjector,
        LinkFaultPlan,
        parse_fault_spec,
        run_selftest,
    )

    if args.selftest:
        result = run_selftest(seed=args.seed)
        for check in result["checks"]:
            mark = "ok " if check["passed"] else "FAIL"
            print(f"  [{mark}] {check['name']}: {check['detail']}")
        if not result["passed"]:
            print("GUARD SELFTEST FAIL", file=sys.stderr)
            return 1
        print("GUARD SELFTEST OK: all corruption drills detected and gated")
        return 0

    try:
        if args.count < 1:
            raise ValueError("--count must be at least 1")
        scenario = get_scenario(args.scenario)
        plan = LinkFaultPlan(
            tuple(parse_fault_spec(spec) for spec in args.faults)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=args.packets)
    )
    guarded = GuardedSystem(
        system,
        injector=LinkFaultInjector(plan, seed=args.seed),
        gate=not args.no_gate,
    )
    mode = "gating OFF" if args.no_gate else "gating ON"
    print(
        f"guard drill over {scenario.name}: {len(plan.faults)} fault(s) "
        f"scheduled, {mode}, {args.count} queries"
    )
    errors = []
    unanswered = 0
    degraded_total = 0
    rejected_total = 0
    sites = scenario.test_sites
    for i in range(args.count):
        truth = sites[i % len(sites)]
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, i]))
        try:
            estimate, gate = guarded.locate_with_result(truth, rng)
        except InsufficientLinksError as exc:
            unanswered += 1
            print(f"  ({truth.x:5.2f}, {truth.y:5.2f}) -> UNANSWERED: {exc}")
            continue
        err = estimate.error_to(truth)
        errors.append(err)
        degraded_total += len(gate.degraded)
        rejected_total += len(gate.rejected)
        flags = []
        if gate.degraded:
            flags.append(f"degraded: {', '.join(gate.degraded)}")
        if gate.rejected:
            flags.append(f"rejected: {', '.join(gate.rejected)}")
        suffix = f"  [{'; '.join(flags)}]" if flags else ""
        print(
            f"  ({truth.x:5.2f}, {truth.y:5.2f}) -> "
            f"({estimate.position.x:5.2f}, {estimate.position.y:5.2f})  "
            f"err {err:5.2f} m  confidence {estimate.confidence:.2f}"
            f"{suffix}"
        )
    if errors:
        print(
            f"{len(errors)} answered ({unanswered} unanswered), mean error "
            f"{sum(errors) / len(errors):.2f} m, {degraded_total} degraded "
            f"link(s), {rejected_total} rejected link(s)"
        )
    return 0


def _parse_zone_grid(spec: str) -> tuple[int, int]:
    """``"2x3"`` → ``(2, 3)``, validating both factors."""
    parts = spec.lower().split("x")
    try:
        rows, cols = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--zones must look like ROWSxCOLS, got {spec!r}")
    if rows < 1 or cols < 1:
        raise ValueError("--zones needs at least a 1x1 grid")
    return rows, cols


def _track_run(args: argparse.Namespace, modulate: bool = True) -> dict:
    """One seeded tracking run: objects walk, estimates stream, sessions
    track.  Returns the manager plus per-fix errors and the log digest."""
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .geometry import Point
    from .serving import LocalizationService, ServingConfig
    from .sessions import GeofenceRule, SessionConfig, SessionManager, ZoneMap
    from .tracking import random_trajectory

    rows, cols = _parse_zone_grid(args.zones)
    scenario = get_scenario(args.scenario)
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=args.packets)
    )
    plan = scenario.plan
    zones = ZoneMap.grid(plan.boundary, rows, cols)
    # The far corner of the grid doubles as a geofenced demo zone so the
    # drill exercises the alert path whenever a walk wanders into it.
    rules = (GeofenceRule(zone=zones.names()[-1], forbidden=True),)
    session_config = SessionConfig(
        filter_kind=args.filter,
        modulate_noise=modulate,
        idle_timeout_s=max(30.0, 4.0 * args.steps),
        seed=args.seed,
    )
    store = None
    recovery = None
    applied_skip = 0  # fixes already journaled (resume skips them)
    if getattr(args, "durable", False):
        from .sessions import SessionStore
        from .sessions.durable import recover

        store = SessionStore(args.db, group_commit=args.group_commit)
        if getattr(args, "resume", False):
            manager, recovery = recover(
                store,
                zones,
                session_config,
                rules,
                plan=plan,
                checkpoint_every=args.checkpoint_every,
            )
            applied_skip = store.fix_count()
        else:
            manager = SessionManager(
                zones,
                session_config,
                rules,
                plan=plan,
                store=store,
                checkpoint_every=args.checkpoint_every,
            )
    else:
        manager = SessionManager(zones, session_config, rules, plan=plan)
    trajectories = [
        random_trajectory(
            plan,
            np.random.default_rng(
                np.random.SeedSequence([args.seed, 1000 + i])
            ),
            num_waypoints=4,
        )
        for i in range(args.objects)
    ]
    object_ids = [f"obj-{i:03d}" for i in range(args.objects)]
    service = LocalizationService(
        plan.boundary,
        config=ServingConfig(
            max_workers=args.workers,
            lp_batch=args.lp_batch,
            cache_topologies=not args.no_cache,
            cache_bisectors=not args.no_cache,
        ),
    )
    errors: list[float] = []
    kill_after = getattr(args, "kill_after", 0) or 0
    applied = 0  # fixes applied by THIS process
    try:
        for tick in range(args.steps):
            # Ticks fully covered by the journal need no re-solving —
            # the fix stream is seeded per (tick, object), not
            # sequential, so skipping is exact.
            if (tick + 1) * args.objects <= applied_skip:
                continue
            truths = []
            batch = []
            for i, traj in enumerate(trajectories):
                truth = traj.positions[min(tick, len(traj) - 1)]
                truths.append(truth)
                rng = np.random.default_rng(
                    np.random.SeedSequence([args.seed, tick, i])
                )
                batch.append(tuple(system.gather_anchors(truth, rng)))
            responses = service.batch(batch)
            for i, (truth, resp) in enumerate(zip(truths, responses)):
                if tick * args.objects + i < applied_skip:
                    continue  # journaled by the pre-crash process
                fix, confidence = resp.position, resp.confidence
                crng = np.random.default_rng(
                    np.random.SeedSequence([args.seed, 77, tick, i])
                )
                if args.corrupt and crng.random() < args.corrupt:
                    # A guard-flagged bad fix: way off, zero confidence.
                    angle = crng.random() * 2.0 * np.pi
                    fix = Point(
                        fix.x + 6.0 * np.cos(angle),
                        fix.y + 6.0 * np.sin(angle),
                    )
                    confidence = 0.0
                update, _ = manager.observe(
                    object_ids[i], float(tick), fix, confidence=confidence
                )
                errors.append(update.position.distance_to(truth))
                applied += 1
                if kill_after and applied >= kill_after:
                    # The crash half of the recovery drill: die without
                    # flushing, cleanup, or goodbyes — exactly SIGKILL.
                    os.kill(os.getpid(), signal.SIGKILL)
    finally:
        service.close()
        if store is not None:
            manager.sync()
    result = {
        "manager": manager,
        "zones": zones,
        "errors": errors,
        "digest": manager.event_log.digest(),
        "chain": manager.event_log.chain(),
        "recovery": recovery,
    }
    if store is not None:
        result["store_counts"] = store.counts()
        store.close()
    return result


def _track_selftest(args: argparse.Namespace) -> int:
    """Gate on the session layer's determinism + confidence contracts."""
    first = _track_run(args)
    second = _track_run(args)
    corrupt_args = argparse.Namespace(**vars(args))
    corrupt_args.corrupt = max(args.corrupt, 0.25)
    modulated = _track_run(corrupt_args, modulate=True)
    blind = _track_run(corrupt_args, modulate=False)

    def median(values: list[float]) -> float:
        return sorted(values)[len(values) // 2]

    counts = first["manager"].event_log.counts()
    checks = [
        (
            "seeded replay produces byte-identical event logs",
            first["digest"] == second["digest"],
        ),
        (
            "seeded replay produces identical track errors",
            first["errors"] == second["errors"],
        ),
        (
            "confidence-modulated filtering beats blind under "
            f"{corrupt_args.corrupt:.0%} corruption "
            f"({median(modulated['errors']):.2f} m vs "
            f"{median(blind['errors']):.2f} m median)",
            median(modulated["errors"]) < median(blind["errors"]),
        ),
        (
            "zone events are well-formed (enters >= exits)",
            counts.get("enter", 0) >= counts.get("exit", 0),
        ),
    ]
    for name, passed in checks:
        print(f"  {'ok  ' if passed else 'FAIL'} {name}")
    if all(passed for _, passed in checks):
        print("SELFTEST OK: tracking sessions deterministic and "
              "confidence-aware")
        return 0
    print("SELFTEST FAIL", file=sys.stderr)
    return 1


def _cmd_track(args: argparse.Namespace) -> int:
    from .environment import get_scenario

    try:
        get_scenario(args.scenario)
        _parse_zone_grid(args.zones)
        if args.objects < 1:
            raise ValueError("--objects must be at least 1")
        if args.steps < 2:
            raise ValueError("--steps must be at least 2")
        if not 0.0 <= args.corrupt < 1.0:
            raise ValueError("--corrupt must be in [0, 1)")
        if args.checkpoint_every < 1:
            raise ValueError("--checkpoint-every must be at least 1")
        if args.group_commit < 1:
            raise ValueError("--group-commit must be at least 1")
        if args.kill_after < 0:
            raise ValueError("--kill-after must be non-negative")
        if (args.kill_after or args.resume) and not args.durable:
            raise ValueError("--kill-after/--resume need --durable")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        return _track_selftest(args)
    run = _track_run(args, modulate=not args.blind)
    manager, zones = run["manager"], run["zones"]
    rows, cols = _parse_zone_grid(args.zones)
    arm = "blind" if args.blind else "confidence-modulated"
    print(
        f"tracked {args.objects} object(s) for {args.steps} ticks over a "
        f"{rows}x{cols} zone grid ({args.filter} filter, {arm} noise)"
    )
    if run["recovery"] is not None:
        report = run["recovery"]
        print(
            f"recovered from {args.db}: snapshot@{report.snapshot_seq}, "
            f"{report.replayed} journal entries replayed, "
            f"{report.events} events verified onto the pre-crash chain"
        )
    if "store_counts" in run:
        counts = run["store_counts"]
        print(
            f"session store {args.db}: {counts['journal']} journal rows "
            f"({counts['fixes']} fixes), {counts['snapshots']} snapshot(s)"
        )
    for object_id in manager.object_ids():
        session = manager.session(object_id)
        inside = ", ".join(session.fsm.inside_zones()) or "-"
        print(
            f"  {object_id}: {session.updates} fixes, "
            f"sigma {session.filter.position_sigma_m():.2f} m, "
            f"in [{inside}]"
        )
    errors = sorted(run["errors"])
    print(
        f"track error median {errors[len(errors) // 2]:.2f} m, "
        f"max {errors[-1]:.2f} m over {len(errors)} fixes"
    )
    snapshot = manager.metrics_snapshot()
    event_counts = ", ".join(
        f"{kind}={count}" for kind, count in sorted(snapshot["events"].items())
    ) or "none"
    print(f"events: {event_counts}")
    for zone, stats in snapshot["zones"].items():
        if stats["visits"] == 0:
            continue
        print(
            f"  {zone}: occupancy {stats['occupancy']} "
            f"(peak {stats['peak_occupancy']}), {stats['visits']} visit(s), "
            f"mean dwell {stats['mean_dwell_s']:.1f} s"
        )
    print(f"event log digest {run['digest']}")
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from .environment import get_scenario
    from .gateway import GatewayConfig, GatewayServer

    try:
        scenario = get_scenario(args.scenario)
        config = GatewayConfig(
            host=args.host,
            port=args.port,
            db_path=args.db,
            num_shards=args.shards,
            replicas_per_shard=args.replicas,
            solver_workers=args.solver_workers,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        return _gateway_selftest(args, scenario, config)

    async def serve() -> None:
        server = GatewayServer(scenario.plan.boundary, config=config)
        await server.start()
        print(
            f"gateway listening on http://{server.host}:{server.port} "
            f"(scenario {scenario.name}, cluster "
            f"{config.num_shards}x{config.replicas_per_shard}, "
            f"ledger {config.db_path})",
            flush=True,
        )
        await server.serve_forever()
        print("gateway drained cleanly", flush=True)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # non-Unix fallback; Unix path drains in-loop
        pass
    return 0


def _gateway_selftest(args, scenario, config) -> int:
    """In-process round trip over a real socket, gated on bit-exactness.

    Three checks, mirroring the ``cluster --selftest`` conventions:
    answers served over the wire equal the direct service's bit for bit;
    a replayed batch_id re-acks as a duplicate without double-ingesting;
    and after a graceful drain every acked batch has a stored estimate
    (no acknowledged write lost).
    """
    import asyncio
    import tempfile
    from dataclasses import replace as dc_replace
    from pathlib import Path

    from .gateway import (
        AsyncGatewayClient,
        GatewayServer,
        LoadGenConfig,
        MeasurementLedger,
        run_loadgen,
    )
    from .serving import LocalizationService

    _, _, queries = _serving_setup(args)
    batch = list(queries(6))
    anchor_sets = [anchors for _, anchors in batch]

    async def run(db_path: str) -> int:
        test_config = dc_replace(config, port=0, db_path=db_path)
        server = GatewayServer(scenario.plan.boundary, config=test_config)
        await server.start()
        client = AsyncGatewayClient(server.host, server.port)
        failures = 0
        with LocalizationService(scenario.plan.boundary) as direct:
            for i, anchors in enumerate(anchor_sets):
                wire = await client.locate(anchors, query_id=f"selftest-{i}")
                reference = direct.locate(anchors, query_id=f"selftest-{i}")
                if (
                    wire["degraded"]
                    or wire["position"]["x"] != reference.position.x
                    or wire["position"]["y"] != reference.position.y
                ):
                    failures += 1
        print(
            f"  locate round-trip: {len(anchor_sets)} queries over "
            f"http://{server.host}:{server.port}, {failures} mismatches"
        )
        ack = await client.submit_batch(
            "selftest-batch", anchor_sets[0], object_id="obj", wait=True
        )
        dup = await client.submit_batch(
            "selftest-batch", anchor_sets[0], object_id="obj", wait=True
        )
        if ack["duplicate"] or not dup["duplicate"]:
            print("  FAIL: idempotent replay mis-acked", file=sys.stderr)
            failures += 1
        if dup["estimate"]["position"] != ack["estimate"]["position"]:
            print("  FAIL: replayed ack changed the answer", file=sys.stderr)
            failures += 1
        report = await run_loadgen(
            server.host,
            server.port,
            anchor_sets,
            LoadGenConfig(
                connections=4,
                duration_s=args.load_s,
                mode="measurements",
                batch_prefix="selftest-load",
            ),
        )
        p95_s = report.latency_quantile(95.0)
        print(
            f"  loadgen: {report.completed} batches acked at "
            f"{report.qps:.0f} q/s (p95 {p95_s * 1e3:.1f} ms), "
            f"{report.errors} errors"
        )
        if report.errors or not report.completed:
            print("  FAIL: loadgen campaign hit errors", file=sys.stderr)
            failures += 1
        if p95_s > args.p95_bound_s:
            print(
                f"  FAIL: loadgen p95 {p95_s:.3f}s exceeds the "
                f"{args.p95_bound_s:.3f}s bound",
                file=sys.stderr,
            )
            failures += 1
        await client.close()
        await server.stop()
        with MeasurementLedger(db_path) as ledger:
            lost = [
                bid
                for bid in ["selftest-batch", *report.acked_batch_ids]
                if ledger.get_estimate(bid) is None
            ]
        if lost:
            print(
                f"  FAIL: {len(lost)} acked batches lost across drain",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(
                f"  drain durability: {1 + len(report.acked_batch_ids)} "
                "acked batches all answered in the ledger"
            )
        return failures

    with tempfile.TemporaryDirectory() as tmp:
        failures = asyncio.run(run(str(Path(tmp) / "selftest.db")))
    if failures:
        print(f"SELFTEST FAIL: {failures} failing checks", file=sys.stderr)
        return 1
    print(
        "SELFTEST OK: socket answers identical to direct service; "
        "acked ingest survived the drain"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import dump_jsonl, format_stage_table, profile_scenario

    try:
        if args.count < 1:
            raise ValueError("--count must be at least 1")
        result = profile_scenario(
            args.scenario,
            queries=args.count,
            packets=args.packets,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"profiled {len(result.errors_m)} queries over {args.scenario} "
        f"({args.packets} packets/link, seed {args.seed}): mean error "
        f"{sum(result.errors_m) / len(result.errors_m):.2f} m"
    )
    print()
    print(format_stage_table(result.stages()))
    print()
    # The stage table above already covers the "spans" aggregate.
    metrics = {k: v for k, v in result.metrics.items() if k != "spans"}
    _print_metrics(metrics)
    if args.trace_out:
        written = dump_jsonl(result.spans, args.trace_out)
        print(f"wrote {written} spans -> {args.trace_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
