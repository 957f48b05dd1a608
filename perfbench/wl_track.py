"""track-durable: live tracking sessions journaled to disk, then recovered.

One ``SessionManager`` over a 4 x 5 zone grid of the lab, with a
``SessionStore`` at its defaults (group commit 32, checkpoint every 512
journal entries, ``synchronous=FULL``) on local disk.  It is fed a
precomputed fleet of 1200 objects on bouncing walks (the
``bench_tracking`` generator), one fix per object per one-second tick,
with Gaussian fix noise.  A tenth of the fleet goes quiet after the
first ticks and is evicted by the ``evict_idle`` sweep run every
``EVICT_EVERY`` ticks.  The first ticks are journaled before set-up;
set-up is what a restarting tracker does, opening that store and
recovering its fleet.  After the timed ticks the store is closed and
``recover`` rebuilds the fleet from the latest snapshot plus the
journal tail.

No solver runs: only the ``sessions`` and ``durable`` layers work here.

Throughput is the median over ticks of updates per second; it and the
update latencies are scaled to reference machine speed
(``common.SpeedScale``).

Gates: the live event-log digest equals the recovered one and that of a
store-less manager fed the same stream, and the recovered chain head and
update count match the live ones.
"""

from __future__ import annotations

import time

import numpy as np

from .common import (
    Outcome,
    Report,
    SpeedScale,
    cleanup,
    median,
    median_setup,
    percentile,
    work_dir,
)
from .layers import sessions_points, traced_metrics
from .tracer import Tracer, install, since, uninstall

OBJECTS = 1200
#: Ticks fed per second of ``--seconds`` (a tick of 1200 updates takes
#: about a third of a second at reference speed).  The run feeds a fixed
#: number of ticks, not a fixed time, so every run of a seed journals and
#: snapshots the same stream and the snapshot stalls behind ``tail_ms``
#: compare across runs.
TICKS_PER_SECOND = 2.0
ZONE_GRID = (4, 5)
QUIET_SHARE = 0.1
QUIET_AFTER_TICK = 3
IDLE_TIMEOUT_S = 4.0
EVICT_EVERY = 5
FIX_SIGMA_M = 0.5
SETUP_REPEATS = 7
#: Ticks journaled before set-up, which reopens the store and recovers.
PREPARED_TICKS = 2


def make_fleet(seed: int, boundary, ticks: int):
    """``(truth[tick, obj, 2], fixes[tick, obj, 2], confidence[tick, obj])``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    xmin, ymin, xmax, ymax = boundary.bounding_box()
    lo = np.array([xmin + 0.5, ymin + 0.5])
    hi = np.array([xmax - 0.5, ymax - 0.5])
    pos = rng.uniform(lo, hi, size=(OBJECTS, 2))
    vel = rng.uniform(-1.0, 1.0, size=(OBJECTS, 2))
    truth = np.empty((ticks, OBJECTS, 2))
    for tick in range(ticks):
        truth[tick] = pos
        pos = pos + vel
        for dim in range(2):
            over = pos[:, dim] > hi[dim]
            under = pos[:, dim] < lo[dim]
            pos[over, dim] = 2 * hi[dim] - pos[over, dim]
            pos[under, dim] = 2 * lo[dim] - pos[under, dim]
            vel[over | under, dim] *= -1.0
    fixes = truth + rng.normal(0.0, FIX_SIGMA_M, size=truth.shape)
    confidence = rng.uniform(0.3, 1.0, size=(ticks, OBJECTS))
    return truth, fixes, confidence


class _Feed:
    """Feeds ticks of the fleet into one manager, timing every update."""

    def __init__(self, fleet) -> None:
        from repro.geometry import Point

        self.truth, fixes, self.confidence = fleet
        self.ids = [f"obj-{i:04d}" for i in range(OBJECTS)]
        quiet = int(OBJECTS * QUIET_SHARE)
        self.points = [
            [Point(float(x), float(y)) for x, y in fixes[tick]]
            for tick in range(len(fixes))
        ]
        self.quiet = set(range(OBJECTS - quiet, OBJECTS))

    def active(self, tick: int):
        if tick < QUIET_AFTER_TICK:
            return range(OBJECTS)
        return [i for i in range(OBJECTS) if i not in self.quiet]

    def tick(self, manager, tick: int, latencies=None, errors=None) -> int:
        """One tick: every active object's fix, then the eviction sweep."""
        t_s = float(tick)
        points, conf, truth = self.points[tick], self.confidence[tick], self.truth[tick]
        updates = 0
        for i in self.active(tick):
            if latencies is None:
                update, _events = manager.observe(
                    self.ids[i], t_s, points[i], confidence=float(conf[i]))
            else:
                t0 = time.perf_counter()
                update, _events = manager.observe(
                    self.ids[i], t_s, points[i], confidence=float(conf[i]))
                latencies.append(time.perf_counter() - t0)
                errors.append(float(np.hypot(
                    update.position.x - truth[i, 0],
                    update.position.y - truth[i, 1])))
            updates += 1
        if tick % EVICT_EVERY == EVICT_EVERY - 1:
            manager.evict_idle(t_s)
        return updates


def _config():
    from repro.sessions import SessionConfig

    return SessionConfig(idle_timeout_s=IDLE_TIMEOUT_S)


def _prepare(path, zones, feed: "_Feed") -> None:
    """Journal the first PREPARED_TICKS ticks into a new store at ``path``."""
    from repro.sessions import SessionManager, SessionStore

    store = SessionStore(path)
    manager = SessionManager(zones, _config(), store=store)
    for tick in range(PREPARED_TICKS):
        feed.tick(manager, tick)
    store.close()


def _reopen(path, zones):
    """Open the store and recover its fleet; ``((store, manager), seconds)``."""
    from repro.sessions import SessionStore, durable

    started = time.perf_counter()
    store = SessionStore(path)
    manager, _report = durable.recover(store, zones, _config())
    return (store, manager), time.perf_counter() - started


def _drive(feed: _Feed, manager, ticks: range, latencies=None, errors=None):
    """Feed ``ticks``; returns ``(updates, rates)``.

    ``rates`` holds each tick's updates per second; they and
    ``latencies`` are scaled to reference speed.
    """
    scale = SpeedScale()
    updates = 0
    rates = []
    for tick in ticks:
        tick_started = time.perf_counter()
        first = len(latencies) if latencies is not None else 0
        done = feed.tick(manager, tick, latencies, errors)
        rate = done / (time.perf_counter() - tick_started)
        factor = scale.window()
        rates.append(rate * factor)
        if latencies is not None:
            latencies[first:] = [x / factor for x in latencies[first:]]
        updates += done
    return updates, rates


def run(seed: int, seconds: float, trace: bool) -> Report:
    from repro.environment import get_scenario
    from repro.sessions import SessionManager, SessionStore, ZoneMap
    from repro.sessions import durable

    outcome = Outcome()
    boundary = get_scenario("lab").plan.boundary
    zones = ZoneMap.grid(boundary, *ZONE_GRID)
    # A traced run feeds the ticks twice (untraced, then traced).
    ticks = PREPARED_TICKS + max(EVICT_EVERY * 2, round(
        seconds * (0.3 if trace else 0.7) * TICKS_PER_SECOND))
    feed = _Feed(make_fleet(seed, boundary, ticks))
    timed_ticks = range(PREPARED_TICKS, ticks)
    directory = work_dir("track-durable")
    tracer = Tracer()
    undo = []
    try:
        path = directory / "fleet.db"
        _prepare(path, zones, feed)
        (store, manager), setup_s = median_setup(
            lambda: _reopen(path, zones),
            lambda pair: pair[0].close(),
            SETUP_REPEATS,
        )
        latencies, errors = [], []
        updates, tick_rates = _drive(
            feed, manager, timed_ticks, latencies, errors)
        digests = [manager.log.digest()]
        if trace:
            # The same ticks again on a second store, traced: the ratio of
            # the two feeds' rates is the tracing overhead.
            store.close()
            path = directory / "traced.db"
            _prepare(path, zones, feed)
            store, manager = _reopen(path, zones)[0]
            seq0 = store.last_seq()
            undo = install(tracer, sessions_points())
            tracer.enabled = True
            traced_started = time.perf_counter()
            traced_updates, traced_rates = _drive(feed, manager, timed_ticks)
            traced_wall = time.perf_counter() - traced_started
            tracer.enabled = False
            manager.sync()
            seq1 = store.last_seq()
            feed_spans = len(tracer.spans)
            digests.append(manager.log.digest())
            tracer.enabled = True
        live_chain = manager.log.chain()
        live_updates = manager.updates_total
        store.close()
        store = SessionStore(store.path)
        started = time.perf_counter()
        recovered, report = durable.recover(store, zones, _config())
        recover_s = time.perf_counter() - started
        tracer.enabled = False
        uninstall(undo)
        undo = []
        store.close()
        reference = SessionManager(zones, _config())
        for t in range(ticks):
            feed.tick(reference, t)
        digests += [recovered.log.digest(), reference.log.digest()]
        checks = [
            (len(set(digests)) == 1,
             "event-log digests differ between the live, recovered and "
             f"store-less runs of one stream: {digests}"),
            (report.chain == live_chain,
             "recovered chain head differs from the live one"),
            (recovered.updates_total == live_updates
             == reference.updates_total,
             "update counts differ between live and recovered fleets"),
        ]
        for ok, message in checks:
            outcome.gate(ok, message)
        # A diverged stream fails the run and the recovery that showed it.
        outcome.count("durable updates", updates, 0)
        outcome.count("recover", 1, int(not all(ok for ok, _ in checks)))
        lines = [
            f"ticks {ticks} ({PREPARED_TICKS} journaled before set-up), "
            f"updates {reference.updates_total}, events {len(reference.log)}, "
            f"evicted {reference.sessions_evicted_total}",
            f"recovered from snapshot@{report.snapshot_seq} + {report.replayed} "
            f"journal entries; recover_s {recover_s:.4f} s",
            f"digest {digests[0]}",
        ]
        if not trace:
            lat = [x * 1e3 for x in latencies]
            metrics = {
                "setup_s": setup_s,
                "fixes_per_s": median(tick_rates),
                "p50_ms": percentile(lat, 50),
                "tail_ms": percentile(lat, 99.9),
                "error_m": median(errors),
            }
            lines += [
                f"track_updates_per_s {metrics['fixes_per_s']:.1f} 1/s",
                f"update p50 {metrics['p50_ms']:.4f} ms, update_p999_ms "
                f"{metrics['tail_ms']:.3f} ms ({len(lat)} updates)",
                f"median track error {metrics['error_m']:.4f} m",
            ]
            return Report(outcome, metrics, lines)
        sweeps = sum(1 for t in timed_ticks if t % EVICT_EVERY == EVICT_EVERY - 1)
        spans = tracer.spans
        metrics, more = traced_metrics(
            outcome, spans[:feed_spans], traced_wall, traced_updates,
            {
                "sessions.events": (len(reference.log)) / (
                    reference.updates_total) * 1e3,
                "durable.replayed_entries": float(report.replayed),
                "obs.trace_overhead_frac": median(tick_rates) / median(
                    traced_rates) - 1.0,
            },
            {
                "sessions.observe": traced_updates,
                "sessions.evict": sweeps,
                "durable.append": seq1 - seq0,
                "durable.snapshot_state": seq1 // 512 - seq0 // 512,
                "durable.snapshot_write": seq1 // 512 - seq0 // 512,
                "durable.recover": 0,
            },
        )
        recovery, more_recovery = traced_metrics(
            outcome, since(spans, feed_spans), recover_s, 1, {},
            {
                "durable.recover": 1,
                "durable.restore": 1 + (report.snapshot_seq > 0),
                "durable.append": 0,
            },
        )
        for name in ("durable.recover_restore_ms", "durable.recover_replay_ms"):
            metrics[name] = recovery[name]
        return Report(outcome, metrics, lines + more + [
            "recovery " + line for line in more_recovery], spans)
    finally:
        tracer.enabled = False
        uninstall(undo)
        cleanup(directory)
