"""Launcher of the gateway under test, in a process of its own.

Starts ``GatewayServer`` for the lab venue with the default
``GatewayConfig`` / ``ServingConfig``, its ledger at ``--db`` and a
Kalman ``SessionManager`` over a 4 x 5 zone grid attached, then prints
``READY <port>`` and obeys one command per stdin line:

* ``trace on`` / ``trace off`` — record spans around the layers' public
  callables (installed at start when ``--trace 1``), answered ``OK``;
* ``speed`` — time the calibration kernel (``common.kernel_seconds``)
  here, on the event loop, answered ``SPEED <seconds>``: the client asks
  while the gateway is idle, so this measures the speed the gateway
  process gets from the shared machine;
* ``stop`` — drain the gateway (``GatewayServer.stop``), write the
  spans and the cache/cluster counters to ``--out``, print ``DONE`` and
  exit.

End of input also stops the gateway, so a benchmark that dies cannot
leave this process behind.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ZONE_GRID = (4, 5)


async def _serve(args) -> None:
    from perfbench.common import kernel_seconds
    from perfbench.layers import gateway_points
    from perfbench.tracer import Tracer, install
    from repro.environment import get_scenario
    from repro.gateway import GatewayConfig, GatewayServer
    from repro.sessions import SessionManager, ZoneMap

    tracer = Tracer()
    if args.trace:
        install(tracer, gateway_points())
    boundary = get_scenario("lab").plan.boundary
    server = GatewayServer(
        boundary,
        config=GatewayConfig(db_path=args.db),
        sessions=SessionManager(ZoneMap.grid(boundary, *ZONE_GRID)),
    )
    await server.start()
    print(f"READY {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    while True:
        line = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
        if line in ("trace on", "trace off"):
            tracer.enabled = line == "trace on"
            print("OK", flush=True)
        elif line == "speed":
            print(f"SPEED {kernel_seconds()!r}", flush=True)
        elif line in ("stop", ""):
            break
        else:
            print(f"unknown command {line!r}", file=sys.stderr, flush=True)
    tracer.enabled = False
    await server.stop()
    service = server.cluster.shards[0][0].service
    stats = service.bisector_cache.stats()
    cluster = server.cluster.metrics_snapshot()
    counters = {
        "bisector_hits": stats.hits,
        "bisector_misses": stats.misses,
        "failovers": cluster["failovers"],
        "answered": server.answered_total,
        "errors": server.errors_total,
        "session_updates": server.sessions.updates_total,
        "session_events": len(server.sessions.log),
    }
    with open(args.out, "w") as out:
        json.dump({"counters": counters, "spans": tracer.spans}, out)
    print("DONE", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--db", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=-1,
                        help="pin the gateway to this CPU (-1: no pinning)")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    asyncio.run(_serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
