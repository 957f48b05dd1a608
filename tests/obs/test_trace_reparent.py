"""``Tracer.reparent``: re-homing same-process spans under a new parent."""

import threading

from repro.obs import Tracer


class TestReparent:
    def test_moves_only_the_requested_spans(self):
        tracer = Tracer()
        with tracer.start("route") as route:
            pass
        with tracer.start("attempt.a") as a:
            pass
        with tracer.start("attempt.b") as b:
            pass
        moved = tracer.reparent([a.span_id], route.span_id)
        assert moved == 1
        by_name = {s.name: s for s in tracer.finished()}
        assert by_name["attempt.a"].parent_id == route.span_id
        assert by_name["attempt.b"].parent_id is None

    def test_ids_survive_unlike_adopt(self):
        tracer = Tracer()
        with tracer.start("child") as child:
            pass
        tracer.reparent([child.span_id], None)
        assert tracer.finished()[0].span_id == child.span_id

    def test_unknown_ids_move_nothing(self):
        tracer = Tracer()
        with tracer.start("only"):
            pass
        assert tracer.reparent([10**9], None) == 0

    def test_rehomes_cross_thread_roots(self):
        # The gateway-bridge shape: a pool thread's span roots itself on
        # that thread; the caller re-homes it under its own span later.
        tracer = Tracer()
        recorded = {}

        def worker():
            with tracer.start("pool.attempt") as sp:
                recorded["id"] = sp.span_id

        with tracer.start("route") as route:
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=5)
        attempt = next(
            s for s in tracer.finished() if s.name == "pool.attempt"
        )
        assert attempt.parent_id is None  # thread-local root at first
        tracer.reparent([recorded["id"]], route.span_id)
        attempt = next(
            s for s in tracer.finished() if s.name == "pool.attempt"
        )
        assert attempt.parent_id == route.span_id
