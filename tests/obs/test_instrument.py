"""The instrumentation switch: no-op semantics, pool safety, bit-exactness."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.core import NomLocSystem, SystemConfig
from repro.environment import get_scenario
from repro.serving import LocalizationService, ServingConfig


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    obs.disable()
    yield
    obs.disable()


def _gather(scenario_name="lab", count=3, packets=4):
    scenario = get_scenario(scenario_name)
    system = NomLocSystem(scenario, SystemConfig(packets_per_link=packets))
    sets = []
    for i in range(count):
        site = scenario.test_sites[i % len(scenario.test_sites)]
        rng = np.random.default_rng(np.random.SeedSequence([3, i]))
        sets.append(tuple(system.gather_anchors(site, rng)))
    return scenario, sets


class TestSwitch:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert obs.get_tracer() is None
        assert obs.span("anything") is obs.NULL_SPAN
        assert obs.current_span() is obs.NULL_SPAN

    def test_null_span_is_inert(self):
        with obs.span("x") as sp:
            assert sp.set(a=1) is sp
            assert sp.incr("c", 5) is sp
        obs.add_counter("nothing")  # must not raise while disabled

    def test_enable_disable(self):
        tracer = obs.enable()
        try:
            assert obs.is_enabled()
            assert obs.get_tracer() is tracer
            with obs.span("stage"):
                pass
            assert [s.name for s in tracer.finished()] == ["stage"]
        finally:
            obs.disable()
        assert not obs.is_enabled()

    def test_capture_scopes_and_restores(self):
        outer = obs.enable()
        with obs.capture() as inner:
            assert obs.get_tracer() is inner
            with obs.span("inside"):
                pass
        assert obs.get_tracer() is outer
        assert len(inner.finished()) == 1
        assert len(outer.finished()) == 0

    def test_add_counter_hits_active_span(self):
        with obs.capture() as tracer:
            with obs.span("stage"):
                obs.add_counter("work", 3)
                obs.add_counter("work", 4)
        (finished,) = tracer.finished()
        assert finished.counters == {"work": 7.0}

    def test_add_counter_without_active_span(self):
        with obs.capture():
            obs.add_counter("orphan")  # no active span: silently dropped


class TestWorkerPoolSafety:
    def test_spans_from_pool_workers_all_collected(self):
        # The gateway's solver-bridge threads share one tracer.
        def traced_task(i):
            with obs.span("pool.task", index=i) as sp:
                sp.incr("done")
            return i

        with obs.capture() as tracer:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(traced_task, range(32)))
        assert results == list(range(32))
        spans = [s for s in tracer.finished() if s.name == "pool.task"]
        assert len(spans) == 32
        assert len({s.span_id for s in spans}) == 32
        assert {s.attributes["index"] for s in spans} == set(range(32))

    def test_pooled_service_collects_query_spans(self):
        scenario, anchor_sets = _gather(count=6)
        config = ServingConfig(max_workers=3)
        with obs.capture() as tracer:
            with LocalizationService(
                scenario.plan.boundary, config=config
            ) as service:
                responses = service.batch(anchor_sets)
        assert all(r.ok for r in responses)
        queries = [s for s in tracer.finished() if s.name == "serve.query"]
        assert len(queries) == len(anchor_sets)
        # Each worker-process query span comes back adopted, carries the
        # queue-wait/compute split and parents that worker's lp.solve
        # spans.
        for q in queries:
            assert "queue_wait_s" in q.attributes
            assert q.attributes["compute_s"] > 0.0
        solve_parents = {
            s.parent_id
            for s in tracer.finished()
            if s.name == "lp.solve"
        }
        assert solve_parents <= {q.span_id for q in queries}


class TestBitExactness:
    def test_localizer_identical_with_tracing_on_and_off(self):
        scenario, anchor_sets = _gather(count=4)
        system = NomLocSystem(scenario)
        baseline = [system.locate_from_anchors(a) for a in anchor_sets]
        with obs.capture() as tracer:
            traced = [system.locate_from_anchors(a) for a in anchor_sets]
        assert len(tracer.finished()) > 0  # tracing actually ran
        for off, on in zip(baseline, traced):
            assert on.position == off.position
            assert on.relaxation_cost == off.relaxation_cost
            assert on.num_constraints == off.num_constraints

    def test_measurement_identical_with_tracing_on_and_off(self):
        scenario = get_scenario("lab")
        system = NomLocSystem(scenario, SystemConfig(packets_per_link=4))
        site = scenario.test_sites[0]
        rng = np.random.default_rng(42)
        baseline = system.locate(site, rng)
        rng = np.random.default_rng(42)
        with obs.capture():
            traced = system.locate(site, rng)
        assert traced.position == baseline.position

    def test_service_snapshot_gains_spans_only_when_enabled(self):
        scenario, anchor_sets = _gather(count=2)
        with LocalizationService(scenario.plan.boundary) as service:
            service.batch(anchor_sets)
            assert "spans" not in service.metrics_snapshot()
            with obs.capture():
                service.batch(anchor_sets)
                snap = service.metrics_snapshot()
        assert "serve.query" in snap["spans"]
        assert "lp.solve" in snap["spans"]
        assert snap["spans"]["serve.query"]["count"] == len(anchor_sets)
