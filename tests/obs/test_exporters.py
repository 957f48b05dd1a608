"""JSONL export round-trips; aggregation matches numpy percentiles."""

import io

import numpy as np
import pytest

from repro.obs import (
    SpanAggregator,
    Tracer,
    aggregate,
    dump_jsonl,
    format_stage_table,
    load_jsonl,
    percentile,
    write_jsonl,
)


def _sample_spans():
    tracer = Tracer()
    with tracer.start("outer", query="q1") as outer:
        outer.incr("rows", 21)
        with tracer.start("inner"):
            pass
        with tracer.start("inner"):
            pass
    return tracer.finished()


class TestJSONL:
    def test_file_round_trip(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "traces.jsonl"
        assert dump_jsonl(spans, path) == len(spans)
        loaded = load_jsonl(path)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in spans]

    def test_stream_is_one_record_per_line(self):
        spans = _sample_spans()
        buffer = io.StringIO()
        write_jsonl(spans, buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == len(spans)

    def test_blank_lines_ignored(self, tmp_path):
        spans = _sample_spans()
        path = tmp_path / "traces.jsonl"
        dump_jsonl(spans, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_jsonl(path)) == len(spans)


class TestAggregation:
    def test_counts_and_totals(self):
        spans = _sample_spans()
        snap = aggregate(spans)
        assert snap["inner"]["count"] == 2
        assert snap["outer"]["count"] == 1
        assert snap["outer"]["counters"] == {"rows": 21.0}
        assert snap["outer"]["total_s"] >= snap["inner"]["total_s"]

    def test_percentiles_match_numpy(self):
        durations = [0.001, 0.005, 0.002, 0.009, 0.004, 0.007, 0.003]
        agg = SpanAggregator()
        for d in durations:
            tracer = Tracer()
            with tracer.start("stage") as sp:
                pass
            sp.duration_s = d
            agg.add(sp)
        row = agg.snapshot()["stage"]
        assert row["p50_s"] == float(np.percentile(durations, 50))
        assert row["p95_s"] == float(np.percentile(durations, 95))
        assert row["mean_s"] == float(np.mean(durations))

    def test_empty_aggregator(self):
        assert SpanAggregator().snapshot() == {}
        assert len(SpanAggregator()) == 0


class TestStageTable:
    def test_table_lists_stages_by_total_time(self):
        spans = _sample_spans()
        table = format_stage_table(aggregate(spans))
        lines = table.splitlines()
        assert "stage" in lines[0] and "p95(ms)" in lines[0]
        body = lines[2:]
        assert body[0].startswith("outer")  # outer encloses both inners
        assert any(line.startswith("inner") for line in body)
        assert "rows=21" in table

    def test_empty_table_has_header_only(self):
        table = format_stage_table({})
        assert "stage" in table.splitlines()[0]
        assert len(table.splitlines()) == 2


class TestPercentile:
    def test_one_helper_for_obs_and_serving(self):
        from repro.serving import percentile as serving_percentile

        assert serving_percentile is percentile

    def test_matches_numpy_and_rejects_empty(self):
        values = [0.004, 0.001, 0.009, 0.002]
        for q in (0, 25, 50, 95, 100):
            assert percentile(values, q) == float(np.percentile(values, q))
        with pytest.raises(ValueError):
            percentile([], 50)
