"""JSONL round-trip and the metrics aggregation pipeline."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Recorder,
    histogram_summary,
    metrics_summary,
    percentile,
    read_jsonl,
    write_jsonl,
)


def make_recording() -> Recorder:
    recorder = Recorder(label="unit")
    with recorder.span("run", category="run", batch=2) as run:
        with recorder.span("step", category="step", t=0.0) as step:
            step.set(step=0.25, precision="2d", pole_radius=0.5)
            recorder.event(
                "escalation",
                category="step",
                from_precision="1d",
                to_precision="2d",
                reason="precision_noise",
            )
        run.set(reached=True, paths=[0, 1])
    recorder.count("steps")
    recorder.count("escalations")
    recorder.observe("stage", 1.5)
    recorder.observe("stage", 0.5)
    recorder.gauge("fleet_occupancy", 0.75)
    return recorder


class TestJsonlRoundTrip:
    def test_records_round_trip_exactly(self, tmp_path):
        recorder = make_recording()
        path = write_jsonl(recorder, tmp_path / "run.jsonl")
        document = read_jsonl(path)
        assert document.label == "unit"
        assert document.records == recorder.records
        assert document.counters == recorder.counters
        assert document.histograms == recorder.histograms
        assert document.gauges == recorder.gauges == {"fleet_occupancy": 0.75}

    def test_double_round_trip_is_stable(self, tmp_path):
        recorder = make_recording()
        first = read_jsonl(write_jsonl(recorder, tmp_path / "a.jsonl"))
        second = read_jsonl(write_jsonl(first, tmp_path / "b.jsonl"))
        assert second.records == first.records
        assert second.counters == first.counters
        assert second.histograms == first.histograms

    def test_document_queries(self, tmp_path):
        document = read_jsonl(write_jsonl(make_recording(), tmp_path / "run.jsonl"))
        assert len(document.spans()) == 2
        assert len(document.spans("step", "step")) == 1
        assert len(document.events("escalation")) == 1

    def test_missing_header_is_an_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "event", "name": "x"}) + "\n")
        with pytest.raises(ValueError, match="no header"):
            read_jsonl(path)

    def test_newer_schema_is_an_error(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"kind": "header", "schema": 999}) + "\n")
        with pytest.raises(ValueError, match="newer"):
            read_jsonl(path)

    def test_unknown_kinds_are_skipped(self, tmp_path):
        recorder = make_recording()
        path = write_jsonl(recorder, tmp_path / "run.jsonl")
        with path.open("a") as handle:
            handle.write(json.dumps({"kind": "gauge", "name": "future"}) + "\n")
        document = read_jsonl(path)
        assert document.records == recorder.records


class TestGauges:
    def test_gauge_overwrites_last_value(self):
        recorder = Recorder()
        recorder.gauge("occupancy", 0.5)
        recorder.gauge("occupancy", 0.9)
        recorder.gauge("queue_depth", 3)
        assert recorder.gauges == {"occupancy": 0.9, "queue_depth": 3.0}
        recorder.clear()
        assert recorder.gauges == {}

    def test_null_recorder_gauge_is_a_no_op(self):
        from repro.obs import NULL_RECORDER

        NULL_RECORDER.gauge("occupancy", 0.5)
        assert NULL_RECORDER.gauges == {}

    def test_pre_gauge_recordings_read_back_null_tolerantly(self, tmp_path):
        # a metrics line written before gauges existed has no key at all
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "schema": 1, "label": "old", "records": 0})
            + "\n"
            + json.dumps({"kind": "metrics", "counters": {"steps": 2}, "histograms": {}})
            + "\n"
        )
        document = read_jsonl(path)
        assert document.counters == {"steps": 2}
        assert document.gauges == {}
        assert metrics_summary(document)["gauges"] == {}

    def test_metrics_summary_carries_gauges(self):
        summary = metrics_summary(make_recording())
        assert summary["gauges"] == {"fleet_occupancy": 0.75}


class TestPercentiles:
    def test_nearest_rank_hand_computed(self):
        values = [4.0, 1.0, 3.0, 2.0]
        # ceil(q/100 * 4) ranks: p25 -> 1st, p50 -> 2nd, p75 -> 3rd,
        # p90 -> ceil(3.6) = 4th, p99 -> 4th
        assert percentile(values, 25) == 1.0
        assert percentile(values, 50) == 2.0
        assert percentile(values, 75) == 3.0
        assert percentile(values, 90) == 4.0
        assert percentile(values, 99) == 4.0
        assert percentile(values, 100) == 4.0

    def test_single_observation(self):
        assert percentile([7.25], 50) == 7.25
        assert percentile([7.25], 99) == 7.25

    def test_ten_observations_hand_computed(self):
        values = list(range(1, 11))  # 1 .. 10
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(values, 99) == 10

    def test_invalid_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        # a bad q is a programming error even on an empty sample
        with pytest.raises(ValueError):
            percentile([], 0)

    def test_empty_sample_returns_none(self):
        # a read-back document may carry a histogram with no
        # observations; an empty sample is "no observation", not an error
        assert percentile([], 50) is None
        assert percentile([], 99) is None

    def test_single_value_is_every_percentile(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 90) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_histogram_summary_empty(self):
        assert histogram_summary([]) == {
            "count": 0,
            "total_ms": 0.0,
            "mean_ms": None,
            "min_ms": None,
            "max_ms": None,
            "p50_ms": None,
            "p90_ms": None,
            "p99_ms": None,
        }

    def test_histogram_summary_single_value(self):
        stats = histogram_summary([3.0])
        assert stats["count"] == 1
        assert stats["total_ms"] == 3.0
        # one observation reports itself as every statistic
        assert (
            stats["mean_ms"]
            == stats["min_ms"]
            == stats["max_ms"]
            == stats["p50_ms"]
            == stats["p90_ms"]
            == stats["p99_ms"]
            == 3.0
        )

    def test_histogram_summary_hand_computed(self):
        stats = histogram_summary([2.0, 1.0, 4.0, 3.0])
        assert stats == {
            "count": 4,
            "total_ms": 10.0,
            "mean_ms": 2.5,
            "min_ms": 1.0,
            "max_ms": 4.0,
            "p50_ms": 2.0,
            "p90_ms": 4.0,
            "p99_ms": 4.0,
        }


class TestMetricsSummary:
    def test_summary_shape(self, tmp_path):
        recorder = make_recording()
        summary = metrics_summary(recorder)
        assert summary["records"] == 3
        assert summary["spans"] == 2
        assert summary["events"] == 1
        assert summary["counters"] == {"steps": 1, "escalations": 1}
        stage = summary["histograms"]["stage"]
        assert stage["count"] == 2
        assert stage["total_ms"] == 2.0
        assert stage["p50_ms"] == 0.5
        # the summary is identical computed from the JSONL document
        document = read_jsonl(write_jsonl(recorder, tmp_path / "run.jsonl"))
        # span-duration histograms contain measured wall-clock values;
        # compare on the whole dict (floats round-trip exactly via JSON)
        assert metrics_summary(document) == summary

    def test_summary_is_json_ready(self):
        json.dumps(metrics_summary(make_recording()))
