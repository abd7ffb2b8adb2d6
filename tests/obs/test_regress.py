"""Regression verdicts and the trend report.

Pins :mod:`repro.obs.regress`: the rolling-median verdicts (including
the noise guard and the direction inference), the acceptance scenario
— a synthetic 2x slowdown injected into a copied committed baseline
judges ``regress`` while the untouched history judges ``ok`` — and the
report's source-independence (a live store and its read-back JSONL
file render identically; thin and empty stores say "insufficient
history", they never fabricate verdicts).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import (
    Thresholds,
    TrendStore,
    evaluate_trends,
    judge_series,
    metric_direction,
    render_trend_report,
    sparkline,
    worst_verdict,
)
from repro.obs.regress import (
    VERDICT_INSUFFICIENT,
    VERDICT_OK,
    VERDICT_REGRESS,
    VERDICT_WARN,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"

T = Thresholds()


class TestDirections:
    @pytest.mark.parametrize(
        "name",
        ["seconds", "loop_seconds", "native_seconds_per_step", "overhead_ratio",
         "telemetry:batched_pade:p50_ms", "telemetry:batched_qr:total_ms"],
    )
    def test_lower_better(self, name):
        assert metric_direction(name) == "lower_better"

    @pytest.mark.parametrize("name", ["speedup", "occupancy"])
    def test_higher_better(self, name):
        assert metric_direction(name) == "higher_better"

    @pytest.mark.parametrize(
        "name",
        ["md_flops", "launches", "floor", "straggler_steps",
         "telemetry:counters:steps", "telemetry:batched_pade:count"],
    )
    def test_informational_not_judged(self, name):
        assert metric_direction(name) is None


class TestJudgeSeries:
    def test_flat_history_is_ok(self):
        judged = judge_series([1.0, 1.0, 1.0, 1.0], T, "lower_better")
        assert judged["verdict"] == VERDICT_OK
        assert judged["ratio"] == 1.0
        assert judged["baseline"] == 1.0

    def test_short_history_is_insufficient(self):
        judged = judge_series([1.0, 1.0], T, "lower_better")
        assert judged["verdict"] == VERDICT_INSUFFICIENT
        assert judged["ratio"] is None

    def test_doubling_regresses(self):
        judged = judge_series([1.0, 1.0, 1.0, 2.0], T, "lower_better")
        assert judged["verdict"] == VERDICT_REGRESS
        assert judged["ratio"] == 2.0

    def test_warn_band(self):
        judged = judge_series([1.0, 1.0, 1.0, 1.15], T, "lower_better")
        assert judged["verdict"] == VERDICT_WARN

    def test_direction_flips_the_ratio(self):
        # a speedup *drop* to half is the same 2x degradation
        judged = judge_series([4.0, 4.0, 4.0, 2.0], T, "higher_better")
        assert judged["verdict"] == VERDICT_REGRESS
        assert judged["ratio"] == 2.0
        # and a speedup *gain* is fine
        assert judge_series([4.0, 4.0, 4.0, 8.0], T, "higher_better")[
            "verdict"
        ] == VERDICT_OK

    def test_median_baseline_resists_outliers(self):
        """One earlier outlier cannot drag the baseline."""
        judged = judge_series([1.0, 1.0, 100.0, 1.0, 1.0, 1.0], T, "lower_better")
        assert judged["baseline"] == 1.0

    def test_noise_guard_suppresses_jitter(self):
        """A +20% newest value on a series whose history already wobbles
        by ~20% is jitter, not regression — the spread inflates the
        thresholds past it."""
        noisy = judge_series([1.0, 1.1, 0.9, 1.05, 1.2], T, "lower_better")
        assert noisy["verdict"] == VERDICT_OK
        # the same +20% on a tight history is a real warning
        tight = judge_series([1.0, 1.0, 1.0, 1.0, 1.2], T, "lower_better")
        assert tight["verdict"] == VERDICT_WARN

    def test_rolling_window_bounds_the_baseline(self):
        """Runs older than the window no longer shape the baseline."""
        values = [9.0] * 10 + [1.0] * 8 + [1.05]
        judged = judge_series(values, T, "lower_better")
        assert judged["baseline"] == 1.0
        assert judged["verdict"] == VERDICT_OK

    def test_non_positive_values_yield_no_verdict(self):
        judged = judge_series([0.0, 0.0, 0.0, 0.0], T, "lower_better")
        assert judged["verdict"] == VERDICT_INSUFFICIENT

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Thresholds(warn_ratio=1.0)
        with pytest.raises(ValueError):
            Thresholds(warn_ratio=1.3, regress_ratio=1.2)
        with pytest.raises(ValueError):
            Thresholds(min_history=1)
        with pytest.raises(ValueError):
            Thresholds(window=0)
        with pytest.raises(ValueError):
            Thresholds(noise_guard=-0.1)


def test_worst_verdict():
    assert worst_verdict([]) == VERDICT_OK
    assert worst_verdict([VERDICT_OK, VERDICT_WARN]) == VERDICT_WARN
    assert worst_verdict([VERDICT_INSUFFICIENT]) == VERDICT_INSUFFICIENT
    assert (
        worst_verdict([VERDICT_OK, VERDICT_REGRESS, VERDICT_WARN]) == VERDICT_REGRESS
    )


def test_sparkline():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▄▄▄"  # flat: mid-height, no trend
    line = sparkline([1.0, 2.0, 3.0, 8.0])
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(100)))) == 16  # width-bounded


def history_store(runs, *, entry_mutator=None):
    """A store holding ``runs`` synthetic re-measurements of the
    committed fleet baseline, each with distinct stamps (suite-level
    and per-entry, which take precedence when present); the newest run
    passes through ``entry_mutator`` when given."""
    payload = json.loads((BENCH_DIR / "BENCH_fleet.json").read_text())
    store = TrendStore()
    for run in range(runs):
        copy = json.loads(json.dumps(payload))
        copy["git_sha"] = f"{run:040x}"
        copy["updated"] = f"2026-08-{run + 1:02d}T00:00:00Z"
        for entry in copy["entries"].values():
            entry["git_sha"] = copy["git_sha"]
            entry["recorded_at"] = copy["updated"]
            if entry_mutator is not None and run == runs - 1:
                entry_mutator(entry)
        store.ingest_suite(copy)
    return store


def double_seconds(entry):
    for key, value in list(entry.items()):
        if key.endswith("seconds") and isinstance(value, (int, float)):
            entry[key] = value * 2.0


class TestAcceptanceScenario:
    def test_untouched_history_is_ok(self):
        store = history_store(4)
        verdicts = evaluate_trends(store)
        assert verdicts  # the fleet baseline has judged metrics
        assert worst_verdict(verdicts) == VERDICT_OK

    def test_synthetic_slowdown_regresses(self):
        """A copied baseline with doubled seconds in the newest run
        makes perf-trend report regress; the untouched series stay ok."""
        store = history_store(4, entry_mutator=double_seconds)
        verdicts = evaluate_trends(store)
        assert worst_verdict(verdicts) == VERDICT_REGRESS
        regressed = {v.metric for v in verdicts if v.verdict == VERDICT_REGRESS}
        assert any("seconds" in metric for metric in regressed)
        # metrics the mutation did not touch keep their clean verdict
        untouched = [
            v
            for v in verdicts
            if v.verdict != VERDICT_INSUFFICIENT
            and not v.metric.endswith("seconds")
        ]
        assert untouched
        assert all(v.verdict == VERDICT_OK for v in untouched)
        report = render_trend_report(store)
        assert "REGRESS" in report


class TestRenderTrendReport:
    def test_live_and_read_back_render_identically(self, tmp_path):
        store = history_store(4, entry_mutator=double_seconds)
        live = render_trend_report(store)
        path = store.save(tmp_path / "ledger.jsonl")
        assert render_trend_report(path) == live
        assert render_trend_report(TrendStore.load(path)) == live

    def test_empty_store_reports_no_verdicts(self):
        report = render_trend_report(TrendStore())
        assert "0 regress" in report
        assert "no judged metric series" in report
        assert "REGRESS" not in report

    def test_single_run_reports_insufficient_history(self):
        store = history_store(1)
        report = render_trend_report(store)
        assert "insufficient_history" in report
        assert "0 regress, 0 warn, 0 ok" in report
        assert worst_verdict(evaluate_trends(store)) == VERDICT_INSUFFICIENT

    def test_report_carries_the_trend_columns(self):
        report = render_trend_report(history_store(4))
        for column in ("suite", "entry", "metric", "trend", "delta_pct", "verdict"):
            assert column in report
        # sparklines made it into the table
        assert any(block in report for block in "▁▂▃▄▅▆▇█")

    def test_custom_thresholds_in_header(self):
        thresholds = Thresholds(warn_ratio=1.5, regress_ratio=3.0)
        report = render_trend_report(history_store(4), thresholds)
        assert "warn >= 1.50x" in report
        assert "regress >= 3.00x" in report
