"""The benchmark driver: its definition file, result format and the
refusal to run without the library."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

DEFINITION = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_definition_matches_the_driver():
    assert {w["name"]: w["why"] for w in DEFINITION["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DEFINITION["per_layer"]} == run.per_layer_units()
    assert DEFINITION["paths"] == [str(run.HERE.relative_to(run.ROOT))]
    setup = next(m for m in DEFINITION["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DEFINITION["end_to_end"])


def test_refuses_to_run_without_the_library(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cyclic3", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "no repro package" in out.err


def _child(rounds):
    return {"rounds": rounds, "peak_rss_mb": 50.0, "environment": {}}


def test_end_to_end_metrics_are_medians_in_reference_seconds():
    # the machine ran 25% slow: 7.5 s of rounds were 6 reference seconds
    child = _child([
        {"seconds": 1.25 * s, "reference_s": s} for s in (3.0, 1.0, 2.0)
    ])
    metrics = run.end_to_end_metrics(child, [0.5, 0.4, 0.9, 0.3, 0.6])
    assert metrics == pytest.approx(
        {"wall_ref_s": 2.0, "setup_s": 0.4, "peak_rss_mb": 50.0}
    )


def _traced_round(seconds, traced_seconds, calls=None, counters=None):
    summary = {
        "layers": {"exec": {"self_s": 3.0, "incl_s": 3.0, "calls": 1000}},
        "labels": {"exec.dd": {"self_s": 2.0, "incl_s": 2.0, "calls": 600}},
        "root_s": traced_seconds * 0.99,
    }
    return {
        "seconds": seconds,
        "reference_s": seconds,
        "traced_seconds": traced_seconds,
        "calls": calls or {},
        "counters": counters or {},
        "layers": summary,
    }


def test_per_layer_metrics_cover_every_name():
    calls = {"2": 1.0, "4": 2.0, "8": 4.0}
    counters = {
        "flops.2": 1e9, "flops.4": 1e9, "flops.8": 1e9,
        "model_ms.2": 10.0, "model_ms.4": 20.0, "model_ms.8": 20.0,
        "gpu.launches": 7,
    }
    metrics = run.per_layer_metrics(_child([_traced_round(4.0, 5.0, calls, counters)]))
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["exec.self_s"] == 3.0
    assert metrics["exec.self_s.dd"] == 2.0
    assert metrics["exec.us_per_call"] == pytest.approx(3000.0)
    assert metrics["gpu.launches"] == 7
    assert metrics["core.least_squares.gflops.dd"] == pytest.approx(1.0)
    assert metrics["core.least_squares.overhead.qd_over_dd"] == pytest.approx(2.0)
    assert metrics["perf.model.overhead.qd_over_dd"] == pytest.approx(2.0)
    assert metrics["perf.model.overhead.od_over_qd"] == pytest.approx(1.0)
    assert metrics["trace.overhead"] == pytest.approx(0.25)
    assert metrics["trace.coverage"] == pytest.approx(0.99)
    assert metrics["batch.fleet.occupancy"] == 0.0  # no fleet in this round


def test_summary_reports_quartiles_and_count():
    runs = [{"metrics": {"wall_ref_s": v}} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    summary = run.summarize(runs, {"wall_ref_s": "s"})["wall_ref_s"]
    assert summary == {"value": 3.0, "q1": 1.5, "q3": 4.5, "n": 5, "unit": "s"}


def test_git_sha_is_read_without_git(monkeypatch, tmp_path: Path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run._git_sha() is None
    (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "packed-refs").write_text("abc123 refs/heads/main\n")
    assert run._git_sha() == "abc123"
    (tmp_path / ".git" / "refs" / "heads" / "main").write_text("def456\n")
    assert run._git_sha() == "def456"
