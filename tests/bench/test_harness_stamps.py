"""Per-entry provenance stamps written by ``benchmarks/harness.py``.

The suite-level ``git_sha``/``updated`` pair only dates the *file*;
in a suite whose entries were measured at different commits it
misattributes every entry but the newest.  ``harness.record`` therefore
stamps each entry with its own ``git_sha``/``recorded_at`` — the
``git_sha`` that ``check_baselines.py --committed`` names when a fresh
speedup falls below the committed one — and its own ``environment``.
These tests pin that contract, and that a corrupt suite file is never
silently replaced, against a ``BENCH_OUTPUT_DIR`` sandbox, never the
committed baselines.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "bench_harness", REPO_ROOT / "benchmarks" / "harness.py"
)
harness = importlib.util.module_from_spec(spec)
spec.loader.exec_module(harness)


def record_sandboxed(tmp_path, monkeypatch, **kwargs):
    monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
    return harness.record("demo", "case", **kwargs)


def test_entry_carries_its_own_stamps(tmp_path, monkeypatch):
    entry = record_sandboxed(tmp_path, monkeypatch, seconds=1.5, floor=1.2)
    data = json.loads((tmp_path / "BENCH_demo.json").read_text())
    written = data["entries"]["case"]
    assert written == entry
    # the per-entry stamps mirror the suite envelope at record time
    assert written["git_sha"] == data["git_sha"]
    assert written["recorded_at"] == data["updated"]
    assert written["git_sha"]
    assert written["recorded_at"]
    # the measurement fields survive alongside the stamps
    assert written["seconds"] == 1.5
    assert written["floor"] == 1.2


def test_stamps_do_not_leak_into_other_entries(tmp_path, monkeypatch):
    """Re-recording one entry leaves its siblings' stamps untouched."""
    monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
    harness.record("demo", "first", seconds=1.0)
    path = tmp_path / "BENCH_demo.json"
    data = json.loads(path.read_text())
    # age the sibling as if measured at an older commit
    data["entries"]["first"]["git_sha"] = "f" * 40
    data["entries"]["first"]["recorded_at"] = "2020-01-01T00:00:00Z"
    path.write_text(json.dumps(data))

    harness.record("demo", "second", seconds=2.0)
    data = json.loads(path.read_text())
    assert data["entries"]["first"]["git_sha"] == "f" * 40
    assert data["entries"]["first"]["recorded_at"] == "2020-01-01T00:00:00Z"
    assert data["entries"]["second"]["recorded_at"] == data["updated"]


def test_recording_leaves_sibling_environments_alone(tmp_path, monkeypatch):
    """Each entry keeps the environment it was measured under when a
    sibling is recorded under another one: new entries carry their own
    block, and the suite-level block, which describes the entries that
    predate per-entry blocks, is not rewritten."""
    monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "BENCH_demo.json"
    legacy = {**harness.environment(), "exec_backend": "generic", "cpu_count": 1}
    path.write_text(
        json.dumps(
            {
                "suite": "demo",
                "git_sha": "f" * 40,
                "python": "3.11.7",
                "updated": "2020-01-01T00:00:00Z",
                "environment": legacy,
                "entries": {"old": {"seconds": 1.0}},
            }
        )
    )
    single = {**legacy, "exec_backend": "fused"}
    dual = {**single, "cpu_count": 2}
    monkeypatch.setattr(harness, "environment", lambda: dict(single))
    harness.record("demo", "first", seconds=2.0)
    monkeypatch.setattr(harness, "environment", lambda: dict(dual))
    harness.record("demo", "second", seconds=3.0)

    data = json.loads(path.read_text())

    def measured_under(name):
        return data["entries"][name].get("environment", data["environment"])

    assert measured_under("old") == legacy
    assert measured_under("first") == single
    assert measured_under("second") == dual


def test_fields_cannot_spoof_stamps(tmp_path, monkeypatch):
    """Caller-supplied git_sha/recorded_at fields are overwritten by
    the harness' own stamps — provenance is not self-reported."""
    entry = record_sandboxed(
        tmp_path, monkeypatch, seconds=1.0, git_sha="spoofed", recorded_at="never"
    )
    assert entry["git_sha"] != "spoofed"
    assert entry["recorded_at"] != "never"


def test_telemetry_attachment_still_stamped(tmp_path, monkeypatch):
    summary = {"counters": {"steps": 3}, "histograms": {}}
    entry = record_sandboxed(tmp_path, monkeypatch, seconds=1.0, telemetry=summary)
    assert entry["telemetry"] == summary
    assert entry["git_sha"]
    assert entry["recorded_at"]


def test_truncated_suite_file_is_not_overwritten(tmp_path, monkeypatch):
    """A suite file that no longer parses makes ``record`` raise and
    leaves the file's bytes as they were, instead of rewriting it with
    the one new entry."""
    monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
    harness.record("demo", "a", seconds=1.0)
    harness.record("demo", "b", seconds=2.0)
    path = tmp_path / "BENCH_demo.json"
    truncated = path.read_bytes()[:40]
    path.write_bytes(truncated)

    with pytest.raises(ValueError, match="BENCH_demo.json"):
        harness.record("demo", "c", seconds=3.0)
    assert path.read_bytes() == truncated
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]
