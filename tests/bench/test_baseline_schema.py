"""The baseline checker itself: schema validation, drift policing and
the speedup comparison.

``benchmarks/check_baselines.py`` gates CI on the committed
``BENCH_*.json`` performance baselines.  These tests pin its contract
without invoking git or touching the real baselines: the validator on
synthetic payloads (envelope keys, suite/filename agreement,
null-tolerant ``environment``), the drift rule on synthetic change
lists, the fresh-vs-committed speedup comparison on two tmp
directories (with seeded failures), and a full run over the repo's
committed baselines — which must always validate, or CI is red before
any code change.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"

spec = importlib.util.spec_from_file_location(
    "check_baselines", BENCH_DIR / "check_baselines.py"
)
check_baselines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_baselines)


def envelope(**overrides):
    """A minimal valid baseline payload, overridable per test."""
    payload = {
        "suite": "demo",
        "git_sha": "a" * 40,
        "python": "3.11.7",
        "updated": "2026-08-07T00:00:00Z",
        "entries": {"case": {"seconds": 1.0, "floor": 1.3}},
    }
    payload.update(overrides)
    return payload


def write_baseline(tmp_path, name="BENCH_demo.json", payload=None):
    path = tmp_path / name
    path.write_text(json.dumps(payload if payload is not None else envelope()))
    return path


class TestSchema:
    def test_valid_baseline_passes(self, tmp_path):
        path = write_baseline(tmp_path)
        assert check_baselines.validate_baseline(path) == []

    def test_environment_is_null_tolerant(self, tmp_path):
        """Old baselines predate the environment block: absent is fine,
        and a present block may omit exec_backend."""
        no_env = write_baseline(tmp_path)
        assert check_baselines.validate_baseline(no_env) == []
        with_env = write_baseline(
            tmp_path,
            name="BENCH_demo2.json",
            payload=envelope(suite="demo2", environment={"python": "3.11.7"}),
        )
        assert check_baselines.validate_baseline(with_env) == []

    def test_environment_must_be_mapping_when_present(self, tmp_path):
        path = write_baseline(tmp_path, payload=envelope(environment="generic"))
        problems = check_baselines.validate_baseline(path)
        assert any("environment" in p for p in problems)

    @pytest.mark.parametrize("key", ["suite", "git_sha", "python", "updated", "entries"])
    def test_missing_required_key_fails(self, tmp_path, key):
        payload = envelope()
        del payload[key]
        path = write_baseline(tmp_path, payload=payload)
        problems = check_baselines.validate_baseline(path)
        assert any(repr(key) in p for p in problems)

    def test_suite_must_match_filename(self, tmp_path):
        path = write_baseline(
            tmp_path, name="BENCH_other.json", payload=envelope(suite="demo")
        )
        problems = check_baselines.validate_baseline(path)
        assert any("does not match filename" in p for p in problems)

    def test_empty_entries_fail(self, tmp_path):
        path = write_baseline(tmp_path, payload=envelope(entries={}))
        problems = check_baselines.validate_baseline(path)
        assert any("entries" in p for p in problems)

    def test_non_dict_entry_fails(self, tmp_path):
        path = write_baseline(tmp_path, payload=envelope(entries={"case": 3.5}))
        problems = check_baselines.validate_baseline(path)
        assert any("'case'" in p for p in problems)

    def test_unreadable_json_fails(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        problems = check_baselines.validate_baseline(path)
        assert problems and "unreadable" in problems[0]

    def test_entry_stamps_are_null_tolerant(self, tmp_path):
        """Entries recorded before per-entry stamps existed omit them;
        stamped entries validate too."""
        unstamped = write_baseline(tmp_path)
        assert check_baselines.validate_baseline(unstamped) == []
        stamped = write_baseline(
            tmp_path,
            name="BENCH_demo2.json",
            payload=envelope(
                suite="demo2",
                entries={
                    "case": {
                        "seconds": 1.0,
                        "git_sha": "b" * 40,
                        "recorded_at": "2026-08-07T00:00:00Z",
                    }
                },
            ),
        )
        assert check_baselines.validate_baseline(stamped) == []

    @pytest.mark.parametrize("stamp", ["git_sha", "recorded_at"])
    @pytest.mark.parametrize("bad", ["", None, 7])
    def test_present_entry_stamp_must_be_nonempty_string(self, tmp_path, stamp, bad):
        payload = envelope(entries={"case": {"seconds": 1.0, stamp: bad}})
        path = write_baseline(tmp_path, payload=payload)
        problems = check_baselines.validate_baseline(path)
        assert any(repr(stamp) in p and "'case'" in p for p in problems)

    @pytest.mark.parametrize("bad", ["fused", None, 7])
    def test_present_entry_environment_must_be_mapping(self, tmp_path, bad):
        stamped = write_baseline(
            tmp_path,
            payload=envelope(entries={"case": {"seconds": 1.0, "environment": {}}}),
        )
        assert check_baselines.validate_baseline(stamped) == []
        payload = envelope(
            suite="demo2", entries={"case": {"seconds": 1.0, "environment": bad}}
        )
        path = write_baseline(tmp_path, name="BENCH_demo2.json", payload=payload)
        problems = check_baselines.validate_baseline(path)
        assert any("'environment'" in p and "'case'" in p for p in problems)


class TestDriftRule:
    def test_baseline_with_code_change_is_allowed(self):
        changed = [
            "benchmarks/BENCH_fleet.json",
            "benchmarks/bench_fleet_scheduler.py",
        ]
        assert check_baselines.drift_problems(changed) == []

    def test_baseline_alone_is_drift(self):
        problems = check_baselines.drift_problems(["benchmarks/BENCH_fleet.json"])
        assert len(problems) == 1
        assert "BENCH_fleet.json" in problems[0]

    def test_baseline_with_unrelated_change_is_still_drift(self):
        """A source-tree edit does not license a baseline refresh; the
        matching change must live under benchmarks/."""
        changed = ["benchmarks/BENCH_fleet.json", "src/repro/batch/fleet.py"]
        assert len(check_baselines.drift_problems(changed)) == 1

    def test_no_baseline_changes_no_drift(self):
        changed = ["src/repro/batch/fleet.py", "benchmarks/harness.py"]
        assert check_baselines.drift_problems(changed) == []


class TestSpeedupComparison:
    """``--committed``: a fresh speedup below half its committed value
    fails, and so does a comparison that shares no speedup field; the
    committed fields the fresh side did not measure are counted as
    skipped."""

    @staticmethod
    def dirs(tmp_path, committed_entries, fresh_entries, suite="demo"):
        committed = tmp_path / "committed"
        fresh = tmp_path / "fresh"
        for directory, entries in ((committed, committed_entries), (fresh, fresh_entries)):
            directory.mkdir(exist_ok=True)
            write_baseline(
                directory,
                name=f"BENCH_{suite}.json",
                payload=envelope(suite=suite, entries=entries),
            )
        return committed, fresh

    @staticmethod
    def run(committed, fresh):
        return check_baselines.main(
            ["--committed", str(committed), "--bench-dir", str(fresh)]
        )

    def test_halved_speedup_fails_and_names_it(self, tmp_path, capsys):
        committed, fresh = self.dirs(
            tmp_path,
            {"case": {"speedup": 10.0, "git_sha": "c" * 40}},
            {"case": {"speedup": 4.0}},
        )
        assert self.run(committed, fresh) == 1
        message = capsys.readouterr().err
        for part in ("'demo'", "'case'", "speedup 4 ", "committed 10 ", "c" * 40):
            assert part in message

    def test_suite_stamp_names_a_pre_stamp_entry(self, tmp_path, capsys):
        committed, fresh = self.dirs(
            tmp_path, {"case": {"speedup": 10.0}}, {"case": {"speedup": 4.0}}
        )
        assert self.run(committed, fresh) == 1
        assert "a" * 40 in capsys.readouterr().err

    def test_speedup_above_half_passes(self, tmp_path, capsys):
        committed, fresh = self.dirs(
            tmp_path, {"case": {"speedup": 10.0}}, {"case": {"speedup": 6.0}}
        )
        assert self.run(committed, fresh) == 0
        assert "1 speedups" in capsys.readouterr().out

    def test_suffixed_speedup_is_compared(self, tmp_path):
        committed, fresh = self.dirs(
            tmp_path,
            {"case": {"eval_speedup": 10.0}},
            {"case": {"eval_speedup": 4.0}},
        )
        assert self.run(committed, fresh) == 1
        _, fresh = self.dirs(
            tmp_path,
            {"case": {"eval_speedup": 10.0}},
            {"case": {"eval_speedup": 6.0}},
        )
        assert self.run(committed, fresh) == 0

    def test_nan_speedup_fails(self, tmp_path):
        committed, fresh = self.dirs(
            tmp_path, {"case": {"speedup": 10.0}}, {"case": {"speedup": float("nan")}}
        )
        assert self.run(committed, fresh) == 1

    def test_one_sided_entries_and_suites_are_skipped(self, tmp_path, capsys):
        committed, fresh = self.dirs(
            tmp_path,
            {"case": {"speedup": 10.0}, "gone": {"speedup": 10.0}},
            {"case": {"speedup": 9.0}, "new": {"speedup": 0.1}},
        )
        # a suite only the snapshot has, and one only the fresh side has
        write_baseline(
            committed,
            name="BENCH_old.json",
            payload=envelope(suite="old", entries={"case": {"speedup": 10.0}}),
        )
        write_baseline(
            fresh,
            name="BENCH_other.json",
            payload=envelope(suite="other", entries={"case": {"speedup": 0.1}}),
        )
        # "gone" and the snapshot-only suite are the two skipped fields
        assert check_baselines.compare_speedups(committed, fresh) == (1, 2, [])
        assert self.run(committed, fresh) == 0
        out = capsys.readouterr().out
        assert "1 speedups" in out and "2 committed speedups skipped" in out

    def test_nothing_compared_fails(self, tmp_path, capsys):
        committed, fresh = self.dirs(
            tmp_path, {"case": {"seconds": 1.0}}, {"case": {"seconds": 9.0}}
        )
        assert self.run(committed, fresh) == 1
        assert "nothing was compared" in capsys.readouterr().err

    def test_repo_baselines_against_themselves_pass(self):
        assert self.run(BENCH_DIR, BENCH_DIR) == 0


class TestCommittedBaselines:
    def test_repo_baselines_all_validate(self):
        paths = check_baselines.baseline_paths(BENCH_DIR)
        assert paths, "repo must ship committed BENCH_*.json baselines"
        for path in paths:
            assert check_baselines.validate_baseline(path) == []

    def test_fleet_baseline_exists_with_floor(self):
        """The fleet suite ships a baseline above its floor: fleet-wide
        ``residual_fleet`` evaluation over the per-path residual loop."""
        payload = json.loads((BENCH_DIR / "BENCH_fleet.json").read_text())
        entry = payload["entries"]["straggler_fleet_b32_dd_od"]
        assert entry["speedup"] >= entry["floor"] == 1.3
        assert entry["occupancy"] > 0.5
        assert entry["straggler_steps"] == 1

    def test_main_schema_only_passes_on_repo(self, capsys):
        assert check_baselines.main([]) == 0
        assert "OK" in capsys.readouterr().out
