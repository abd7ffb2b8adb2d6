"""Validate ``BENCH_*.json`` baselines, police their drift, and compare
fresh speedups against the committed ones.

Every benchmark suite records its floor-gated measurements through
``harness.record``, which writes one ``BENCH_<suite>.json`` per suite.
Those files are committed as the performance baseline of record, and
CI runs this checker on every push to keep them honest:

**Schema** — each baseline must carry the harness envelope
(``suite`` matching its filename, ``git_sha``, ``python``,
``updated``, a non-empty ``entries`` mapping of dict entries).  The
``environment`` block is newer than the oldest baselines, so it is
*null-tolerant*: absent is fine, but when present it must be a mapping
(and ``exec_backend`` inside it may be missing on pre-exec suites).
Per-entry ``git_sha``/``recorded_at`` stamps (the comparison below
names the committed entry's ``git_sha``) are validated the same way:
entries recorded before the stamps existed may omit them, but a present
stamp must be a non-empty string, and a present per-entry
``environment`` must be a mapping (the suite-level block then
describes only the entries without one).

**Drift** — with ``--diff-range`` the checker asks git which files a
change touched.  Editing a committed baseline without touching any
benchmark *code* (a non-baseline file under ``benchmarks/``) is how
silent goalpost-moving happens, so that combination fails: a baseline
refresh must ride with the bench change that motivated it.

**Comparison** — with ``--committed DIR`` (the committed baselines)
and ``--bench-dir`` pointing at the fresh results of a sweep run with
``BENCH_OUTPUT_DIR`` set, every entry present in both is compared on
each numeric field named ``speedup`` or ending in ``_speedup``.  The
fresh directory holds only what the sweep measured, so an entry the
sweep skipped (``--quick`` leaves out the heavy ones) is skipped here
too, never compared with itself; the report counts the compared and
the skipped fields.  Speedups are ratios of two timings on the same
machine, so they carry across machines where raw seconds do not.  A
fresh value below :data:`MIN_SPEEDUP_RATIO` times the committed one
fails, and so does a comparison that finds no shared field at all: a
gate that compared nothing cannot pass.

Usage::

    python benchmarks/check_baselines.py
    python benchmarks/check_baselines.py --diff-range origin/main...HEAD
    python benchmarks/check_baselines.py --committed benchmarks --bench-dir /tmp/fresh
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Top-level keys every baseline must carry (``environment`` is optional).
REQUIRED_KEYS = ("suite", "git_sha", "python", "updated", "entries")

_BASELINE_RE = re.compile(r"^BENCH_[A-Za-z0-9_]+\.json$")

#: A fresh speedup below this fraction of its committed value fails
#: the comparison.  Three quick sweeps on a 2-vCPU VM read
#: fresh/committed between 0.68 and 1.60 over 18 fields, so a 2x drop
#: fails while that run-to-run spread passes.
MIN_SPEEDUP_RATIO = 0.5


def baseline_paths(bench_dir: Path = BENCH_DIR) -> list[Path]:
    return sorted(
        path for path in bench_dir.glob("BENCH_*.json") if _BASELINE_RE.match(path.name)
    )


def validate_baseline(path: Path) -> list[str]:
    """Return a list of schema problems for one baseline (empty = valid)."""
    problems: list[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable JSON ({exc})"]
    if not isinstance(payload, dict):
        return [f"{path.name}: top level must be an object"]

    for key in REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"{path.name}: missing required key {key!r}")
    suite = payload.get("suite")
    expected = path.stem.removeprefix("BENCH_")
    if isinstance(suite, str) and suite != expected:
        problems.append(
            f"{path.name}: suite {suite!r} does not match filename "
            f"(expected {expected!r})"
        )
    for key in ("suite", "git_sha", "python", "updated"):
        value = payload.get(key)
        if key in payload and (not isinstance(value, str) or not value):
            problems.append(f"{path.name}: {key!r} must be a non-empty string")

    entries = payload.get("entries")
    if "entries" in payload:
        if not isinstance(entries, dict) or not entries:
            problems.append(f"{path.name}: 'entries' must be a non-empty object")
        else:
            for name, entry in entries.items():
                if not isinstance(entry, dict):
                    problems.append(
                        f"{path.name}: entry {name!r} must be an object"
                    )
                    continue
                # per-entry stamps are null-tolerant like 'environment':
                # pre-stamp entries may omit them, present must be valid
                for stamp in ("git_sha", "recorded_at"):
                    if stamp in entry and (
                        not isinstance(entry[stamp], str) or not entry[stamp]
                    ):
                        problems.append(
                            f"{path.name}: entry {name!r} stamp {stamp!r} "
                            "must be a non-empty string when present"
                        )
                if "environment" in entry and not isinstance(
                    entry["environment"], dict
                ):
                    problems.append(
                        f"{path.name}: entry {name!r} 'environment' must be "
                        "an object when present"
                    )

    # environment is null-tolerant: the oldest baselines predate it
    environment = payload.get("environment")
    if environment is not None and not isinstance(environment, dict):
        problems.append(
            f"{path.name}: 'environment' must be an object when present"
        )
    return problems


def _speedups(entry) -> dict:
    """The numeric ``speedup``/``*_speedup`` fields of one entry."""
    if not isinstance(entry, dict):
        return {}
    return {
        key: value
        for key, value in entry.items()
        if (key == "speedup" or key.endswith("_speedup"))
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def compare_speedups(
    committed_dir: Path, bench_dir: Path
) -> tuple[int, int, list[str]]:
    """Fresh speedups under ``bench_dir`` against the committed ones in
    ``committed_dir``; returns ``(fields compared, committed fields
    skipped, problems)``.

    A committed field whose suite, entry or field the fresh side lacks
    is skipped; fresh-only suites and entries are ignored.  Both
    directories must hold schema-valid baselines.
    """
    compared = skipped = 0
    problems: list[str] = []
    for committed_path in baseline_paths(committed_dir):
        committed = json.loads(committed_path.read_text())
        fresh_path = bench_dir / committed_path.name
        fresh_entries = (
            json.loads(fresh_path.read_text())["entries"] if fresh_path.exists() else {}
        )
        for name, entry in committed["entries"].items():
            fresh = _speedups(fresh_entries.get(name))
            for field, old in _speedups(entry).items():
                if field not in fresh:
                    skipped += 1
                    continue
                compared += 1
                new = fresh[field]
                # written so that a NaN on either side fails too
                if not new >= MIN_SPEEDUP_RATIO * old:
                    sha = entry.get("git_sha") or committed["git_sha"]
                    problems.append(
                        f"suite {committed['suite']!r} entry {name!r}: "
                        f"{field} {new:.4g} is below {MIN_SPEEDUP_RATIO} x "
                        f"the committed {old:.4g} (measured at {sha})"
                    )
    return compared, skipped, problems


def changed_files(diff_range: str, repo_root: Path) -> list[str]:
    out = subprocess.run(
        ["git", "diff", "--name-only", diff_range],
        cwd=repo_root,
        capture_output=True,
        text=True,
        check=True,
    )
    return [line.strip() for line in out.stdout.splitlines() if line.strip()]


def drift_problems(changed: list[str]) -> list[str]:
    """Baselines edited without any benchmark-code change in the range."""
    bench_changes = [name for name in changed if name.startswith("benchmarks/")]
    touched_baselines = [
        name for name in bench_changes if _BASELINE_RE.match(Path(name).name)
    ]
    code_changes = [name for name in bench_changes if name not in touched_baselines]
    if touched_baselines and not code_changes:
        return [
            f"{name}: baseline changed but no benchmark code changed in the "
            "same range — refresh baselines together with the bench change "
            "that motivated them" for name in touched_baselines
        ]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff-range",
        help="git diff range (e.g. origin/main...HEAD) for the drift check; "
        "omitted = schema validation only",
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=BENCH_DIR,
        help="directory holding the BENCH_*.json baselines",
    )
    parser.add_argument(
        "--committed",
        type=Path,
        help="directory of the committed BENCH_*.json files to compare the "
        "fresh speedups under --bench-dir against",
    )
    args = parser.parse_args(argv)

    paths = baseline_paths(args.bench_dir)
    if not paths:
        print(f"no BENCH_*.json baselines under {args.bench_dir}", file=sys.stderr)
        return 1

    problems: list[str] = []
    for path in paths:
        problems.extend(validate_baseline(path))
    compared = skipped = 0
    if args.committed:
        for path in baseline_paths(args.committed):
            problems.extend(validate_baseline(path))
        if not problems:
            compared, skipped, slower = compare_speedups(
                args.committed, args.bench_dir
            )
            problems.extend(slower)
            if not compared:
                problems.append(
                    f"no speedup field shared between {args.committed} and "
                    f"{args.bench_dir}: nothing was compared"
                )

    if args.diff_range:
        try:
            changed = changed_files(args.diff_range, args.bench_dir.parent)
        except subprocess.CalledProcessError as exc:
            print(
                f"git diff {args.diff_range!r} failed: {exc.stderr.strip()}",
                file=sys.stderr,
            )
            return 1
        problems.extend(drift_problems(changed))

    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return 1
    print(f"OK {len(paths)} baselines validated" + (
        f" (drift-checked against {args.diff_range})" if args.diff_range else ""
    ) + (
        f", {compared} speedups within {MIN_SPEEDUP_RATIO} x of {args.committed}"
        f" ({skipped} committed speedups skipped: not measured in {args.bench_dir})"
        if args.committed else ""
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
