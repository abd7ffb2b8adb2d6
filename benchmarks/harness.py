"""Machine-readable benchmark results: the perf trajectory across PRs.

The acceptance-contract benchmarks (``bench_batched_qr.py``,
``bench_series_vectorized.py``) record their measurements here and
:func:`record` merges them into ``BENCH_<suite>.json`` next to this
file — timings, speedup ratios, flop tallies and the git SHA they were
measured at.  The first baselines are committed with the suite; the CI
``perf-smoke`` job re-measures them on every push into a fresh
``BENCH_OUTPUT_DIR`` and uploads that as an artifact, so regressions
show up as failing floor assertions (the benchmarks ``assert speedup >=
FLOOR``) and as failing comparisons against the committed baselines
(``check_baselines.py --committed benchmarks --bench-dir``).

Schema of one ``BENCH_<suite>.json``::

    {
      "suite": "batch",
      "git_sha": "<sha of the last update>",
      "python": "3.11.7",
      "updated": "2026-07-26T12:34:56Z",
      "environment": {...} or null,
      "entries": {
        "<entry id>": {"seconds": ..., "speedup": ..., "floor": ...,
                       "md_flops": ..., "launches": ...,
                       "shape": {"n": ..., "degree": ..., "batch": ..., "order": ...},
                       "git_sha": "<sha this entry was measured at>",
                       "recorded_at": "<ISO-8601 stamp of this entry>",
                       "environment": {<environment() of this entry>},
                       ...}
      }
    }

Every entry carries a ``shape`` sub-dict (:func:`problem_shape`) with
the problem dimensions — n, degree, batch width b, series order K —
so the records stay self-describing as benchmarks evolve across PRs.
Each entry is also stamped with its *own* ``git_sha``/``recorded_at``
and ``environment``: the suite-level stamps only say when the file was
last touched, so in a file mixing entries measured at different
commits, backends or CPU budgets they misattribute every entry but the
newest.  :func:`record` no longer rewrites the suite-level
``environment`` block; it stays as the environment of the entries
recorded before the per-entry block existed.  The baseline comparison
(``check_baselines.py --committed``) names the per-entry ``git_sha`` of
the committed entry a fresh value fell below, and falls back to the
suite-level one on baselines recorded before the stamps existed —
consumers must stay null-tolerant the same way.

Entries are keyed by a stable id and overwritten in place, so the file
always holds the latest measurement of every benchmark that ran.  A
suite file that is not valid JSON makes :func:`load` (and so
:func:`record`) raise instead of starting over, and :func:`record`
replaces the file atomically, so an interrupted write cannot truncate
a baseline.
Set ``BENCH_OUTPUT_DIR`` to redirect the output (e.g. to keep a local
run from touching the committed baselines).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

__all__ = [
    "results_dir",
    "results_path",
    "git_sha",
    "environment",
    "record",
    "best_seconds",
    "load",
    "problem_shape",
]

_BENCH_DIR = Path(__file__).resolve().parent


def results_dir() -> Path:
    """Where the ``BENCH_*.json`` files live (``BENCH_OUTPUT_DIR`` or
    the benchmarks directory itself, which holds the committed
    baselines)."""
    override = os.environ.get("BENCH_OUTPUT_DIR")
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return _BENCH_DIR


def results_path(suite: str) -> Path:
    return results_dir() / f"BENCH_{suite}.json"


def git_sha() -> str:
    """The current commit, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_BENCH_DIR,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def environment() -> dict:
    """The measurement environment: python, platform, CPU budget.

    Stamped into every entry by :func:`record` so the artifact
    history says not only *what* was measured but *where* — a speedup
    drop on a 2-core CI runner is not a regression against an 8-core
    baseline.  ``exec_backend`` names the active
    :mod:`repro.exec` execution backend (``REPRO_EXEC_BACKEND``);
    baselines recorded before the key existed — or whole
    ``environment`` blocks recorded as ``None`` — stay readable, so
    consumers must treat a missing key as "generic, pre-backend".
    """
    try:
        from repro.exec import get_backend

        exec_backend = get_backend().name
    except Exception:  # repro not importable from this interpreter
        exec_backend = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "exec_backend": exec_backend,
    }


def load(suite: str) -> dict:
    """The current contents of a suite file (empty skeleton if absent).

    Baselines committed before the environment stamp existed load with
    ``environment`` backfilled to ``None`` — consumers can rely on the
    key being present without re-recording history.  A file that is
    not valid JSON raises :class:`ValueError` naming it: starting from
    an empty skeleton would let the next :func:`record` wipe every
    other entry.
    """
    path = results_path(suite)
    if not path.exists():
        data = {"suite": suite, "entries": {}}
    else:
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    data.setdefault("environment", None)
    return data


def record(suite: str, entry: str, telemetry=None, **fields) -> dict:
    """Merge one benchmark entry into ``BENCH_<suite>.json``.

    ``fields`` should be JSON-serializable measurement data (seconds,
    speedup, floor, flop tallies, launch counts, problem shape...).
    ``telemetry`` optionally attaches a ``repro.obs`` recording summary
    (:func:`repro.obs.export.metrics_summary` output, or a live
    recorder / read-back document, which is summarized here) under the
    entry's ``telemetry`` key.  The entry is stamped with its own
    ``git_sha``/``recorded_at`` and ``environment`` (see the module
    docstring — the suite-level stamps cover only the newest entry, and
    the suite-level ``environment`` block is left as it was: it
    describes the entries recorded before the per-entry block).
    Returns the entry as written.
    """
    data = load(suite)
    data["suite"] = suite
    data["git_sha"] = git_sha()
    data["python"] = platform.python_version()
    data["updated"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    entries = data.setdefault("entries", {})
    if telemetry is not None:
        if hasattr(telemetry, "records"):
            from repro.obs.export import metrics_summary

            telemetry = metrics_summary(telemetry)
        fields = {**fields, "telemetry": telemetry}
    entries[entry] = {
        **fields,
        "git_sha": data["git_sha"],
        "recorded_at": data["updated"],
        "environment": environment(),
    }
    path = results_path(suite)
    # write beside the target, then rename over it: os.replace is atomic,
    # so a reader or a crash sees either the old file or the new one
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return entries[entry]


def problem_shape(*, n=None, degree=None, batch=None, order=None, **extra) -> dict:
    """Canonical problem-shape metadata for a benchmark entry.

    Benchmarks attach this as the ``shape`` field of their
    :func:`record` call so every ``BENCH_*.json`` entry is
    self-describing across PRs: ``n`` is the problem dimension (matrix
    rows/columns, system unknowns), ``degree`` the polynomial degree,
    ``batch`` the fleet/batch width ``b``, ``order`` the series
    truncation order ``K``.  Extra keyword fields (``rows``,
    ``monomials``, ...) pass through; ``None`` values are dropped.
    """
    shape = {"n": n, "degree": degree, "batch": batch, "order": order, **extra}
    return {key: value for key, value in shape.items() if value is not None}


def best_seconds(func, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``func()`` — the measurement the
    floor assertions use (minimum is the standard noise-resistant
    estimator for CI machines)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best
