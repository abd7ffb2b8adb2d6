"""Shared helpers for the benchmark suite.

Each ``bench_table*.py`` file regenerates one table (and, where one
exists, the associated figure) of the paper with the analytic cost
model and the performance model; the ``bench_real_*`` and
``bench_ablation_*`` files execute the numeric multiple double kernels
at reduced dimensions.  Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# The scalar baselines of bench_series_vectorized.py and
# bench_poly_eval.py are the test oracles in tests/oracles/.  Plain
# `pytest` puts only this directory on sys.path (`python -m pytest`
# also adds the working directory), so add the repo root for both.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="bitrot-smoke mode: skip the heavy timing benchmarks (used "
        "by CI together with --benchmark-disable)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "heavy: long-running timing benchmark, skipped under --quick"
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--quick"):
        return
    skip_heavy = pytest.mark.skip(reason="--quick skips heavy timing benchmarks")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip_heavy)


@pytest.fixture
def rng():
    return np.random.default_rng(20220320)


def run_and_render(benchmark, experiment_func, **kwargs):
    """Benchmark an experiment driver and attach its rendering."""
    from repro.perf import report

    result = benchmark(lambda: experiment_func(**kwargs))
    benchmark.extra_info["rows"] = len(result.rows)
    text = report.format_experiment(result)
    # keep the rendered table in the benchmark metadata (and visible with -s)
    benchmark.extra_info["preview"] = text.splitlines()[0]
    return result
