"""Vectorized vs reference polynomial evaluation: the repro.poly payoff.

The acceptance contract of the polynomial subsystem is measured here:
one shared-monomial evaluation + Jacobian pass of **katsura-8** (9
equations, 74 monomials, 54 distinct power products) at double double
precision must run at least **5x** faster through the vectorized
limb-major kernels of :class:`repro.poly.system.PolynomialSystem` than
through the scalar loop-per-monomial reference, the test oracle
``tests/oracles/poly.py`` — while producing **bit-identical** values,
which is asserted before any timing (a speedup over a wrong kernel is
worthless).  Measured 15-18x on the development machine; the plain
evaluation (without the Jacobian reuse) is recorded alongside without
a floor.

The floor runs in the CI ``perf-smoke`` job (not marked heavy, so
``--quick`` keeps it); the parametrized pytest-benchmark sweeps over
(family, precision, series order) are heavy.  Every measured floor is
recorded through :mod:`harness` into ``BENCH_poly.json`` (timings,
speedups, flop tallies, problem shape, git SHA) so the throughput
trajectory is tracked across PRs.
"""

from __future__ import annotations

import numpy as np
import pytest

import harness
from repro.poly import cyclic, katsura, noon
from repro.series.truncated import TruncatedSeries
from tests.oracles.poly import (
    reference_evaluate,
    reference_evaluate_series,
    reference_jacobian,
)
from tests.oracles.series import ScalarSeries

#: The acceptance-contract floor: katsura-8 evaluation + Jacobian at dd.
POLY_SPEEDUP_FLOOR = 5.0

LIMBS = 2  # double double — the headline precision of the contract

_FAMILIES = {"katsura": katsura, "cyclic": cyclic, "noon": noon}


def _point(system, seed=20220322):
    rng = np.random.default_rng(seed)
    return list(rng.standard_normal(system.variables))


def _assert_bit_identical(system, point, limbs):
    values = system.evaluate(point, limbs)
    jacobian = system.jacobian_matrix(point, limbs)
    expected_values = reference_evaluate(system, point, limbs)
    expected_jacobian = reference_jacobian(system, point, limbs)
    for i in range(system.equations):
        assert np.array_equal(
            values.data[:, i], np.array(expected_values[i].limbs)
        )
        for j in range(system.variables):
            assert np.array_equal(
                jacobian.data[:, i, j], np.array(expected_jacobian[i][j].limbs)
            )


def test_poly_eval_jacobian_speedup_floor():
    """Acceptance contract: >= 5x at dd on katsura-8's shared
    evaluation + Jacobian pass vs the scalar reference (measured
    15-18x on the development machine) — bit-identity first."""
    system = katsura(8)
    point = _point(system)
    _assert_bit_identical(system, point, LIMBS)

    reference_seconds = harness.best_seconds(
        lambda: (
            reference_evaluate(system, point, LIMBS),
            reference_jacobian(system, point, LIMBS),
        ),
        repeats=3,
    )
    vectorized_seconds = harness.best_seconds(
        lambda: system.evaluate_with_jacobian(point, LIMBS), repeats=5
    )
    speedup = reference_seconds / vectorized_seconds

    eval_reference_seconds = harness.best_seconds(
        lambda: reference_evaluate(system, point, LIMBS), repeats=3
    )
    eval_vectorized_seconds = harness.best_seconds(
        lambda: system.evaluate(point, LIMBS), repeats=5
    )

    counts = system.counts()
    harness.record(
        "poly",
        f"katsura8_eval_jac_{LIMBS}d",
        shape=harness.problem_shape(
            n=system.variables,
            degree=max(system.degrees),
            order=0,
            monomials=system.monomials,
            products=system.distinct_products,
        ),
        limbs=LIMBS,
        reference_seconds=reference_seconds,
        vectorized_seconds=vectorized_seconds,
        speedup=speedup,
        floor=POLY_SPEEDUP_FLOOR,
        eval_reference_seconds=eval_reference_seconds,
        eval_vectorized_seconds=eval_vectorized_seconds,
        eval_speedup=eval_reference_seconds / eval_vectorized_seconds,
        md_flops=counts.combined_flops(LIMBS),
        md_operations=counts.combined.md_operations,
    )
    print(
        f"\nkatsura-8 dd eval+jacobian: reference {reference_seconds * 1e3:.2f} ms, "
        f"vectorized {vectorized_seconds * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= POLY_SPEEDUP_FLOOR


@pytest.mark.heavy
@pytest.mark.parametrize("limbs", [2, 4], ids=["2d", "4d"])
@pytest.mark.parametrize(
    "family,n", [("katsura", 4), ("katsura", 8), ("cyclic", 5), ("noon", 4)]
)
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_point_evaluation_sweep(benchmark, backend, family, n, limbs):
    """Point evaluation sweep over family x size x precision."""
    system = _FAMILIES[family](n)
    point = _point(system)
    if backend == "vectorized":
        result = benchmark(lambda: system.evaluate(point, limbs))
        assert result.shape == (system.equations,)
    else:
        result = benchmark(lambda: reference_evaluate(system, point, limbs))
        assert len(result) == system.equations
    counts = system.counts()
    benchmark.extra_info["md_flops"] = counts.evaluation_flops(limbs)
    benchmark.extra_info["shape"] = harness.problem_shape(
        n=system.variables, degree=max(system.degrees)
    )


@pytest.mark.heavy
@pytest.mark.parametrize("order", [4, 8, 16])
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_series_evaluation_sweep(benchmark, backend, order):
    """Truncated-series evaluation of katsura-4 over the series order
    (the residual evaluations of one tracker step)."""
    system = katsura(4)
    rng = np.random.default_rng(20220322)
    coefficients = rng.standard_normal((system.variables, order + 1))
    if backend == "vectorized":
        arguments = [TruncatedSeries(list(row), LIMBS) for row in coefficients]
        result = benchmark(lambda: system.evaluate_series(arguments))
        assert result.order == order
    else:
        arguments = [ScalarSeries(list(row), LIMBS) for row in coefficients]
        result = benchmark(lambda: reference_evaluate_series(system, arguments))
        assert result[0].order == order
    counts = system.counts(order=order)
    benchmark.extra_info["md_flops"] = counts.evaluation_flops(LIMBS)
    benchmark.extra_info["shape"] = harness.problem_shape(
        n=system.variables, degree=max(system.degrees), order=order
    )
