"""Scalar-vs-vectorized series sweep: the payoff of the SoA refactor.

The series subsystem stores coefficients in the limb-major
structure-of-arrays layout of :class:`repro.vec.mdarray.MDArray`; the
scalar loop-per-coefficient implementation survives as the test oracle
``ScalarSeries`` in ``tests/oracles/series.py`` (with its scalar Newton
staircase), bit-identical by construction.  This file measures what the
layout buys:

* ``test_cauchy_product`` sweeps the hot kernel — series
  multiplication — over truncation order × precision for both
  backends;
* ``test_newton_staircase`` runs the order-by-order series Newton
  staircase end to end on both backends (the vectorized path gathers
  right-hand-side columns from the residual coefficient arrays, the
  reference path juggles scalar coefficients);
* ``test_cauchy_product_speedup`` asserts the acceptance contract:
  the vectorized Cauchy product is at least an order of magnitude
  faster than the scalar reference at order >= 32.

Run with ``pytest benchmarks/bench_series_vectorized.py --benchmark-only``
(or ``--benchmark-disable --quick`` for the CI bitrot smoke run).
"""

from __future__ import annotations

import numpy as np
import pytest

import harness
from repro.md.opcounts import series_flops, series_launches
from repro.series import TruncatedSeries, newton_series
from tests.oracles import series as scalar_oracle
from tests.oracles.series import ScalarSeries

#: Truncation orders of the sweep; the acceptance contract is pinned at
#: order >= 32.
ORDERS = (8, 16, 32, 64)

_BACKENDS = {"scalar": ScalarSeries, "vectorized": TruncatedSeries}

_STAIRCASES = {"scalar": scalar_oracle.newton_series, "vectorized": newton_series}


def _random_pair(series_cls, order, limbs, seed=20220320):
    rng = np.random.default_rng(seed)
    values = list(rng.standard_normal(order + 1))
    values[0] = abs(values[0]) + 1.0
    other = list(rng.standard_normal(order + 1))
    return series_cls(values, limbs), series_cls(other, limbs)


def sqrt_system(x, t):
    x1, x2 = x
    return [x1 * x1 - 1 - t, x1 * x2 - 1]


def sqrt_jacobian(x0):
    return [[2 * x0[0], 0], [x0[1], x0[0]]]


@pytest.mark.parametrize("limbs", [2, 4], ids=["2d", "4d"])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_cauchy_product(benchmark, backend, order, limbs):
    """One series multiplication: O(K^2) scalar ops vs O(log K) launches."""
    a, b = _random_pair(_BACKENDS[backend], order, limbs)
    product = benchmark(lambda: a * b)
    assert product.order == order
    benchmark.extra_info["md_flops"] = series_flops("mul", order, limbs)
    benchmark.extra_info["launches"] = series_launches("mul", order)


@pytest.mark.parametrize("limbs", [2], ids=["2d"])
@pytest.mark.parametrize("order", [8, 32])
@pytest.mark.parametrize("backend", sorted(_STAIRCASES))
def test_newton_staircase(benchmark, backend, order, limbs):
    """The full order-by-order staircase on the examples' system."""
    staircase = _STAIRCASES[backend]
    result = benchmark(
        lambda: staircase(
            sqrt_system, sqrt_jacobian, [1, 1], order, limbs, tile_size=1
        )
    )
    assert result.order == order


def test_cauchy_product_speedup_quick():
    """The floor of the heavy sweep at its smallest asserted point
    (order 32, dd), kept un-heavy so the CI ``perf-smoke`` job enforces
    it on every push and refreshes ``BENCH_series.json``."""
    order, limbs = 32, 2
    scalar_a, scalar_b = _random_pair(ScalarSeries, order, limbs)
    vector_a, vector_b = _random_pair(TruncatedSeries, order, limbs)
    expected = [c.limbs for c in scalar_a * scalar_b]
    observed = [c.limbs for c in vector_a * vector_b]
    assert observed == expected
    scalar_seconds = harness.best_seconds(lambda: scalar_a * scalar_b, repeats=3)
    vector_seconds = harness.best_seconds(lambda: vector_a * vector_b, repeats=5)
    speedup = scalar_seconds / vector_seconds
    harness.record(
        "series",
        f"cauchy_order{order}_{limbs}d",
        shape=harness.problem_shape(n=1, order=order),
        order=order,
        limbs=limbs,
        scalar_seconds=scalar_seconds,
        vectorized_seconds=vector_seconds,
        speedup=speedup,
        floor=10.0,
        md_flops=series_flops("mul", order, limbs),
        launches=series_launches("mul", order),
    )
    assert speedup >= 10.0


@pytest.mark.heavy
@pytest.mark.parametrize("order", [32, 64])
def test_cauchy_product_speedup(order):
    """Acceptance contract: >= 10x on series multiplication at dd for
    order >= 32 (measured 16-40x on the development machine)."""
    limbs = 2
    scalar_a, scalar_b = _random_pair(ScalarSeries, order, limbs)
    vector_a, vector_b = _random_pair(TruncatedSeries, order, limbs)
    # identical bits first — a speedup over a wrong kernel is worthless
    expected = [c.limbs for c in scalar_a * scalar_b]
    observed = [c.limbs for c in vector_a * vector_b]
    assert observed == expected
    scalar_seconds = harness.best_seconds(lambda: scalar_a * scalar_b, repeats=3)
    vector_seconds = harness.best_seconds(lambda: vector_a * vector_b, repeats=5)
    speedup = scalar_seconds / vector_seconds
    harness.record(
        "series",
        f"cauchy_order{order}_{limbs}d",
        shape=harness.problem_shape(n=1, order=order),
        order=order,
        limbs=limbs,
        scalar_seconds=scalar_seconds,
        vectorized_seconds=vector_seconds,
        speedup=speedup,
        floor=10.0,
        md_flops=series_flops("mul", order, limbs),
        launches=series_launches("mul", order),
    )
    print(
        f"\norder {order} dd Cauchy product: scalar {scalar_seconds * 1e3:.2f} ms, "
        f"vectorized {vector_seconds * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 10.0


@pytest.mark.heavy
def test_newton_staircase_speedup():
    """The staircase is solver-bound at dimension 2, but the vectorized
    residual arithmetic must still win clearly at order 32."""
    run_vectorized = lambda: newton_series(
        sqrt_system, sqrt_jacobian, [1, 1], 32, 2, tile_size=1
    )
    run_reference = lambda: scalar_oracle.newton_series(
        sqrt_system, sqrt_jacobian, [1, 1], 32, 2, tile_size=1
    )
    reference_seconds = harness.best_seconds(run_reference, repeats=2)
    vectorized_seconds = harness.best_seconds(run_vectorized, repeats=2)
    speedup = reference_seconds / vectorized_seconds
    print(
        f"\norder 32 dd staircase: reference {reference_seconds * 1e3:.1f} ms, "
        f"vectorized {vectorized_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 1.5
