"""One series evaluated alone is a batch of one over the vectorized sweep.

:meth:`TruncatedSeries.evaluate`, :meth:`TruncatedSeries.coefficient_condition`
and :meth:`ComplexTruncatedSeries.evaluate` run
:func:`repro.vec.linalg.horner`, :func:`repro.series.vector.coefficient_conditions`
and :func:`repro.series.vector.evaluation_magnitudes` on one series.
Their values must equal the scalar walks of the oracle
``tests/oracles/series.py`` bit for bit: every limb is compared through
its int64 view, so signed zeros, infinities and the last bit all count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.series import ComplexTruncatedSeries, TruncatedSeries
from repro.vec import random as mdrandom
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

from ..oracles import series as oracle

ORDERS = (0, 1, 3, 8)

REAL_POINTS = (0.0, -0.0, 0.37, -1.3, 2.5, 1e-3)

COMPLEX_POINTS = (0.0, -0.0, 0.37, -1.3, 0.3 - 0.2j, complex(-0.0, 0.0), -0.7j, 1.1 + 0.9j)


def bits(value) -> tuple:
    """Every limb of a (complex) multiple double, as int64 words."""
    if isinstance(value, ComplexMultiDouble):
        return bits(value.real) + bits(value.imag)
    if isinstance(value, MultiDouble):
        return tuple(np.asarray(value.limbs, dtype=np.float64).view(np.int64))
    return (int(np.float64(value).view(np.int64)),)


def real_series(order, limbs, rng) -> list:
    """Random, all-zero, negative-zero and cancelling series."""
    random = TruncatedSeries.from_mdarray(mdrandom.random_vector(order + 1, limbs, rng))
    negative_zero = TruncatedSeries.from_mdarray(
        MDArray.from_double(np.full(order + 1, -0.0), limbs)
    )
    alternating = TruncatedSeries(
        [(-1.0) ** k * (k + 1) for k in range(order + 1)], limbs
    )
    return [random, TruncatedSeries.zero(order, limbs), negative_zero, alternating]


def complex_series(order, limbs, rng) -> list:
    random = ComplexTruncatedSeries.from_mdarray(
        mdrandom.random_complex_vector(order + 1, limbs, rng)
    )
    real_only = ComplexTruncatedSeries.from_mdarray(
        MDComplexArray(mdrandom.random_vector(order + 1, limbs, rng))
    )
    negative_zero = ComplexTruncatedSeries.from_mdarray(
        MDComplexArray(
            MDArray.from_double(np.full(order + 1, -0.0), limbs),
            MDArray.from_double(np.full(order + 1, -0.0), limbs),
        )
    )
    zero = ComplexTruncatedSeries.from_mdarray(MDComplexArray.zeros((order + 1,), limbs))
    return [random, real_only, negative_zero, zero]


@pytest.mark.parametrize("order", ORDERS)
def test_real_evaluation_matches_the_scalar_walk(order, limbs, rng):
    for series in real_series(order, limbs, rng):
        for point in REAL_POINTS + (MultiDouble(1, limbs) / 3,):
            value = series.evaluate(point)
            assert isinstance(value, MultiDouble)
            assert bits(value) == bits(oracle.evaluate(series, point)), (series, point)


@pytest.mark.parametrize("order", ORDERS)
def test_real_condition_matches_the_scalar_walk(order, limbs, rng):
    for series in real_series(order, limbs, rng):
        for point in REAL_POINTS:
            condition = series.coefficient_condition(point)
            assert type(condition) is float
            expected = oracle.coefficient_condition(series, point)
            assert bits(condition) == bits(expected), (series, point)


@pytest.mark.parametrize("order", ORDERS)
def test_complex_evaluation_matches_the_scalar_walk(order, limbs, rng):
    points = COMPLEX_POINTS + (ComplexMultiDouble(MultiDouble(1, limbs) / 3, MultiDouble(-0.25, limbs)),)
    for series in complex_series(order, limbs, rng):
        for point in points:
            value = series.evaluate(point)
            assert isinstance(value, ComplexMultiDouble)
            expected = oracle.complex_evaluate(series, point)
            assert bits(value) == bits(expected), (series, point)


def test_conditions_cover_the_zero_value_branches():
    """A zero value reads 1.0 over a zero series and ``inf`` over a
    cancelling one, as the scalar walk does."""
    assert TruncatedSeries.zero(3, 2).coefficient_condition(0.5) == 1.0
    cancelling = TruncatedSeries([1.0, -1.0], 2)
    assert cancelling.coefficient_condition(1.0) == float("inf")
    assert oracle.coefficient_condition(cancelling, 1.0) == float("inf")


def test_comparison_catches_a_one_ulp_change(rng):
    """The int64 view sees a change in the last limb's last bit."""
    series = TruncatedSeries.from_mdarray(mdrandom.random_vector(4, 2, rng))
    value = series.evaluate(0.37)
    nudged = MultiDouble.from_limbs(
        [value.limbs[0], float(np.nextafter(value.limbs[1], np.inf))], 2
    )
    assert bits(value) == bits(oracle.evaluate(series, 0.37))
    assert bits(nudged) != bits(value)
