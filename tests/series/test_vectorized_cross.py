"""Vectorized limb-major series arithmetic vs the scalar reference.

The contract of the structure-of-arrays refactor: every series
operation computed on the limb-major :class:`TruncatedSeries` storage
must be **bit-identical** — not merely close — to the scalar
loop-per-coefficient :class:`ScalarSeries` oracle
(``tests/oracles/series.py``), at every paper precision.  Both paths
share :mod:`repro.md.generic` and the same product grid / pairwise
reduction tree, so any bit of divergence is a structural bug, not
harmless roundoff.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.md import MultiDouble, get_precision
from repro.series import TruncatedSeries, newton_series
from repro.vec import MDArray

from ..oracles import series as scalar_oracle
from ..oracles.series import ScalarSeries

ORDER = 12


def random_fractions(rng, count, nonzero_head=False, positive=False):
    """Random dyadic-ish rationals exercising several limbs."""
    values = []
    for index in range(count):
        numerator = int(rng.integers(1, 1000))
        denominator = int(rng.integers(1, 1000))
        value = Fraction(numerator, denominator)
        if not positive and rng.integers(0, 2):
            value = -value
        if nonzero_head and index == 0:
            value = abs(value) + 1
        values.append(value)
    return values


def limb_tuples(series):
    """The exact bit pattern of every coefficient."""
    return [c.limbs for c in series]


@pytest.fixture
def pair(rng, limbs):
    values = random_fractions(rng, ORDER + 1, nonzero_head=True)
    other = random_fractions(rng, ORDER + 1, nonzero_head=True)
    return (
        TruncatedSeries.from_fractions(values, limbs),
        ScalarSeries.from_fractions(values, limbs),
        TruncatedSeries.from_fractions(other, limbs),
        ScalarSeries.from_fractions(other, limbs),
    )


def test_construction_round_trip(pair):
    vectorized, scalar, _, _ = pair
    assert limb_tuples(vectorized) == limb_tuples(scalar)
    assert limb_tuples(scalar.to_truncated()) == limb_tuples(scalar)
    assert limb_tuples(ScalarSeries.from_truncated(vectorized)) == limb_tuples(vectorized)


def test_mdarray_round_trip(pair):
    vectorized, _, _, _ = pair
    array = vectorized.to_mdarray()
    assert isinstance(array, MDArray)
    rebuilt = TruncatedSeries.from_mdarray(array)
    assert rebuilt == vectorized
    # the array iterates as MultiDoubles, closing the loop to scalars
    assert [c.limbs for c in array] == limb_tuples(vectorized)
    # the round-tripped array is a copy, not an alias
    array.data[0, 0] += 1.0
    assert rebuilt == vectorized


def test_add_sub_bit_identical(pair):
    vectorized, scalar, other_vec, other_ref = pair
    assert limb_tuples(vectorized + other_vec) == limb_tuples(scalar + other_ref)
    assert limb_tuples(vectorized - other_vec) == limb_tuples(scalar - other_ref)
    assert limb_tuples(2 - vectorized) == limb_tuples(2 - scalar)
    assert limb_tuples(-vectorized) == limb_tuples(-scalar)


def test_cauchy_product_bit_identical(pair):
    vectorized, scalar, other_vec, other_ref = pair
    assert limb_tuples(vectorized * other_vec) == limb_tuples(scalar * other_ref)


def test_scale_and_calculus_bit_identical(pair):
    vectorized, scalar, _, _ = pair
    factor = Fraction(-3, 7)
    assert limb_tuples(vectorized.scale(factor)) == limb_tuples(scalar.scale(factor))
    assert limb_tuples(vectorized.derivative()) == limb_tuples(scalar.derivative())
    constant = Fraction(1, 3)
    assert limb_tuples(vectorized.integral(constant)) == limb_tuples(scalar.integral(constant))


def test_reciprocal_bit_identical(pair):
    vectorized, scalar, _, _ = pair
    assert limb_tuples(vectorized.reciprocal()) == limb_tuples(scalar.reciprocal())


def test_division_bit_identical(pair):
    vectorized, scalar, other_vec, other_ref = pair
    assert limb_tuples(vectorized / other_vec) == limb_tuples(scalar / other_ref)


def test_sqrt_bit_identical(pair):
    vectorized, scalar, _, _ = pair
    assert limb_tuples(vectorized.sqrt()) == limb_tuples(scalar.sqrt())


def test_exp_bit_identical(rng, limbs):
    # exp doubles magnitudes fast: keep the coefficients small
    values = [Fraction(int(rng.integers(-50, 50)), 100) for _ in range(ORDER + 1)]
    vectorized = TruncatedSeries.from_fractions(values, limbs)
    scalar = ScalarSeries.from_fractions(values, limbs)
    assert limb_tuples(vectorized.exp()) == limb_tuples(scalar.exp())


def test_log_bit_identical(pair):
    vectorized, scalar, _, _ = pair
    assert limb_tuples(vectorized.log()) == limb_tuples(scalar.log())


def test_power_bit_identical(pair):
    vectorized, scalar, _, _ = pair
    assert limb_tuples(vectorized ** 3) == limb_tuples(scalar ** 3)


def test_evaluate_bit_identical(pair):
    vectorized, scalar, _, _ = pair
    for point in (Fraction(1, 8), Fraction(-3, 16), 0.25):
        assert vectorized.evaluate(point).limbs == scalar.evaluate(point).limbs


def test_random_double_coefficients_bit_identical(rng, limbs):
    """Plain random doubles (not rationals) through the hot loop."""
    values = list(rng.standard_normal(ORDER + 1))
    values[0] = abs(values[0]) + 1.0
    other = list(rng.standard_normal(ORDER + 1))
    vectorized = TruncatedSeries(values, limbs)
    scalar = ScalarSeries(values, limbs)
    other_vec = TruncatedSeries(other, limbs)
    other_ref = ScalarSeries(other, limbs)
    assert limb_tuples(vectorized * other_vec) == limb_tuples(scalar * other_ref)
    assert limb_tuples(vectorized.reciprocal()) == limb_tuples(scalar.reciprocal())


def sqrt_system(x, t):
    x1, x2 = x
    return [x1 * x1 - 1 - t, x1 * x2 - 1]


def sqrt_jacobian(x0):
    return [[2 * x0[0], 0], [x0[1], x0[0]]]


@pytest.mark.parametrize("order", [8, 32])
def test_newton_staircase_backends_bit_identical(md_limbs, order):
    """The acceptance contract: the vectorized Newton staircase equals
    the scalar-oracle staircase coefficient for coefficient, bit for
    bit (order 32 at dd is the acceptance scenario)."""
    if order == 32 and md_limbs > 2:
        pytest.skip("order 32 is exercised at dd; qd/od covered at order 8")
    vectorized = newton_series(
        sqrt_system, sqrt_jacobian, [1, 1], order, md_limbs, tile_size=1
    )
    reference = scalar_oracle.newton_series(
        sqrt_system, sqrt_jacobian, [1, 1], order, md_limbs, tile_size=1
    )
    for i in range(2):
        assert limb_tuples(vectorized.series[i]) == limb_tuples(reference.series[i])
    # the traces are identical too: the two staircases share the solves
    assert len(vectorized.trace) == len(reference.trace)
    assert vectorized.head_residual == reference.head_residual


def test_vector_series_on_result_matches_components(md_limbs):
    result = newton_series(sqrt_system, sqrt_jacobian, [1, 1], 6, md_limbs, tile_size=1)
    assert result.vector.dimension == 2
    for i in range(2):
        assert limb_tuples(result.vector.component(i)) == limb_tuples(result.series[i])


def test_scalar_reference_eq_hash(limbs):
    a = ScalarSeries([1, 2, 3], limbs)
    b = ScalarSeries([1, 2, 3], limbs)
    assert a == b and hash(a) == hash(b)
    v = TruncatedSeries([1, 2, 3], limbs)
    w = TruncatedSeries([1, 2, 3], limbs)
    assert v == w and hash(v) == hash(w)
    assert np.array_equal(v.coefficients.data, w.coefficients.data)


class TestScalarOracle:
    """The identity comparisons above are gates, so they must be able
    to fail, and the oracle must not reach the kernels it checks."""

    def test_one_ulp_in_the_head_is_caught(self, pair, limbs):
        vectorized, scalar, other_vec, other_ref = pair
        coefficients = list(other_ref.coefficients)
        head = list(coefficients[0].limbs)
        head[0] = math.nextafter(head[0], math.inf)
        coefficients[0] = MultiDouble.from_limbs(head, limbs)
        nudged = ScalarSeries(coefficients, limbs)
        assert limb_tuples(vectorized * other_vec) == limb_tuples(scalar * other_ref)
        assert limb_tuples(vectorized * other_vec) != limb_tuples(scalar * nudged)

    def test_oracle_does_not_call_the_cauchy_kernel(self, monkeypatch):
        vectorized = newton_series(sqrt_system, sqrt_jacobian, [1, 1], 6, 2, tile_size=1)

        def broken_cauchy(*args, **kwargs):
            raise RuntimeError("the Cauchy kernel was called")

        monkeypatch.setattr("repro.vec.linalg.cauchy_product", broken_cauchy)
        a = TruncatedSeries([1.0, 2.0, 3.0], 2)
        # the patch is live: the library's products go through it
        with pytest.raises(RuntimeError, match="Cauchy kernel was called"):
            a * a
        with pytest.raises(RuntimeError, match="Cauchy kernel was called"):
            newton_series(sqrt_system, sqrt_jacobian, [1, 1], 6, 2, tile_size=1)
        scalar = ScalarSeries.from_truncated(a)
        assert limb_tuples(scalar * scalar) == [
            c.limbs for c in ScalarSeries([1.0, 4.0, 10.0], 2)
        ]
        reference = scalar_oracle.newton_series(
            sqrt_system, sqrt_jacobian, [1, 1], 6, 2, tile_size=1
        )
        for i in range(2):
            assert limb_tuples(reference.series[i]) == limb_tuples(vectorized.series[i])
