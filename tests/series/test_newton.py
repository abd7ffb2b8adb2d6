"""Newton's method on power series versus exact rational coefficients.

The acceptance contract of the subsystem: the series solution of

    x1(t)^2       = 1 + t
    x1(t) * x2(t) = 1

has the exact coefficients binomial(1/2, k) and binomial(-1/2, k); the
computed coefficients must match them to the working precision at
hardware double, double double, quad double and octo double.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.md import get_precision
from repro.series import newton_series

ORDER = 10


def binomial_series(alpha: Fraction, order: int) -> list:
    coefficients = [Fraction(1)]
    for k in range(1, order + 1):
        coefficients.append(coefficients[-1] * (alpha - (k - 1)) / k)
    return coefficients


def sqrt_system(x, t):
    x1, x2 = x
    return [x1 * x1 - 1 - t, x1 * x2 - 1]


def sqrt_jacobian(x0):
    x1, x2 = x0
    return [[2 * x1, 0], [x2, x1]]


def test_series_coefficients_match_exact_fractions(limbs):
    """d / dd / qd / od: max relative coefficient error ~ working eps."""
    result = newton_series(sqrt_system, sqrt_jacobian, [1, 1], ORDER, limbs, tile_size=1)
    eps = get_precision(limbs).eps
    for component, alpha in ((0, Fraction(1, 2)), (1, Fraction(-1, 2))):
        exact = binomial_series(alpha, ORDER)
        errors = [
            abs((c.to_fraction() - e) / e)
            for c, e in zip(result.series[component].coefficients, exact)
        ]
        assert max(errors) <= 256 * eps
    assert result.head_residual == 0.0
    assert result.order == ORDER
    assert result.dimension == 2


def test_precision_ladder_improves_accuracy():
    """Doubling the precision squares the coefficient accuracy."""
    exact = binomial_series(Fraction(1, 2), ORDER)
    worst = {}
    for limbs in (1, 2, 4, 8):
        result = newton_series(
            sqrt_system, sqrt_jacobian, [1, 1], ORDER, limbs, tile_size=1
        )
        worst[limbs] = float(
            max(
                abs((c.to_fraction() - e) / e)
                for c, e in zip(result.series[0].coefficients, exact)
            )
        )
    assert worst[2] < worst[1] * 1e-10
    assert worst[4] < worst[2] * 1e-10
    assert worst[8] < worst[4] * 1e-10


def test_trace_records_one_solve_per_order():
    result = newton_series(sqrt_system, sqrt_jacobian, [1, 1], 6, 2, tile_size=1)
    stages = [launch.stage for launch in result.trace.launches]
    assert stages.count("Q^H * b") == 6


def test_evaluate_and_coefficients_helpers():
    result = newton_series(sqrt_system, sqrt_jacobian, [1, 1], 6, 4, tile_size=1)
    values = result.evaluate(Fraction(1, 4))
    product = values[0].to_fraction() * values[1].to_fraction()
    assert product == pytest.approx(1.0, abs=1e-4)  # truncation error only
    heads = result.coefficients(0)
    assert [h.to_fraction() for h in heads] == [1, 1]


def test_nonzero_head_residual_is_reported():
    result = newton_series(
        sqrt_system, sqrt_jacobian, [1.5, 1], 2, 2, tile_size=1
    )
    assert result.head_residual > 1.0


def test_jacobian_shape_validation():
    with pytest.raises(ValueError):
        newton_series(sqrt_system, lambda x0: [[1, 0, 0], [0, 1, 0]], [1, 1], 2, 2)


def test_residual_length_validation():
    with pytest.raises(ValueError):
        newton_series(
            lambda x, t: [x[0]], sqrt_jacobian, [1, 1], 2, 2, tile_size=1
        )


def _unreachable_jacobian(x0):
    raise AssertionError("the Jacobian was evaluated")


@pytest.mark.parametrize("order", [-1, 2.5, True], ids=["negative", "float", "bool"])
def test_bad_order_rejected_before_the_jacobian(order):
    with pytest.raises(ValueError, match="order"):
        newton_series(sqrt_system, _unreachable_jacobian, [1, 1], order, 2)
