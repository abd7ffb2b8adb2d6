"""PolynomialSystem: construction, evaluation, bit-identity contracts."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.md.number import MultiDouble
from repro.poly import PolynomialSystem
from repro.series.truncated import TruncatedSeries
from repro.vec.mdarray import MDArray

from ..oracles import series as scalar_oracle
from ..oracles.poly import (
    pairwise_product,
    reference_evaluate,
    reference_evaluate_series,
    reference_jacobian,
    unbatched_jacobian,
)
from ..oracles.series import ScalarSeries


def example_system() -> PolynomialSystem:
    """F = [x^2 + y - 3, x*y - 2]."""
    return PolynomialSystem(
        [
            [(1, (2, 0)), (1, (0, 1)), (-3, (0, 0))],
            [(1, (1, 1)), (-2, (0, 0))],
        ]
    )


def dense_system() -> PolynomialSystem:
    """Three dense cubics in three variables (odd term counts, odd
    variable count — exercises the padding of every reduction tree)."""
    rng = np.random.default_rng(20220322)
    equations = []
    for _ in range(3):
        terms = []
        for _ in range(5):
            exponents = tuple(int(e) for e in rng.integers(0, 3, size=3))
            terms.append((float(rng.standard_normal()), exponents))
        terms.append((1.5, (0, 0, 0)))
        equations.append(terms)
    return PolynomialSystem(equations, 3)


class TestConstruction:
    def test_shape_metadata(self):
        system = example_system()
        assert system.equations == 2
        assert system.variables == 2
        assert system.degrees == (2, 2)
        assert system.total_degree == 4
        assert system.monomials == 5
        # products: 1, y, x, xy, x^2 (derivative products are subsets)
        assert system.distinct_products == 5
        assert system.shape["n"] == 2

    def test_like_monomials_merge(self):
        system = PolynomialSystem([[(1, (1,)), (2, (1,)), (1, (0,))]], 1)
        assert system.monomials == 2
        value = system.evaluate([2.0], 2)
        assert float(value.to_double()[0]) == 3 * 2.0 + 1

    def test_dict_exponents(self):
        system = PolynomialSystem([[(1, {0: 2}), (-1, {})]], variables=3)
        assert system.variables == 3
        assert float(system.evaluate([3.0, 0.0, 0.0], 2).to_double()[0]) == 8.0

    def test_zero_equation_rejected(self):
        with pytest.raises(ValueError):
            PolynomialSystem([[(1, (1,)), (-1, (1,))]], 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PolynomialSystem([[(1, (-1,))]], 1)

    def test_fraction_and_string_coefficients(self):
        system = PolynomialSystem(
            [[(Fraction(1, 3), (1,)), ("0.25", (0, ))]], 1
        )
        value = system.evaluate([3.0], 4).to_multidouble(0)
        expected = MultiDouble(Fraction(1, 3), 4) * 3 + MultiDouble("0.25", 4)
        assert value.limbs == expected.limbs


class TestEvaluation:
    def test_against_exact_fractions(self):
        system = example_system()
        x, y = Fraction(5, 4), Fraction(-1, 2)
        values = system.evaluate([x, y], 8)
        exact = [x * x + y - 3, x * y - 2]
        for i, expected in enumerate(exact):
            assert values.to_multidouble(i).to_fraction() == pytest.approx(
                float(expected), abs=1e-100
            )

    def test_jacobian_values(self):
        system = example_system()
        jac = system.jacobian_matrix([1.25, -0.5], 2).to_double()
        assert jac == pytest.approx(np.array([[2.5, 1.0], [-0.5, 1.25]]))

    def test_evaluate_with_jacobian_matches_separate_calls(self):
        system = dense_system()
        point = [0.3, -1.2, 0.7]
        values, jacobian = system.evaluate_with_jacobian(point, 2)
        assert values.equals(system.evaluate(point, 2))
        assert jacobian.equals(system.jacobian_matrix(point, 2))

    def test_mdarray_point(self):
        system = example_system()
        point = MDArray.from_double(np.array([1.25, -0.5]), 4)
        assert system.evaluate(point).equals(system.evaluate([1.25, -0.5], 4))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            example_system().evaluate([1.0], 2)


class TestBitIdentity:
    """The vectorized path against the loop-per-monomial reference —
    exact limb equality at every paper precision."""

    def test_point_evaluation(self, limbs):
        system = dense_system()
        point = [0.37, -1.21, 0.73]
        vectorized = system.evaluate(point, limbs)
        reference = reference_evaluate(system, point, limbs)
        for i, value in enumerate(reference):
            assert np.array_equal(vectorized.data[:, i], np.array(value.limbs))

    def test_jacobian(self, limbs):
        system = dense_system()
        point = [0.37, -1.21, 0.73]
        vectorized = system.jacobian_matrix(point, limbs)
        reference = reference_jacobian(system, point, limbs)
        for i in range(system.equations):
            for j in range(system.variables):
                assert np.array_equal(
                    vectorized.data[:, i, j], np.array(reference[i][j].limbs)
                )

    def test_series_evaluation(self, limbs):
        system = dense_system()
        rng = np.random.default_rng(5)
        coefficients = rng.standard_normal((3, 6))
        vectorized = system(
            [TruncatedSeries(list(row), limbs) for row in coefficients]
        )
        reference = reference_evaluate_series(
            system, [ScalarSeries(list(row), limbs) for row in coefficients]
        )
        assert all(isinstance(s, ScalarSeries) for s in reference)
        for a, b in zip(vectorized, reference):
            expected = np.array([c.limbs for c in b.coefficients]).T
            assert np.array_equal(a.coefficients.data, expected)

    def test_pairwise_product_matches_mdarray_prod(self, limbs):
        rng = np.random.default_rng(9)
        values = [MultiDouble(float(v), limbs) for v in rng.standard_normal(5)]
        array = MDArray.from_multidoubles(values, limbs)
        scalar = pairwise_product(values, MultiDouble(1, limbs))
        assert np.array_equal(
            array.prod(axis=0).data.reshape(-1), np.array(scalar.limbs)
        )


class TestSeriesOverloads:
    def test_jacobian_vs_series_directional_derivative(self):
        """The order-1 coefficient of ``F(x0 + t v)`` is ``J(x0) v`` —
        the finite-difference-on-series cross-check (exact up to
        rounding in the working precision)."""
        system = dense_system()
        point = [0.37, -1.21, 0.73]
        direction = [1.7, -0.4, 0.9]
        arguments = [
            TruncatedSeries([x, v], 4) for x, v in zip(point, direction)
        ]
        residuals = system(arguments)
        jacobian = system.jacobian_matrix(point, 4)
        jv = jacobian * MDArray.from_double(np.array(direction), 4).reshape(1, 3)
        expected = jv.sum(axis=1).to_double()
        observed = np.array([float(r.coefficient(1)) for r in residuals])
        assert observed == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_order_zero_series_match_point_evaluation(self):
        system = example_system()
        point = [1.25, -0.5]
        series = system([TruncatedSeries([v], 2) for v in point])
        values = system.evaluate(point, 2)
        for i, s in enumerate(series):
            assert np.array_equal(
                s.coefficients.data[:, 0], values.data[:, i]
            )

    def test_parametric_system_appends_t(self):
        """A system with one more variable than unknowns treats the
        parameter series as its last variable (F(x, t) = x^2 - 1 - t)."""
        system = PolynomialSystem([[(1, (2, 0)), (-1, (0, 0)), (-1, (0, 1))]], 2)
        x = TruncatedSeries([1.0, 0.0, 0.0], 2)
        t = TruncatedSeries.variable(2, 2)
        (residual,) = system([x], t)
        assert float(residual.coefficient(0)) == 0.0
        assert float(residual.coefficient(1)) == -1.0
        jacobian = system.jacobian([MultiDouble(1, 2)], 0.0)
        assert jacobian.shape == (1, 1)
        assert float(jacobian.to_double()[0, 0]) == 2.0

    def test_newton_series_accepts_system_directly(self):
        """The acceptance contract: no hand-written callables."""
        from repro.series import newton_series

        system = PolynomialSystem([[(1, (2, 0)), (-1, (0, 0)), (-1, (0, 1))]], 2)
        result = newton_series(system, [1.0], 6, 2)
        # x(t) = sqrt(1 + t) = 1 + t/2 - t^2/8 + t^3/16 - ...
        expected = [1.0, 0.5, -0.125, 0.0625]
        observed = [float(c) for c in result.series[0].coefficients][:4]
        assert observed == pytest.approx(expected, rel=1e-12)
        reference = scalar_oracle.newton_series(
            lambda x, t: reference_evaluate_series(system, [*x, t]),
            unbatched_jacobian(system.jacobian),
            [1.0],
            6,
            2,
        )
        for a, b in zip(result.series, reference.series):
            assert [c.limbs for c in a] == [c.limbs for c in b]

    def test_oracle_staircase_does_not_call_the_series_kernels(self, monkeypatch):
        from repro.series import newton_series

        system = PolynomialSystem([[(1, (2, 0)), (-1, (0, 0)), (-1, (0, 1))]], 2)
        expected = newton_series(system, [1.0], 6, 2)

        def broken(*args, **kwargs):
            raise RuntimeError("a vectorized series kernel was called")

        monkeypatch.setattr("repro.vec.linalg.cauchy_product", broken)
        monkeypatch.setattr(PolynomialSystem, "evaluate_series", broken)
        # the patches are live: the library staircase goes through them
        with pytest.raises(RuntimeError, match="series kernel was called"):
            newton_series(system, [1.0], 6, 2)
        reference = scalar_oracle.newton_series(
            lambda x, t: reference_evaluate_series(system, [*x, t]),
            unbatched_jacobian(system.jacobian),
            [1.0],
            6,
            2,
        )
        for a, b in zip(expected.series, reference.series):
            assert [c.limbs for c in a] == [c.limbs for c in b]

    def test_track_path_accepts_system_directly(self):
        from repro.series.tracker import track_path

        system = PolynomialSystem([[(1, (2, 0)), (-1, (0, 0)), (-1, (0, 1))]], 2)
        result = track_path(system, [1.0], tol=1e-10, order=8, max_steps=32)
        assert result.reached
        assert float(result.final_point[0]) == pytest.approx(np.sqrt(2.0), rel=1e-10)
