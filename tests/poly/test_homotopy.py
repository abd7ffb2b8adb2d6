"""Homotopies: realification, endpoint identities, start solutions."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.md.number import MultiDouble
from repro.poly import (
    Homotopy,
    PolynomialSystem,
    cyclic,
    embed_complex,
    extract_complex,
    realify_terms,
    roots_of_unity,
    total_degree_start,
)
from repro.series.truncated import TruncatedSeries
from repro.vec.mdarray import MDArray

from ..oracles.poly import reference_evaluate_series, reference_homotopy
from ..oracles.series import ScalarSeries


def complex_evaluate(terms, point):
    """Plain-complex evaluation of a term list (the realification oracle)."""
    values = []
    for eq in terms:
        total = 0j
        for coefficient, exponents in eq:
            product = complex(coefficient)
            for z, e in zip(point, exponents):
                product *= z ** e
            total += product
        values.append(total)
    return values


class TestRealify:
    def test_matches_complex_evaluation(self):
        terms = [
            [(1, (2, 0)), (2 - 1j, (1, 1)), (-3j, (0, 0))],
            [(1j, (0, 3)), (1, (1, 0))],
        ]
        real_system = PolynomialSystem(realify_terms(terms, 2), 4)
        rng = np.random.default_rng(2)
        for _ in range(3):
            point = [complex(a, b) for a, b in rng.standard_normal((2, 2))]
            observed = real_system.evaluate(embed_complex(point), 2).to_double()
            expected = complex_evaluate(terms, point)
            assert observed[:2] == pytest.approx([v.real for v in expected])
            assert observed[2:] == pytest.approx([v.imag for v in expected])

    def test_exact_powers_of_i(self):
        # (x)^4 realified must have exact integer coefficients
        # (1j ** 4 in Python floats would leak rounding error)
        real_parts = realify_terms([[(1, (4,)), (-1, (0,))]], 1)
        for coefficient, _ in real_parts[0] + real_parts[1]:
            assert coefficient == int(coefficient)

    def test_degenerate_equation_rejected(self):
        with pytest.raises(ValueError):
            realify_terms([[(1, (0,))]], 1)  # constant: zero imaginary part

    def test_embed_extract_roundtrip(self):
        point = [1.5 - 2j, 0.25j, -3.0]
        assert extract_complex(embed_complex(point)) == [complex(v) for v in point]
        with pytest.raises(ValueError):
            extract_complex([1.0, 2.0, 3.0])


class TestTotalDegreeStart:
    def test_roots_of_unity(self):
        roots = roots_of_unity(6)
        assert len(roots) == 6
        assert roots[0] == 1
        for root in roots:
            assert abs(root ** 6 - 1) < 1e-12

    def test_start_solutions_solve_start_system(self):
        terms, solutions = total_degree_start([2, 3])
        assert len(solutions) == 6
        for solution in solutions:
            values = complex_evaluate(terms, solution)
            assert max(abs(v) for v in values) < 1e-12

    def test_homotopy_seeds_all_paths(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        assert homotopy.path_count == cyclic(3).total_degree == 6
        for start in homotopy.start_solutions():
            residual = homotopy.start_system.evaluate(start, 2)
            assert np.max(np.abs(residual.to_double())) < 1e-12


class TestGamma:
    def test_reproducible_from_seed(self):
        a = Homotopy.total_degree(cyclic(3), seed=123)
        b = Homotopy.total_degree(cyclic(3), seed=123)
        c = Homotopy.total_degree(cyclic(3), seed=124)
        assert a.gamma == b.gamma
        assert a.gamma != c.gamma
        assert abs(abs(a.gamma) - 1.0) < 1e-12  # on the unit circle

    def test_explicit_gamma(self):
        homotopy = Homotopy.total_degree(cyclic(3), gamma=0.6 + 0.8j)
        assert homotopy.gamma == 0.6 + 0.8j
        with pytest.raises(ValueError):
            Homotopy.total_degree(cyclic(3), gamma=0)


class TestEndpointIdentities:
    """``H(x, 0) = gamma G(x)`` and ``H(x, 1) = F(x)`` — exact, because
    multiplying a series by the exact constant 0/1 series is error
    free in the expansion arithmetic."""

    @pytest.fixture()
    def homotopy(self):
        return Homotopy.total_degree(cyclic(3), seed=7)

    @pytest.fixture()
    def arguments(self, homotopy):
        rng = np.random.default_rng(4)
        return [
            TruncatedSeries(list(row), 2)
            for row in rng.standard_normal((homotopy.real_dimension, 4))
        ]

    def test_h_at_zero_is_gamma_g(self, homotopy, arguments):
        n = homotopy.dimension
        t = TruncatedSeries.constant(0, 3, 2)
        observed = homotopy(arguments, t)
        g = homotopy.start_system.evaluate_series(arguments)
        a = MultiDouble(homotopy.gamma.real, 2)
        b = MultiDouble(homotopy.gamma.imag, 2)
        g_re = MDArray(g.coefficients.data[:, :n])
        g_im = MDArray(g.coefficients.data[:, n:])
        expected_re = g_re * a - g_im * b
        expected_im = g_re * b + g_im * a
        for i in range(n):
            assert np.array_equal(
                observed[i].coefficients.data, expected_re.data[:, i]
            )
            assert np.array_equal(
                observed[n + i].coefficients.data, expected_im.data[:, i]
            )

    def test_h_at_one_is_target(self, homotopy, arguments):
        t = TruncatedSeries.constant(1, 3, 2)
        observed = homotopy(arguments, t)
        expected = homotopy.target_system.evaluate_series(arguments)
        for i, series in enumerate(observed):
            assert np.array_equal(
                series.coefficients.data, expected.coefficients.data[:, i]
            )

    def test_jacobian_endpoints(self, homotopy):
        point = [0.3, -0.7, 1.1, 0.2, -0.4, 0.9]
        j_start = homotopy.jacobian(point, 0.0).to_double()
        j_end = homotopy.jacobian(point, 1.0).to_double()
        n = homotopy.dimension
        jg = homotopy.start_system.jacobian_matrix(point, 2).to_double()
        jf = homotopy.target_system.jacobian_matrix(point, 2).to_double()
        a, b = homotopy.gamma.real, homotopy.gamma.imag
        expected_start = np.concatenate(
            [a * jg[:n] - b * jg[n:], b * jg[:n] + a * jg[n:]]
        )
        assert j_start == pytest.approx(expected_start)
        assert j_end == pytest.approx(jf)


def _series_arguments(homotopy, limbs):
    """Random ``2n`` unknown series and the parameter ``0.3 + t``, as
    vectorized and as scalar series with the same coefficients."""
    rng = np.random.default_rng(6)
    coefficients = rng.standard_normal((homotopy.real_dimension, 5))
    vectorized = (
        [TruncatedSeries(list(row), limbs) for row in coefficients],
        TruncatedSeries.variable(4, limbs, head=0.3),
    )
    scalar = (
        [ScalarSeries(list(row), limbs) for row in coefficients],
        ScalarSeries.variable(4, limbs, head=0.3),
    )
    return vectorized, scalar


def _same_bits(vectorized, reference) -> bool:
    return all(
        np.array_equal(
            a.coefficients.data, np.array([c.limbs for c in b.coefficients]).T
        )
        for a, b in zip(vectorized, reference)
    )


class TestBitIdentity:
    def test_vectorized_vs_reference_at_every_precision(self, limbs):
        """The tracker-visible residual H(x, t): vectorized
        TruncatedSeries arguments against the scalar reference, exact
        limb equality at d/dd/qd/od."""
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        vectorized, scalar = _series_arguments(homotopy, limbs)
        assert _same_bits(
            homotopy(*vectorized), reference_homotopy(homotopy, *scalar)
        )


class TestReferenceOracle:
    """The homotopy identity is a gate, so it must be able to fail, and
    the oracle must not reach the kernels it checks."""

    def test_one_ulp_in_gamma_is_caught(self, limbs):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        vectorized, scalar = _series_arguments(homotopy, limbs)
        nudged = copy.copy(homotopy)
        nudged.gamma = complex(
            math.nextafter(homotopy.gamma.real, math.inf), homotopy.gamma.imag
        )
        assert not _same_bits(
            homotopy(*vectorized), reference_homotopy(nudged, *scalar)
        )

    def test_oracle_does_not_call_the_series_kernels(self, monkeypatch):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        target = homotopy.target_system
        vectorized, scalar = _series_arguments(homotopy, 2)
        expected = homotopy(*vectorized)
        expected_target = target(vectorized[0])

        def broken(*args, **kwargs):
            raise RuntimeError("a vectorized series kernel was called")

        monkeypatch.setattr("repro.vec.linalg.cauchy_product", broken)
        monkeypatch.setattr(PolynomialSystem, "evaluate_series", broken)
        # the patches are live: the library's series evaluation goes
        # through them
        with pytest.raises(RuntimeError, match="series kernel was called"):
            homotopy(*vectorized)
        with pytest.raises(RuntimeError, match="series kernel was called"):
            target(vectorized[0])
        with pytest.raises(RuntimeError, match="series kernel was called"):
            vectorized[1] * vectorized[1]
        assert _same_bits(
            expected_target, reference_evaluate_series(target, scalar[0])
        )
        assert _same_bits(expected, reference_homotopy(homotopy, *scalar))


class TestValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Homotopy(cyclic(3), PolynomialSystem([[(1, (1, 1)), (1, (0, 0))]], 2))

    def test_wrong_argument_count_rejected(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        with pytest.raises(ValueError):
            homotopy([TruncatedSeries([1.0], 2)], TruncatedSeries([0.0], 2))

    def test_resolve_start_shapes(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        realified = homotopy._resolve_start([1 + 1j, 2, 3 - 1j])
        assert realified == [1.0, 2.0, 3.0, 1.0, 0.0, -1.0]
        assert homotopy._resolve_start(realified) == realified
        with pytest.raises(ValueError):
            homotopy._resolve_start([1.0, 2.0])
