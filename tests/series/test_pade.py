"""Padé approximants against exact rational references, and the
library :func:`~repro.series.pade.pade` (a batch of one over
:func:`~repro.batch.pade.batched_pade`) against the unbatched
construction of the oracle ``tests/oracles/series.py``."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.md import get_precision
from repro.series import TruncatedSeries, pade
from repro.series.complexvec import ComplexTruncatedSeries
from repro.vec.complexmd import MDComplexArray

from ..oracles import series as series_oracle


def log1p_over_x_coefficients(order: int) -> list:
    """Taylor coefficients of log(1+x)/x (the examples' test function)."""
    return [Fraction((-1) ** k, k + 1) for k in range(order + 1)]


def exact_hankel_denominator(coeffs, L: int, M: int) -> list:
    """Exact rational solve of the [L/M] Hankel system (reference)."""
    def c(k):
        return coeffs[k] if 0 <= k < len(coeffs) else Fraction(0)

    matrix = [[c(L + i - j) for j in range(1, M + 1)] for i in range(1, M + 1)]
    rhs = [-c(L + i) for i in range(1, M + 1)]
    for col in range(M):
        pivot = max(range(col, M), key=lambda r, c=col: abs(matrix[r][c]))
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for row in range(col + 1, M):
            factor = matrix[row][col] / matrix[col][col]
            rhs[row] -= factor * rhs[col]
            for k in range(col, M):
                matrix[row][k] -= factor * matrix[col][k]
    solution = [Fraction(0)] * M
    for row in range(M - 1, -1, -1):
        acc = rhs[row] - sum(matrix[row][k] * solution[k] for k in range(row + 1, M))
        solution[row] = acc / matrix[row][row]
    return [Fraction(1)] + solution


def test_geometric_series_is_reproduced_exactly(limbs):
    """[0/1] of sum t^k is 1/(1-t): denominator (1, -1), zero defect."""
    series = TruncatedSeries([1] * 6, limbs)
    approximant = pade(series, 0, 1)
    assert [q.to_fraction() for q in approximant.denominator] == [1, -1]
    assert [p.to_fraction() for p in approximant.numerator] == [1]
    assert float(approximant.defect) == 0.0
    assert approximant.error_estimate(0.9) == 0.0


def test_exp_diagonal_approximant(limbs):
    """[1/1] of exp(t) is (1 + t/2) / (1 - t/2)."""
    factorial = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)]
    series = TruncatedSeries.from_fractions(factorial, limbs)
    approximant = pade(series, 1, 1)
    eps = get_precision(limbs).eps
    assert abs(approximant.denominator[1].to_fraction() + Fraction(1, 2)) <= 16 * eps
    assert abs(approximant.numerator[1].to_fraction() - Fraction(1, 2)) <= 16 * eps
    assert approximant.order == 2
    # the Cauchy bound 1/(1 + 1/2) is a valid lower bound on the pole at 2
    assert approximant.pole_estimate() == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert approximant.pole_estimate() <= 2.0


def test_denominator_matches_exact_hankel_solution(md_limbs):
    """Multiple double denominators track the exact rational solution."""
    m = 5
    coeffs = log1p_over_x_coefficients(2 * m + 1)
    series = TruncatedSeries.from_fractions(coeffs, md_limbs)
    approximant = pade(series, m, m)
    exact = exact_hankel_denominator(coeffs, m, m)
    eps = get_precision(md_limbs).eps
    worst = float(
        max(
            abs(q.to_fraction() - e)
            for q, e in zip(approximant.denominator, exact)
        )
    )
    # the Hankel solve loses roughly two digits per degree (~1e10 at
    # m = 5) but stays at that distance from the working precision
    assert worst <= 1e12 * eps


def test_precision_ladder_on_ill_conditioned_hankel():
    """The example's story: doubles break down, multiple doubles do not."""
    m = 8
    coeffs = log1p_over_x_coefficients(2 * m + 1)
    exact = exact_hankel_denominator(coeffs, m, m)
    worst = {}
    for limbs in (1, 2, 4, 8):
        approximant = pade(
            TruncatedSeries.from_fractions(coeffs, limbs), m, m
        )
        worst[limbs] = float(
            max(
                abs(q.to_fraction() - e)
                for q, e in zip(approximant.denominator, exact)
            )
        )
    assert worst[1] > 1e-8  # hardware doubles have lost half their digits
    assert worst[2] < 1e-12
    assert worst[4] < 1e-40
    assert worst[8] < 1e-100


def test_evaluation_matches_exact_fraction(md_limbs):
    coeffs = log1p_over_x_coefficients(9)
    approximant = pade(TruncatedSeries.from_fractions(coeffs, md_limbs), 4, 4)
    point = Fraction(1, 2)
    exact = approximant.evaluate_fraction(point)
    computed = approximant.evaluate(point).to_fraction()
    assert abs(computed - exact) <= 64 * get_precision(md_limbs).eps


def test_error_estimate_tracks_true_error(md_limbs):
    """The defect-based estimate bounds the true error within ~10x."""
    coeffs = log1p_over_x_coefficients(12)
    approximant = pade(TruncatedSeries.from_fractions(coeffs, md_limbs), 4, 4)
    point = Fraction(1, 4)
    reference = sum(Fraction((-1) ** k, k + 1) * point ** k for k in range(400))
    true_error = abs(float(approximant.evaluate_fraction(point) - reference))
    estimate = approximant.error_estimate(float(point))
    assert estimate > 0
    assert true_error <= 10 * estimate
    assert approximant.error_estimate(0.0) == 0.0


def test_degree_defaults_and_m_zero(limbs):
    series = TruncatedSeries.from_fractions(log1p_over_x_coefficients(8), limbs)
    diagonal = pade(series)
    assert diagonal.numerator_degree == 4
    assert diagonal.denominator_degree == 4
    taylor = pade(series, 5, 0)
    assert taylor.denominator_degree == 0
    assert [p.to_fraction() for p in taylor.numerator] == [
        series.coefficient(k).to_fraction() for k in range(6)
    ]
    assert taylor.trace is None


def test_plain_coefficient_list_and_precision_override():
    approximant = pade([1, 1, 1, 1], 1, 1, precision=4)
    assert approximant.precision.limbs == 4


def test_degree_validation():
    series = TruncatedSeries([1, 1, 1], 2)
    with pytest.raises(ValueError):
        pade(series, 2, 2)
    with pytest.raises(ValueError):
        pade(series, -1, 1)


def test_hankel_trace_is_recorded():
    series = TruncatedSeries.from_fractions(log1p_over_x_coefficients(9), 2)
    approximant = pade(series, 4, 4)
    assert approximant.trace is not None
    assert len(approximant.trace.launches) > 0


def _planes(array) -> np.ndarray:
    if isinstance(array, MDComplexArray):
        return np.stack([array.real.data, array.imag.data])
    return array.data


def _launches(trace):
    if trace is None:
        return None
    return [
        (launch.name, launch.blocks, launch.threads_per_block, launch.tally)
        for launch in trace.launches
    ]


def _same_approximant(ours, reference) -> bool:
    return (
        np.array_equal(_planes(ours.numerator_array), _planes(reference.numerator_array))
        and np.array_equal(
            _planes(ours.denominator_array), _planes(reference.denominator_array)
        )
        and ours.defect == reference.defect
        and ours.precision == reference.precision
        and _launches(ours.trace) == _launches(reference.trace)
    )


def _random_series(limbs, order, kind, seed=5):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(order + 1)
    if kind == "complex":
        values = values + 1j * rng.standard_normal(order + 1)
        return ComplexTruncatedSeries(list(values), limbs)
    return TruncatedSeries(list(values), limbs)


DEGREES = [(3, 3), (4, 4), (2, 3), (5, 0)]


class TestBatchOfOne:
    # complex od costs ~16x per operation; 1d-4d cover the complex path
    @pytest.mark.parametrize("degrees", DEGREES, ids=lambda d: f"{d[0]}-{d[1]}")
    @pytest.mark.parametrize(
        "kind, limbs",
        [("real", 1), ("real", 2), ("real", 4), ("real", 8),
         ("complex", 1), ("complex", 2), ("complex", 4)],
    )
    def test_matches_the_unbatched_oracle(self, kind, limbs, degrees):
        L, M = degrees
        series = _random_series(limbs, L + M + 1, kind)
        ours = pade(series, L, M)
        reference = series_oracle.pade(series, L, M)
        assert _same_approximant(ours, reference)
        assert (ours.trace is None) == (M == 0)

    def test_oracle_does_not_call_batched_pade(self, monkeypatch):
        series = _random_series(2, 8, "complex")
        expected = pade(series, 4, 4)

        def broken(*args, **kwargs):
            raise RuntimeError("batched_pade was called")

        monkeypatch.setattr("repro.batch.pade.batched_pade", broken)
        with pytest.raises(RuntimeError, match="batched_pade was called"):
            pade(series, 4, 4)
        assert _same_approximant(expected, series_oracle.pade(series, 4, 4))

    def test_one_ulp_in_a_coefficient_is_caught(self):
        series = _random_series(2, 8, "real")
        data = series.coefficients.data.copy()
        data[0, 5] = math.nextafter(data[0, 5], math.inf)
        nudged = TruncatedSeries.from_mdarray(type(series.coefficients)(data))
        assert _same_approximant(pade(series, 4, 4), series_oracle.pade(series, 4, 4))
        assert not _same_approximant(
            pade(series, 4, 4), series_oracle.pade(nudged, 4, 4)
        )

    def test_singular_hankel_system_raises(self):
        """A polynomial of degree below ``L + 1`` has an all-zero Hankel
        matrix: the unbatched solve raises, and so does the batch of one
        (the batched construction leaves that slice non-finite)."""
        from repro.batch.pade import batched_pade

        series = TruncatedSeries([1, 0.5, 0, 0, 0, 0, 0], 2)
        with pytest.raises(ZeroDivisionError):
            series_oracle.pade(series, 3, 3)
        with pytest.raises(ZeroDivisionError):
            pade(series, 3, 3)
        (approximant,) = batched_pade([series], 3, 3)
        assert not np.isfinite(approximant.denominator_array.data).all()
