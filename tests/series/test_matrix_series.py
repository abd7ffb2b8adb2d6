"""Linearized block Toeplitz series solves."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.gpu.kernel import KernelTrace
from repro.md import MultiDouble, get_precision
from repro.series import TruncatedSeries, series_from_vectors, solve_matrix_series
from repro.vec import MDArray, linalg
from repro.vec import random as mdrandom
from repro.vec.complexmd import MDComplexArray

from ..oracles import dense

ORDER = 5


def _matrix(entries, limbs):
    flat = [MultiDouble(e, limbs) for row in entries for e in row]
    n = len(entries)
    return MDArray.from_multidoubles(flat, limbs).reshape(n, n)


def _vector(entries, limbs):
    return MDArray.from_multidoubles([MultiDouble(e, limbs) for e in entries], limbs)


def test_constant_matrix_known_solution(md_limbs):
    """A_0 x(t) = b(t) with exactly representable data solves exactly."""
    limbs = md_limbs
    a0 = _matrix([[2, 0], [1, 1]], limbs)
    # choose the solution x_k = (2^-k, -2^-k) and build b = A_0 x exactly
    solution = [
        [Fraction(1, 2 ** k), -Fraction(1, 2 ** k)] for k in range(ORDER + 1)
    ]
    rhs = [
        _vector([2 * x1, x1 + x2], limbs)
        for x1, x2 in solution
    ]
    result = solve_matrix_series(a0, rhs, tile_size=1)
    assert result.order == ORDER
    assert result.dimension == 2
    eps = get_precision(limbs).eps
    for k, (x1, x2) in enumerate(solution):
        assert abs(result.coefficients[k].to_multidouble(0).to_fraction() - x1) <= 16 * eps
        assert abs(result.coefficients[k].to_multidouble(1).to_fraction() - x2) <= 16 * eps


def test_toeplitz_coupling_residual(md_limbs):
    """A(t) with two terms: the computed series satisfies the system."""
    limbs = md_limbs
    rng = np.random.default_rng(20220320)
    a0 = MDArray.from_double(rng.standard_normal((3, 3)) + 4 * np.eye(3), limbs)
    a1 = MDArray.from_double(rng.standard_normal((3, 3)), limbs)
    rhs = [MDArray.from_double(rng.standard_normal(3), limbs) for _ in range(ORDER + 1)]
    result = solve_matrix_series([a0, a1], rhs, tile_size=1)
    eps = get_precision(limbs).eps
    for k in range(ORDER + 1):
        recomposed = linalg.matvec(a0, result.coefficients[k])
        if k >= 1:
            recomposed = recomposed + linalg.matvec(a1, result.coefficients[k - 1])
        assert (recomposed - rhs[k]).abs().max_abs_double() <= 1e4 * eps


def test_series_view(md_limbs):
    a0 = _matrix([[1, 0], [0, 1]], md_limbs)
    rhs = [_vector([k + 1, -(k + 1)], md_limbs) for k in range(3)]
    result = solve_matrix_series(a0, rhs, tile_size=1)
    components = result.series()
    assert len(components) == 2
    assert isinstance(components[0], TruncatedSeries)
    assert components[0].coefficient(2).to_fraction() == 3
    assert result.component(1).coefficient(0).to_fraction() == -1


def test_series_from_vectors_round_trip():
    vectors = [_vector([1, 2], 2), _vector([3, 4], 2)]
    series = series_from_vectors(vectors)
    assert series[0].to_fractions() == [1, 3]
    assert series[1].to_fractions() == [2, 4]
    with pytest.raises(ValueError):
        series_from_vectors([])


def test_input_validation():
    a0 = _matrix([[1, 0], [0, 1]], 2)
    rect = MDArray.zeros((3, 2), 2)
    with pytest.raises(ValueError):
        solve_matrix_series(rect, [_vector([1, 2, 3], 2)])
    with pytest.raises(ValueError):
        solve_matrix_series(a0, [])
    with pytest.raises(ValueError):
        solve_matrix_series(a0, [_vector([1, 2, 3], 2)])
    with pytest.raises(ValueError):
        solve_matrix_series([a0, MDArray.zeros((3, 3), 2)], [_vector([1, 2], 2)])
    with pytest.raises(ValueError):
        solve_matrix_series([], [_vector([1, 2], 2)])


def _int64_planes(array):
    planes = (array.real, array.imag) if isinstance(array, MDComplexArray) else (array,)
    return [plane.data.view(np.int64) for plane in planes]


def _promoted(vector):
    return MDComplexArray(vector, MDArray.zeros(vector.shape, vector.limbs))


def _oracle_solve(matrices, rhs, tile_size):
    """The order-by-order solve assembled from the dense oracle (its QR,
    tile inversion and substitution) and the library's ``Q^H b``
    products and coupling updates, in the solver's operation order."""
    head = matrices[0]
    n = head.shape[0]
    qr = dense.blocked_qr(head, tile_size)
    q_conjugate = linalg.conjugate_transpose(qr.Q)
    upper = qr.R[:n, :n]
    trace = KernelTrace("V100")
    inverses = dense.invert_tiles(upper, tile_size, trace)
    if len(matrices) == 1:
        columns = linalg.matmul(
            q_conjugate,
            MDComplexArray(
                MDArray(np.stack([v.real.data for v in rhs], axis=-1)),
                MDArray(np.stack([v.imag.data for v in rhs], axis=-1)),
            ),
        )
        return [
            dense.substitute(upper, inverses, columns[:n, k], trace)
            for k in range(len(rhs))
        ]
    solution = []
    for k, b in enumerate(rhs):
        terms = min(k, len(matrices) - 1)
        if terms:
            update = linalg.matvec(matrices[1], solution[k - 1])
            for j in range(2, terms + 1):
                update = update + linalg.matvec(matrices[j], solution[k - j])
            b = b - update
        qhb = linalg.matvec(q_conjugate, b)
        solution.append(dense.substitute(upper, inverses, qhb[:n], trace))
    return solution


@pytest.mark.parametrize("terms", [1, 3], ids=["constant-head", "coupled"])
def test_complex_head_takes_real_right_hand_sides(terms, md_limbs):
    """Real right-hand sides under a complex head are promoted to the
    head's kind: the solution has the bits of the promoted solve and of
    the solve assembled from the dense oracle."""
    rng = np.random.default_rng(20220323)
    matrices = [
        mdrandom.random_complex_matrix(4, 4, md_limbs, rng) for _ in range(terms)
    ]
    matrices[0] = matrices[0] + linalg.identity(4, md_limbs, complex_data=True) * 4.0
    rhs = [mdrandom.random_vector(4, md_limbs, rng) for _ in range(ORDER + 1)]
    head = matrices[0] if terms == 1 else matrices
    result = solve_matrix_series(head, rhs, tile_size=2)
    promoted = solve_matrix_series(head, [_promoted(b) for b in rhs], tile_size=2)
    expected = _oracle_solve(matrices, [_promoted(b) for b in rhs], 2)
    assert result.coefficient_array is None
    for ours, again, theirs in zip(
        result.coefficients, promoted.coefficients, expected, strict=True
    ):
        assert isinstance(ours, MDComplexArray)
        planes = zip(
            _int64_planes(ours), _int64_planes(again), _int64_planes(theirs), strict=True
        )
        for a, b, c in planes:
            assert np.array_equal(a, b) and np.array_equal(a, c)
    # the batched real (n, K+1) form promotes the same way
    batched = MDArray(np.stack([b.data for b in rhs], axis=-1))
    for ours, theirs in zip(
        solve_matrix_series(head, batched, tile_size=2).coefficients,
        result.coefficients,
        strict=True,
    ):
        for a, b in zip(_int64_planes(ours), _int64_planes(theirs), strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("terms", [1, 2], ids=["constant-head", "coupled"])
def test_real_head_rejects_complex_right_hand_sides(terms):
    rng = np.random.default_rng(5)
    head = MDArray.from_double(rng.standard_normal((4, 4)) + 4 * np.eye(4), 2)
    rhs = [mdrandom.random_complex_vector(4, 2, rng) for _ in range(3)]
    with pytest.raises(ValueError, match="needs a complex matrix"):
        solve_matrix_series([head] * terms, rhs, tile_size=2)


def test_singular_head_raises():
    head = _matrix([[1, 0], [0, 0]], 2)
    with pytest.raises(ZeroDivisionError):
        solve_matrix_series(head, [_vector([1, 2], 2)], tile_size=1)
