"""Tests for the least squares solver and the baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import numpy_lstsq_double
from repro.core.least_squares import STAGE_APPLY_QT, lstsq, solve
from repro.vec import MDArray, MDComplexArray, linalg
from repro.vec import random as mdrandom

from ..oracles import dense


class TestSquareSystems:
    @pytest.mark.parametrize("limbs,tol", [(2, 1e-27), (4, 1e-58), (8, 1e-110)])
    def test_residual_reaches_working_precision(self, limbs, tol, rng):
        a = mdrandom.random_matrix(12, 12, limbs, rng)
        x_true = mdrandom.random_vector(12, limbs, rng)
        b = linalg.matvec(a, x_true)
        result = lstsq(a, b, tile_size=4)
        assert result.residual_norm(a, b) < 12 * tol
        assert result.x.allclose(x_true, tol=1e6 * tol)

    def test_solve_wrapper(self, rng):
        a = mdrandom.random_matrix(8, 8, 2, rng)
        b = mdrandom.random_vector(8, 2, rng)
        x = solve(a, b, tile_size=4)
        assert linalg.residual_norm(a, x, b) < 1e-27

    def test_solve_requires_square(self, rng):
        a, b = mdrandom.random_lstsq_problem(8, 4, 2, rng)
        with pytest.raises(ValueError):
            solve(a, b)

    def test_agrees_with_numpy_double(self, rng):
        a = mdrandom.random_matrix(10, 10, 2, rng)
        b = mdrandom.random_vector(10, 2, rng)
        x = solve(a, b, tile_size=5)
        reference = np.linalg.solve(a.to_double(), b.to_double())
        assert np.allclose(x.to_double(), reference, rtol=1e-9, atol=1e-9)

    def test_improves_on_double_precision(self, rng):
        """The multiple double solution reduces the residual far below the
        double precision solution's — the reason the paper exists."""
        a = mdrandom.random_matrix(12, 12, 4, rng)
        b = mdrandom.random_vector(12, 4, rng)
        x_md = solve(a, b, tile_size=4)
        x_double = numpy_lstsq_double(a, b)
        res_md = linalg.residual_norm(a, x_md, b)
        res_double = linalg.residual_norm(a, MDArray.from_double(x_double, 4), b)
        assert res_md < 1e-30 * max(res_double, 1e-30)


class TestOverdeterminedSystems:
    def test_normal_equations_hold(self, md_limbs, rng):
        a, b = mdrandom.random_lstsq_problem(18, 10, md_limbs, rng)
        result = lstsq(a, b, tile_size=5)
        # at the least squares minimum, A^T (b - A x) = 0
        residual = b - linalg.matvec(a, result.x)
        gradient = linalg.matvec(linalg.conjugate_transpose(a), residual)
        assert linalg.max_abs_entry(gradient) < 18 * 2.0 ** (-48 * md_limbs)

    def test_matches_numpy_lstsq_in_double(self, rng):
        a, b = mdrandom.random_lstsq_problem(15, 7, 2, rng)
        result = lstsq(a, b, tile_size=7)
        reference = numpy_lstsq_double(a, b)
        assert np.allclose(result.x.to_double(), reference, rtol=1e-8, atol=1e-8)

    def test_complex_least_squares(self, rng):
        a, b = mdrandom.random_lstsq_problem(12, 6, 2, rng, complex_data=True)
        result = lstsq(a, b, tile_size=3)
        residual = b - linalg.matvec(a, result.x)
        gradient = linalg.matvec(linalg.conjugate_transpose(a), residual)
        assert linalg.max_abs_entry(gradient) < 1e-26
        reference = numpy_lstsq_double(a, b)
        assert np.allclose(result.x.to_complex(), reference, rtol=1e-8, atol=1e-8)

    def test_rhs_length_validation(self, rng):
        a, _ = mdrandom.random_lstsq_problem(10, 5, 2, rng)
        with pytest.raises(ValueError):
            lstsq(a, MDArray.zeros((9,), 2))


class TestInputChecks:
    @pytest.mark.parametrize(
        "kwargs",
        [{"tile_size": 0}, {"tile_size": -1}, {"bs_tile_size": 0}],
        ids=str,
    )
    def test_tile_sizes_must_be_positive(self, kwargs, rng):
        (name,) = kwargs
        a, b = mdrandom.random_lstsq_problem(8, 4, 2, rng)
        with pytest.raises(ValueError, match=name):
            lstsq(a, b, **kwargs)

    def test_complex_rhs_on_real_matrix_is_rejected(self, rng):
        a, _ = mdrandom.random_lstsq_problem(8, 4, 2, rng)
        b = mdrandom.random_complex_vector(8, 2, rng)
        with pytest.raises(ValueError, match="complex right-hand side"):
            lstsq(a, b)

    def test_rhs_precision_must_match(self, rng):
        a, _ = mdrandom.random_lstsq_problem(8, 4, 2, rng)
        with pytest.raises(ValueError, match="share the precision"):
            lstsq(a, mdrandom.random_vector(8, 4, rng))

    def test_real_rhs_on_complex_matrix_still_works(self, rng):
        a, _ = mdrandom.random_lstsq_problem(8, 4, 2, rng, complex_data=True)
        b = mdrandom.random_vector(8, 2, rng)
        result = lstsq(a, b, tile_size=2)
        assert result.x.equals(dense.lstsq(a, b, tile_size=2).x)

    def test_zero_column_raises(self, rng):
        a = mdrandom.random_matrix(8, 8, 2, rng)
        a[:, 5] = 0.0
        b = mdrandom.random_vector(8, 2, rng)
        with pytest.raises(ZeroDivisionError):
            lstsq(a, b, tile_size=4)


class TestTracesAndDefaults:
    def test_traces_are_separate_and_combinable(self, rng):
        a = mdrandom.random_matrix(16, 16, 2, rng)
        b = mdrandom.random_vector(16, 2, rng)
        result = lstsq(a, b, tile_size=4)
        assert len(result.qr_trace) > 0
        assert len(result.bs_trace) > 0
        combined = result.combined_trace
        assert len(combined) == len(result.qr_trace) + len(result.bs_trace)
        assert STAGE_APPLY_QT in result.bs_trace.stages()

    def test_qr_dominates_backsub_operations(self, rng):
        """The paper observes the BS kernel time is about 100x smaller than
        QR at dimension 1,024; at any dimension the operation counts are
        already lopsided because QR is cubic and BS quadratic."""
        a = mdrandom.random_matrix(24, 24, 2, rng)
        b = mdrandom.random_vector(24, 2, rng)
        result = lstsq(a, b, tile_size=4)
        qr_ops = result.qr_trace.total_md_operations()
        bs_ops = result.bs_trace.total_md_operations()
        assert qr_ops > 5 * bs_ops

    def test_default_tile_size_splits_into_eight_panels(self, rng):
        a = mdrandom.random_matrix(16, 16, 2, rng)
        b = mdrandom.random_vector(16, 2, rng)
        result = lstsq(a, b)
        assert result.tile_size == 2

    def test_default_tile_size_odd_dimension(self, rng):
        a = mdrandom.random_matrix(9, 9, 2, rng)
        b = mdrandom.random_vector(9, 2, rng)
        result = lstsq(a, b)
        assert linalg.residual_norm(a, result.x, b) < 1e-26

    def test_device_selection_propagates(self, rng):
        a = mdrandom.random_matrix(8, 8, 2, rng)
        b = mdrandom.random_vector(8, 2, rng)
        result = lstsq(a, b, tile_size=4, device="P100")
        assert result.qr_trace.device.name == "Pascal P100"
        assert result.bs_trace.device.name == "Pascal P100"


class TestBaselines:
    def test_numpy_lstsq_accepts_plain_arrays(self, rng):
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal(8)
        x = numpy_lstsq_double(a, b)
        assert np.allclose(x, np.linalg.lstsq(a, b, rcond=None)[0])

    def test_numpy_lstsq_accepts_md_arrays(self, rng):
        a, b = mdrandom.random_lstsq_problem(8, 4, 2, rng)
        x = numpy_lstsq_double(a, b)
        assert x.shape == (4,)

    def test_numpy_lstsq_accepts_complex(self, rng):
        a, b = mdrandom.random_lstsq_problem(8, 4, 2, rng, complex_data=True)
        x = numpy_lstsq_double(a, b)
        assert x.dtype.kind == "c"
