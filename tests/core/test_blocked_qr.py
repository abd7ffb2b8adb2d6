"""Tests for Algorithm 2 (blocked Householder QR) and the WY helpers of
the dense oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import stages
from repro.core.baseline import unblocked_householder_qr
from repro.core.blocked_qr import blocked_qr
from repro.vec import MDArray, MDComplexArray, linalg
from repro.vec import random as mdrandom

from ..oracles.dense import (
    accumulate_wy,
    apply_reflector_left,
    householder_vector,
    reflector_matrix,
    wy_product,
)


def orthogonality_error(Q):
    gram = linalg.matmul(linalg.conjugate_transpose(Q), Q)
    if isinstance(Q, MDComplexArray):
        return np.max(np.abs(gram.to_complex() - np.eye(Q.shape[0])))
    return np.max(np.abs(gram.to_double() - np.eye(Q.shape[0])))


def factorization_error(A, Q, R):
    diff = linalg.matmul(Q, R) - A
    return linalg.max_abs_entry(diff)


class TestWY:
    def test_wy_matches_reflector_product(self, rng):
        a = mdrandom.random_matrix(8, 3, 2, rng)
        vectors, betas = [], []
        work = a.copy()
        for l in range(3):
            v, beta, _ = householder_vector(work[l:, l])
            padded = MDArray.zeros((8,), 2)
            padded[l:] = v
            vectors.append(padded)
            betas.append(beta)
            work[l:, l:] = apply_reflector_left(work[l:, l:], v, beta)
        W, Y = accumulate_wy(vectors, betas)
        # P = P1 P2 P3 = I + W Y^T
        P = linalg.identity(8, 2)
        for v, beta in zip(vectors, betas):
            P = linalg.matmul(P, reflector_matrix(v, beta))
        wy = linalg.identity(8, 2) + linalg.matmul(W, linalg.conjugate_transpose(Y))
        assert np.max(np.abs(P.to_double() - wy.to_double())) < 1e-28

    def test_wy_product_shape_and_trace(self, rng):
        from repro.gpu import KernelTrace

        vectors = [mdrandom.random_vector(6, 2, rng) for _ in range(2)]
        betas = [MDArray.from_double(np.asarray(0.5), 2).reshape(()) for _ in range(2)]
        trace = KernelTrace("V100")
        W, Y = accumulate_wy(vectors, betas, trace=trace, threads_per_block=4)
        ywt = wy_product(W, Y, trace=trace, threads_per_block=4)
        assert W.shape == (6, 2) and Y.shape == (6, 2) and ywt.shape == (6, 6)
        assert stages.STAGE_COMPUTE_W in trace.stages()
        assert stages.STAGE_YWT in trace.stages()

    def test_accumulate_validation(self, rng):
        v = mdrandom.random_vector(4, 2, rng)
        beta = MDArray.from_double(np.asarray(1.0), 2).reshape(())
        with pytest.raises(ValueError):
            accumulate_wy([], [])
        with pytest.raises(ValueError):
            accumulate_wy([v], [beta, beta])
        with pytest.raises(ValueError):
            accumulate_wy([v, mdrandom.random_vector(5, 2, rng)], [beta, beta])


class TestBlockedQRReal:
    @pytest.mark.parametrize("dim,tile", [(16, 4), (24, 8), (12, 12), (20, 5)])
    def test_factorization_and_orthogonality_dd(self, dim, tile, rng):
        a = mdrandom.random_matrix(dim, dim, 2, rng)
        result = blocked_qr(a, tile)
        assert orthogonality_error(result.Q) < dim * 1e-29
        assert factorization_error(a, result.Q, result.R) < dim * 1e-29
        assert np.max(np.abs(np.tril(result.R.to_double(), -1))) == 0.0

    def test_higher_precisions(self, rng):
        for limbs, tol in ((4, 1e-60), (8, 1e-110)):
            a = mdrandom.random_matrix(8, 8, limbs, rng)
            result = blocked_qr(a, 4)
            assert orthogonality_error(result.Q) < tol
            assert factorization_error(a, result.Q, result.R) < tol

    def test_rectangular_matrix(self, rng):
        a = mdrandom.random_matrix(20, 8, 2, rng)
        result = blocked_qr(a, 4)
        assert result.Q.shape == (20, 20)
        assert result.R.shape == (20, 8)
        assert orthogonality_error(result.Q) < 1e-28
        assert factorization_error(a, result.Q, result.R) < 1e-28

    def test_agrees_with_unblocked_baseline(self, rng):
        a = mdrandom.random_matrix(12, 12, 2, rng)
        blocked = blocked_qr(a, 4)
        Qu, Ru, _ = unblocked_householder_qr(a)
        # R is unique up to column signs; compare magnitudes
        assert np.allclose(
            np.abs(blocked.R.to_double()), np.abs(Ru.to_double()), atol=1e-25
        )

    def test_agrees_with_numpy_in_double(self, rng):
        a = mdrandom.random_matrix(10, 10, 2, rng)
        result = blocked_qr(a, 5)
        _, r_np = np.linalg.qr(a.to_double())
        assert np.allclose(np.abs(result.R.to_double()[:10]), np.abs(r_np), atol=1e-12)

    def test_diagonal_of_r_nonzero(self, rng):
        a = mdrandom.random_matrix(16, 16, 2, rng)
        result = blocked_qr(a, 4)
        assert np.min(np.abs(np.diag(result.R.to_double()))) > 1e-6

    def test_identity_input(self):
        eye = linalg.identity(6, 2)
        result = blocked_qr(eye, 3)
        assert factorization_error(eye, result.Q, result.R) < 1e-30

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            blocked_qr(mdrandom.random_vector(4, 2, rng), 2)
        with pytest.raises(ValueError):
            blocked_qr(mdrandom.random_matrix(4, 6, 2, rng), 2)
        with pytest.raises(ValueError):
            blocked_qr(mdrandom.random_matrix(6, 6, 2, rng), 4)
        with pytest.raises(ValueError):
            blocked_qr(mdrandom.random_matrix(6, 6, 2, rng), 0)


class TestBlockedQRComplex:
    def test_factorization_and_unitarity(self, rng):
        a = mdrandom.random_complex_matrix(12, 12, 2, rng)
        result = blocked_qr(a, 4)
        assert orthogonality_error(result.Q) < 1e-28
        diff = linalg.matmul(result.Q, result.R) - a
        assert np.max(np.abs(diff.to_complex())) < 1e-28

    def test_r_is_upper_triangular(self, rng):
        a = mdrandom.random_complex_matrix(9, 9, 2, rng)
        result = blocked_qr(a, 3)
        assert np.max(np.abs(np.tril(result.R.to_complex(), -1))) == 0.0

    def test_quad_double_complex(self, rng):
        a = mdrandom.random_complex_matrix(6, 6, 4, rng)
        result = blocked_qr(a, 3)
        diff = linalg.matmul(result.Q, result.R) - a
        assert np.max(np.abs(diff.to_complex())) < 1e-58


class TestTraceStructure:
    def test_stage_names_match_paper_legend(self, rng):
        a = mdrandom.random_matrix(12, 12, 2, rng)
        result = blocked_qr(a, 4)
        observed = result.trace.stages()
        assert set(observed) == set(stages.QR_STAGES)
        # the trailing-update stages only appear when there is more than one tile
        single = blocked_qr(mdrandom.random_matrix(8, 8, 2, rng), 8)
        assert stages.STAGE_YWTC not in single.trace.stages()
        assert stages.STAGE_R_ADD not in single.trace.stages()

    def test_launch_counts_per_stage(self, rng):
        dim, tile = 12, 4
        tiles = dim // tile
        a = mdrandom.random_matrix(dim, dim, 2, rng)
        trace = blocked_qr(a, tile).trace
        per_stage = {s: 0 for s in stages.QR_STAGES}
        for launch in trace.launches:
            per_stage[launch.stage] += 1
        assert per_stage[stages.STAGE_BETA_V] == dim
        assert per_stage[stages.STAGE_BETA_RTV] == dim
        assert per_stage[stages.STAGE_UPDATE_R] == dim
        assert per_stage[stages.STAGE_COMPUTE_W] == dim
        assert per_stage[stages.STAGE_YWT] == tiles
        assert per_stage[stages.STAGE_QWYT] == tiles
        assert per_stage[stages.STAGE_Q_ADD] == tiles
        assert per_stage[stages.STAGE_YWTC] == tiles - 1
        assert per_stage[stages.STAGE_R_ADD] == tiles - 1

    def test_threads_per_block_is_tile_size(self, rng):
        a = mdrandom.random_matrix(12, 12, 2, rng)
        trace = blocked_qr(a, 6).trace
        assert all(launch.threads_per_block == 6 for launch in trace.launches)

    def test_flops_grow_with_precision(self, rng):
        a2 = mdrandom.random_matrix(8, 8, 2, rng)
        a4 = a2.astype(4)
        flops2 = blocked_qr(a2, 4).trace.total_flops()
        flops4 = blocked_qr(a4, 4).trace.total_flops()
        # same operation tallies, quad double multipliers are much larger
        assert flops4 > 3 * flops2

    def test_complex_flops_about_four_times_real(self, rng):
        real = mdrandom.random_matrix(8, 8, 2, rng)
        cplx = mdrandom.random_complex_matrix(8, 8, 2, rng)
        flops_r = blocked_qr(real, 4).trace.total_flops()
        flops_c = blocked_qr(cplx, 4).trace.total_flops()
        assert 2.5 < flops_c / flops_r < 4.5
