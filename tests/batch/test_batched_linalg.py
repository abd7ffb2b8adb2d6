"""The batched kernels are bit-identical to loops over the unbatched ones
(the Householder kernel to the dense oracle's)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.vec import batched as vb
from repro.vec import linalg
from repro.vec import random as mdrandom
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

from ..oracles.dense import householder_vector

BATCH = 5


def _matrices(rows, cols, limbs, rng, count=BATCH):
    return [mdrandom.random_matrix(rows, cols, limbs, rng) for _ in range(count)]


def _vectors(n, limbs, rng, count=BATCH):
    return [mdrandom.random_vector(n, limbs, rng) for _ in range(count)]


class TestStacking:
    def test_round_trip(self, rng, limbs):
        mats = _matrices(4, 3, limbs, rng)
        stacked = vb.stack(mats)
        assert stacked.shape == (BATCH, 4, 3)
        for original, back in zip(mats, vb.unstack(stacked)):
            assert np.array_equal(original.data, back.data)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            vb.stack([])
        with pytest.raises(ValueError):
            vb.stack([MDArray.zeros((2,), 2), MDArray.zeros((3,), 2)])
        with pytest.raises(ValueError):
            vb.stack([MDArray.zeros((2,), 2), MDArray.zeros((2,), 4)])

    def test_complex_stacks_both_planes(self, rng):
        mats = [
            MDComplexArray(
                MDArray.from_double(rng.standard_normal((3, 2)), 2),
                MDArray.from_double(rng.standard_normal((3, 2)), 2),
            )
            for _ in range(BATCH)
        ]
        stacked = vb.stack(mats)
        assert isinstance(stacked, MDComplexArray)
        assert stacked.shape == (BATCH, 3, 2)
        for original, back in zip(mats, vb.unstack(stacked)):
            assert original.equals(back)

    def test_mixed_kind_stack_rejected(self):
        with pytest.raises(ValueError):
            vb.stack([MDComplexArray.zeros((2,), 2), MDArray.zeros((2,), 2)])


class TestBatchedKernels:
    def test_matvec_bit_identical(self, rng, limbs):
        mats = _matrices(5, 4, limbs, rng)
        vecs = _vectors(4, limbs, rng)
        batched = vb.batched_matvec(vb.stack(mats), vb.stack(vecs))
        for i in range(BATCH):
            assert np.array_equal(
                batched.data[:, i], linalg.matvec(mats[i], vecs[i]).data
            )

    def test_matmul_bit_identical(self, rng, limbs):
        a = _matrices(4, 3, limbs, rng)
        b = _matrices(3, 5, limbs, rng)
        batched = vb.batched_matmul(vb.stack(a), vb.stack(b))
        for i in range(BATCH):
            assert np.array_equal(
                batched.data[:, i], linalg.matmul(a[i], b[i]).data
            )

    def test_dot_norm_outer_bit_identical(self, rng, limbs):
        x = _vectors(6, limbs, rng)
        y = _vectors(6, limbs, rng)
        sx, sy = vb.stack(x), vb.stack(y)
        dots = vb.batched_dot(sx, sy)
        norms = vb.batched_norm(sx)
        outers = vb.batched_outer(sx, sy)
        for i in range(BATCH):
            assert np.array_equal(dots.data[:, i], linalg.dot(x[i], y[i]).data)
            assert np.array_equal(norms.data[:, i], linalg.norm(x[i]).data)
            assert np.array_equal(outers.data[:, i], linalg.outer(x[i], y[i]).data)

    def test_transpose_and_identity(self, rng):
        mats = _matrices(3, 4, 2, rng)
        transposed = vb.batched_transpose(vb.stack(mats))
        for i in range(BATCH):
            assert np.array_equal(transposed.data[:, i], mats[i].T.data)
        eye = vb.batched_identity(3, 4, 2)
        for i in range(3):
            assert np.array_equal(eye.data[:, i], linalg.identity(4, 2).data)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            vb.batched_matvec(MDArray.zeros((2, 3, 3), 2), MDArray.zeros((2, 4), 2))
        with pytest.raises(ValueError):
            vb.batched_matmul(MDArray.zeros((2, 3, 3), 2), MDArray.zeros((2, 4, 3), 2))
        with pytest.raises(ValueError):
            vb.batched_transpose(MDArray.zeros((3, 3), 2))


class TestBatchedHouseholder:
    def test_bit_identical(self, rng, limbs):
        columns = _vectors(6, limbs, rng)
        v, beta, s = vb.batched_householder_vector(vb.stack(columns))
        for i, column in enumerate(columns):
            v_ref, beta_ref, s_ref = householder_vector(column)
            assert np.array_equal(v.data[:, i], v_ref.data)
            assert np.array_equal(beta.data[:, i], beta_ref.data)
            assert np.array_equal(s.data[:, i], s_ref.data)

    def test_zero_column_patched_without_disturbing_mates(self, rng):
        columns = _vectors(4, 2, rng, count=3)
        columns[1] = MDArray.zeros((4,), 2)
        v, beta, s = vb.batched_householder_vector(vb.stack(columns))
        for i, column in enumerate(columns):
            v_ref, beta_ref, s_ref = householder_vector(column)
            assert np.array_equal(v.data[:, i], v_ref.data), i
            assert np.array_equal(beta.data[:, i], beta_ref.data), i
            assert np.array_equal(s.data[:, i], s_ref.data), i
        # the degenerate member really is the identity reflector
        assert float(beta.data[0, 1]) == 0.0
        assert float(v.data[0, 1, 0]) == 1.0
