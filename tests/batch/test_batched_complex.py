"""Complex batched kernels: bit-identical per slice to the unbatched
complex drivers.

The batching contract of :mod:`repro.batch`, lifted to complex
(separated-plane) data: every batched dense solver slice must equal the
unbatched dense oracle (``tests/oracles/dense.py``) and every batched
Padé slice the unbatched Padé oracle (``tests/oracles/series.py``), bit
for bit — the property the native complex path fleets inherit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.back_substitution import batched_back_substitution
from repro.batch.least_squares import batched_least_squares
from repro.batch.pade import batched_pade
from repro.batch.qr import batched_blocked_qr
from repro.series.complexvec import ComplexTruncatedSeries
from repro.vec import batched as vb
from repro.vec import linalg
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

from ..oracles import dense
from ..oracles import series as series_oracle

BATCH = 4


@pytest.fixture(params=[1, 2, 4], ids=["1d", "2d", "4d"])
def climbs(request):
    """Precisions exercised by the complex batch suite (od is covered
    by the real batch suite; complex od costs ~16x per operation)."""
    return request.param


def _complex_matrices(rows, cols, limbs, rng, count=BATCH):
    return [
        MDComplexArray(
            MDArray.from_double(rng.standard_normal((rows, cols)), limbs),
            MDArray.from_double(rng.standard_normal((rows, cols)), limbs),
        )
        for _ in range(count)
    ]


def _complex_vectors(n, limbs, rng, count=BATCH):
    return [
        MDComplexArray(
            MDArray.from_double(rng.standard_normal(n), limbs),
            MDArray.from_double(rng.standard_normal(n), limbs),
        )
        for _ in range(count)
    ]


def _complex_uppers(n, limbs, rng, count=BATCH):
    uppers = []
    for _ in range(count):
        real = np.triu(rng.standard_normal((n, n)))
        imag = np.triu(rng.standard_normal((n, n)))
        np.fill_diagonal(real, real.diagonal() + 3.0)  # well conditioned
        uppers.append(
            MDComplexArray(
                MDArray.from_double(real, limbs), MDArray.from_double(imag, limbs)
            )
        )
    return uppers


class TestBatchedComplexLinalg:
    def test_matvec_bit_identical(self, rng, climbs):
        mats = _complex_matrices(4, 3, climbs, rng)
        vecs = _complex_vectors(3, climbs, rng)
        batched = vb.batched_matvec(vb.stack(mats), vb.stack(vecs))
        for i in range(BATCH):
            assert batched[i].equals(linalg.matvec(mats[i], vecs[i]))

    def test_conjugate_transpose(self, rng):
        mats = _complex_matrices(3, 3, 2, rng)
        batched = vb.batched_conjugate_transpose(vb.stack(mats))
        for i in range(BATCH):
            assert batched[i].equals(mats[i].H)

    def test_householder_bit_identical(self, rng, climbs):
        columns = _complex_vectors(5, climbs, rng)
        v, beta, s = vb.batched_householder_vector(vb.stack(columns))
        for i, column in enumerate(columns):
            v_i, beta_i, s_i = dense.householder_vector(column)
            assert v[i].equals(v_i)
            assert np.array_equal(beta.data[:, i], beta_i.data)
            assert s[i].equals(s_i)

    def test_householder_zero_column_patched(self, rng):
        columns = _complex_vectors(4, 2, rng)
        columns[1] = MDComplexArray.zeros((4,), 2)
        v, beta, _ = vb.batched_householder_vector(vb.stack(columns))
        assert np.all(beta.data[:, 1] == 0.0)
        assert complex(v[1].to_scalar(0)) == 1.0
        # the healthy members keep their bits
        v_0, beta_0, _ = dense.householder_vector(columns[0])
        assert v[0].equals(v_0)


class TestBatchedComplexQR:
    def test_bit_identical_to_core(self, rng, climbs):
        mats = _complex_matrices(4, 4, climbs, rng)
        batched = batched_blocked_qr(vb.stack(mats), 2)
        for i, mat in enumerate(mats):
            solo = dense.blocked_qr(mat, 2)
            assert batched.Q[i].equals(solo.Q)
            assert batched.R[i].equals(solo.R)

    def test_factorization_reconstructs(self, rng):
        mats = _complex_matrices(6, 4, 2, rng)
        batched = batched_blocked_qr(vb.stack(mats), 2)
        assert batched.finite_systems().all()
        for i, mat in enumerate(mats):
            recon = linalg.matmul(batched.Q[i], batched.R[i])
            assert np.allclose(recon.to_complex(), mat.to_complex())


class TestBatchedComplexBackSubstitution:
    def test_bit_identical_to_core(self, rng, climbs):
        uppers = _complex_uppers(4, climbs, rng)
        rhs = _complex_vectors(4, climbs, rng)
        batched = batched_back_substitution(vb.stack(uppers), vb.stack(rhs), 2)
        assert batched.finite_systems().all()
        for i in range(BATCH):
            solo = dense.tiled_back_substitution(uppers[i], rhs[i], 2)
            assert batched.x[i].equals(solo.x)


class TestBatchedComplexLeastSquares:
    def test_bit_identical_to_core(self, rng, climbs):
        mats = _complex_matrices(4, 4, climbs, rng)
        rhs = _complex_vectors(4, climbs, rng)
        batched = batched_least_squares(vb.stack(mats), vb.stack(rhs), tile_size=2)
        assert batched.finite_systems().all()
        for i in range(BATCH):
            solo = dense.lstsq(mats[i], rhs[i], tile_size=2)
            assert batched.x[i].equals(solo.x)

    def test_solves_the_systems(self, rng):
        mats = _complex_matrices(4, 4, 2, rng)
        rhs = _complex_vectors(4, 2, rng)
        batched = batched_least_squares(vb.stack(mats), vb.stack(rhs), tile_size=2)
        for i in range(BATCH):
            residual = rhs[i].to_complex() - mats[i].to_complex() @ batched.x[
                i
            ].to_complex()
            # the oracle product is rounded to complex128, so the check
            # bottoms out at double precision
            assert np.max(np.abs(residual)) < 1e-12


class TestBatchedComplexPade:
    def _series(self, rng, climbs, count=BATCH, order=8):
        return [
            ComplexTruncatedSeries(
                list(
                    rng.standard_normal(order + 1)
                    + 1j * rng.standard_normal(order + 1)
                ),
                climbs,
            )
            for _ in range(count)
        ]

    def test_bit_identical_to_unbatched(self, rng, climbs):
        members = self._series(rng, climbs)
        batched = batched_pade(members, 3, 3)
        for member, ours in zip(members, batched):
            solo = series_oracle.pade(member, 3, 3)
            assert ours.numerator_array.equals(solo.numerator_array)
            assert ours.denominator_array.equals(solo.denominator_array)
            assert ours.defect == solo.defect

    def test_coefficient_stack_input(self, rng):
        members = self._series(rng, 2)
        stack = MDComplexArray(
            MDArray(
                np.stack([s.coefficients.real.data for s in members], axis=1)
            ),
            MDArray(
                np.stack([s.coefficients.imag.data for s in members], axis=1)
            ),
        )
        from_stack = batched_pade(stack, 3, 3)
        from_list = batched_pade(members, 3, 3)
        for a, b in zip(from_stack, from_list):
            assert a.numerator_array.equals(b.numerator_array)
            assert a.denominator_array.equals(b.denominator_array)

    def test_taylor_only_batch(self, rng):
        members = self._series(rng, 2, order=4)
        batched = batched_pade(members, 4, 0)
        for member, ours in zip(members, batched):
            solo = series_oracle.pade(member, 4, 0)
            assert ours.denominator_array.equals(solo.denominator_array)
            assert ours.numerator_array.equals(solo.numerator_array)

    def test_mixed_kind_batch_rejected(self, rng):
        from repro.series.truncated import TruncatedSeries

        with pytest.raises(ValueError):
            batched_pade(
                [
                    self._series(rng, 2, count=1)[0],
                    TruncatedSeries(list(rng.standard_normal(9)), 2),
                ],
                3,
                3,
            )
