"""Tests for the Householder vectors and reflectors of the dense oracle,
the reference the batched Householder kernel is pinned against."""

from __future__ import annotations

import numpy as np
import pytest

from repro.vec import MDArray, MDComplexArray, linalg
from repro.vec import random as mdrandom

from ..oracles.dense import apply_reflector_left, householder_vector, reflector_matrix


def md_eps(limbs: int) -> float:
    return 2.0 ** (-50 * limbs)


class TestRealHouseholder:
    def test_annihilates_below_first_entry(self, md_limbs, rng):
        x = mdrandom.random_vector(9, md_limbs, rng)
        v, beta, s = householder_vector(x)
        P = reflector_matrix(v, beta)
        px = linalg.matvec(P, x)
        tail = px[1:].abs().max_abs_double()
        assert tail <= 64 * md_eps(md_limbs)

    def test_maps_to_signed_norm(self, md_limbs, rng):
        x = mdrandom.random_vector(6, md_limbs, rng)
        v, beta, s = householder_vector(x)
        px = linalg.matvec(reflector_matrix(v, beta), x)
        head = px[0] - s
        assert abs(float(head.to_double())) <= 64 * md_eps(md_limbs)
        norm = float(linalg.norm(x).to_double())
        assert abs(abs(float(s.to_double())) - norm) <= 1e-13

    def test_sign_choice_avoids_cancellation(self):
        # leading entry positive -> s negative, v[0] = x0 + ||x||
        x = MDArray.from_double(np.array([3.0, 4.0]), 2)
        v, beta, s = householder_vector(x)
        assert float(s.to_double()) == pytest.approx(-5.0)
        assert float(v[0].to_double()) == pytest.approx(8.0)
        # leading entry negative -> s positive
        x2 = MDArray.from_double(np.array([-3.0, 4.0]), 2)
        _, _, s2 = householder_vector(x2)
        assert float(s2.to_double()) == pytest.approx(5.0)

    def test_reflector_is_orthogonal_and_symmetric(self, rng):
        x = mdrandom.random_vector(5, 2, rng)
        v, beta, _ = householder_vector(x)
        P = reflector_matrix(v, beta)
        eye = linalg.matmul(P, P)
        assert np.max(np.abs(eye.to_double() - np.eye(5))) < 1e-29
        assert np.max(np.abs(P.to_double() - P.to_double().T)) < 1e-30

    def test_zero_column(self):
        x = MDArray.zeros((4,), 2)
        v, beta, s = householder_vector(x)
        assert float(beta.to_double()) == 0.0
        assert float(v[0].to_double()) == 1.0
        assert float(s.to_double()) == 0.0

    def test_single_element_column(self):
        x = MDArray.from_double(np.array([2.5]), 2)
        v, beta, s = householder_vector(x)
        px = linalg.matvec(reflector_matrix(v, beta), x)
        assert abs(float(px[0].to_double())) == pytest.approx(2.5)

    def test_requires_vector(self):
        with pytest.raises(ValueError):
            householder_vector(MDArray.zeros((3, 3), 2))


class TestComplexHouseholder:
    def test_annihilates_below_first_entry(self, rng):
        x = mdrandom.random_complex_vector(7, 2, rng)
        v, beta, s = householder_vector(x)
        P = reflector_matrix(v, beta)
        px = linalg.matvec(P, x)
        tail = np.max(np.abs(px[1:].to_complex()))
        assert tail < 1e-29

    def test_result_magnitude_is_norm(self, rng):
        x = mdrandom.random_complex_vector(5, 4, rng)
        v, beta, s = householder_vector(x)
        px = linalg.matvec(reflector_matrix(v, beta), x)
        norm = float(linalg.norm(x).to_double())
        assert abs(px[0].to_complex()) == pytest.approx(norm, rel=1e-12)
        assert abs(complex(s.to_complex())) == pytest.approx(norm, rel=1e-12)

    def test_beta_is_real(self, rng):
        x = mdrandom.random_complex_vector(5, 2, rng)
        _, beta, _ = householder_vector(x)
        assert isinstance(beta, MDArray)

    def test_unitarity(self, rng):
        x = mdrandom.random_complex_vector(4, 2, rng)
        v, beta, _ = householder_vector(x)
        P = reflector_matrix(v, beta)
        PHP = linalg.matmul(linalg.conjugate_transpose(P), P)
        assert np.max(np.abs(PHP.to_complex() - np.eye(4))) < 1e-29

    def test_zero_column(self):
        x = MDComplexArray.zeros((3,), 2)
        v, beta, s = householder_vector(x)
        assert float(beta.to_double()) == 0.0
        assert complex(v[0].to_complex()) == 1.0


class TestApplyReflector:
    def test_matches_explicit_matrix_product_real(self, rng):
        a = mdrandom.random_matrix(6, 4, 2, rng)
        v, beta, _ = householder_vector(a[:, 0])
        direct = apply_reflector_left(a, v, beta)
        explicit = linalg.matmul(reflector_matrix(v, beta), a)
        # absolute comparison: the annihilated entries are ~0, so a
        # relative test would compare rounding noise against itself
        assert linalg.max_abs_entry(direct - explicit) < 1e-28

    def test_matches_explicit_matrix_product_complex(self, rng):
        a = mdrandom.random_complex_matrix(5, 3, 2, rng)
        v, beta, _ = householder_vector(a[:, 0])
        direct = apply_reflector_left(a, v, beta)
        explicit = linalg.matmul(reflector_matrix(v, beta), a)
        assert linalg.max_abs_entry(direct - explicit) < 1e-28

    def test_first_column_becomes_e1_multiple(self, rng):
        a = mdrandom.random_matrix(5, 3, 4, rng)
        v, beta, s = householder_vector(a[:, 0])
        updated = apply_reflector_left(a, v, beta)
        below = np.max(np.abs(updated.to_double()[1:, 0]))
        assert below < 1e-60
        assert float(updated[0, 0].to_double()) == pytest.approx(float(s.to_double()))

    def test_requires_matrix_block(self, rng):
        x = mdrandom.random_vector(4, 2, rng)
        v, beta, _ = householder_vector(x)
        with pytest.raises(ValueError):
            apply_reflector_left(x, v, beta)

    def test_reflector_matrix_size_override(self, rng):
        x = mdrandom.random_vector(3, 2, rng)
        v, beta, _ = householder_vector(x)
        P = reflector_matrix(v, beta, size=3)
        assert P.shape == (3, 3)
