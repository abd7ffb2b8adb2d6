"""Tests for the multiple double dense linear algebra kernels."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.exec.backend import get_backend
from repro.md import MultiDouble
from repro.vec import MDArray, MDComplexArray, linalg
from repro.vec.complexmd import combine_product_grid
from repro.vec import random as mdrandom


class TestMatvec:
    def test_matches_numpy_double(self, rng):
        a = rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        y = linalg.matvec(MDArray.from_double(a, 2), MDArray.from_double(x, 2))
        assert np.allclose(y.to_double(), a @ x, rtol=1e-14)

    def test_full_precision_against_scalar_reference(self, md_limbs, rng):
        a = mdrandom.random_matrix(6, 4, md_limbs, rng)
        x = mdrandom.random_vector(4, md_limbs, rng)
        y = linalg.matvec(a, x)
        for i in range(6):
            acc = MultiDouble(0, md_limbs)
            # pairwise order (as used by the reduction) for an exact match
            terms = [a.to_multidouble((i, j)) * x.to_multidouble(j) for j in range(4)]
            while len(terms) > 1:
                half = (len(terms) + 1) // 2
                merged = []
                for k in range(half):
                    if k + half < len(terms):
                        merged.append(terms[k] + terms[k + half])
                    else:
                        merged.append(terms[k])
                terms = merged
            acc = terms[0]
            diff = abs((y.to_multidouble(i) - acc).to_fraction())
            assert diff <= abs(acc.to_fraction()) * Fraction(1, 2 ** (50 * md_limbs))

    def test_complex(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = linalg.matvec(MDComplexArray.from_complex(a, 2), MDComplexArray.from_complex(x, 2))
        assert np.allclose(y.to_complex(), a @ x, rtol=1e-13)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            linalg.matvec(MDArray.zeros((3, 3), 2), MDArray.zeros((4,), 2))
        with pytest.raises(ValueError):
            linalg.matvec(MDArray.zeros((3,), 2), MDArray.zeros((3,), 2))


class TestMatmul:
    def test_matches_numpy_double(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        c = linalg.matmul(MDArray.from_double(a, 2), MDArray.from_double(b, 2))
        assert np.allclose(c.to_double(), a @ b, rtol=1e-14)

    def test_complex_matches_numpy(self, rng):
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        c = linalg.matmul(MDComplexArray.from_complex(a, 2), MDComplexArray.from_complex(b, 2))
        assert np.allclose(c.to_complex(), a @ b, rtol=1e-13)

    def test_identity_is_neutral(self, md_limbs, rng):
        a = mdrandom.random_matrix(5, 5, md_limbs, rng)
        eye = linalg.identity(5, md_limbs)
        assert linalg.matmul(a, eye).allclose(a, tol=0.0) or linalg.matmul(a, eye).equals(a)

    def test_associativity_within_precision(self, rng):
        m = 4
        a = mdrandom.random_matrix(4, 4, m, rng)
        b = mdrandom.random_matrix(4, 4, m, rng)
        c = mdrandom.random_matrix(4, 4, m, rng)
        left = linalg.matmul(linalg.matmul(a, b), c)
        right = linalg.matmul(a, linalg.matmul(b, c))
        assert left.allclose(right, tol=1e-60)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            linalg.matmul(MDArray.zeros((2, 3), 2), MDArray.zeros((2, 3), 2))
        with pytest.raises(ValueError):
            linalg.matmul(MDArray.zeros((3,), 2), MDArray.zeros((3, 3), 2))


class TestVectorOps:
    def test_dot_and_outer(self, rng):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        xd, yd = MDArray.from_double(x, 2), MDArray.from_double(y, 2)
        assert float(linalg.dot(xd, yd).to_double()) == pytest.approx(x @ y)
        assert np.allclose(linalg.outer(xd, yd).to_double(), np.outer(x, y))

    def test_conjugated_dot(self):
        x = MDComplexArray.from_complex(np.array([1 + 1j, 2j]), 2)
        y = MDComplexArray.from_complex(np.array([1 - 1j, 3.0]), 2)
        plain = linalg.dot(x, y).to_complex()
        conj = linalg.dot(x, y, conjugate=True).to_complex()
        xv, yv = np.array([1 + 1j, 2j]), np.array([1 - 1j, 3.0])
        assert plain == pytest.approx(np.sum(xv * yv))
        assert conj == pytest.approx(np.sum(xv.conj() * yv))

    def test_dot_requires_vectors(self):
        with pytest.raises(ValueError):
            linalg.dot(MDArray.zeros((2, 2), 2), MDArray.zeros((2,), 2))
        with pytest.raises(ValueError):
            linalg.outer(MDArray.zeros((2, 2), 2), MDArray.zeros((2,), 2))

    def test_norm_real_and_complex(self):
        x = MDArray.from_double(np.array([3.0, 4.0]), 4)
        assert float(linalg.norm(x).to_double()) == pytest.approx(5.0)
        z = MDComplexArray.from_complex(np.array([3 + 4j]), 4)
        assert float(linalg.norm(z).to_double()) == pytest.approx(5.0)

    def test_frobenius_norm(self, rng):
        a = rng.standard_normal((4, 3))
        amd = MDArray.from_double(a, 2)
        assert float(linalg.frobenius_norm(amd).to_double()) == pytest.approx(
            np.linalg.norm(a)
        )
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        zmd = MDComplexArray.from_complex(z, 2)
        assert float(linalg.frobenius_norm(zmd).to_double()) == pytest.approx(
            np.linalg.norm(z)
        )

    def test_residual_norm(self, rng):
        a = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        b = a @ x
        res = linalg.residual_norm(
            MDArray.from_double(a, 2), MDArray.from_double(x, 2), MDArray.from_double(b, 2)
        )
        assert res < 1e-14

    def test_max_abs_entry(self):
        assert linalg.max_abs_entry(MDArray.from_double(np.array([-3.0, 2.0]), 2)) == 3.0
        z = MDComplexArray.from_complex(np.array([3 + 4j]), 2)
        assert linalg.max_abs_entry(z) == pytest.approx(5.0)


class TestStructuredHelpers:
    def test_identity(self):
        eye = linalg.identity(4, 2)
        assert np.array_equal(eye.to_double(), np.eye(4))
        eye_c = linalg.identity(3, 2, complex_data=True)
        assert np.array_equal(eye_c.to_complex(), np.eye(3).astype(complex))

    def test_triu_tril(self, rng):
        a = rng.standard_normal((4, 4))
        amd = MDArray.from_double(a, 2)
        assert np.array_equal(linalg.triu(amd).to_double(), np.triu(a))
        assert np.array_equal(linalg.tril(amd, -1).to_double(), np.tril(a, -1))
        z = MDComplexArray.from_complex(a + 1j * a, 2)
        assert np.array_equal(linalg.triu(z, 1).to_complex(), np.triu(a + 1j * a, 1))

    def test_conjugate_transpose_dispatch(self, rng):
        a = rng.standard_normal((3, 4))
        amd = MDArray.from_double(a, 2)
        assert np.array_equal(linalg.conjugate_transpose(amd).to_double(), a.T)
        assert np.array_equal(linalg.transpose(amd).to_double(), a.T)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        zmd = MDComplexArray.from_complex(z, 2)
        assert np.array_equal(linalg.conjugate_transpose(zmd).to_complex(), z.conj().T)


class TestRandomGenerators:
    def test_random_matrix_properties(self, md_limbs):
        a = mdrandom.random_matrix(5, 3, md_limbs, rng=1)
        assert a.shape == (5, 3) and a.limbs == md_limbs
        assert np.max(np.abs(a.to_double())) <= 1.0
        if md_limbs > 1:
            assert np.any(a.data[1] != 0.0)

    def test_random_vector_deterministic_with_seed(self):
        a = mdrandom.random_vector(4, 2, rng=42)
        b = mdrandom.random_vector(4, 2, rng=42)
        assert a.equals(b)

    def test_random_complex(self):
        z = mdrandom.random_complex_matrix(3, 3, 2, rng=0)
        assert isinstance(z, MDComplexArray)
        w = mdrandom.random_complex_vector(3, 2, rng=0)
        assert w.shape == (3,)

    def test_lu_factor_double(self, rng):
        a = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        perm, l, u = mdrandom.lu_factor_double(a)
        assert np.allclose(l @ u, a[perm], atol=1e-12)
        assert np.allclose(np.tril(u, -1), 0)
        assert np.allclose(np.triu(l, 1), 0)

    def test_lu_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            mdrandom.lu_factor_double(np.zeros((2, 3)))

    def test_lu_rejects_singular(self):
        with pytest.raises(ZeroDivisionError):
            mdrandom.lu_factor_double(np.zeros((3, 3)))

    def test_well_conditioned_triangular(self):
        u = mdrandom.random_well_conditioned_upper_triangular(24, 2, rng=3)
        head = u.to_double()
        assert np.allclose(np.tril(head, -1), 0)
        assert np.all(np.abs(np.diag(head)) > 1e-8)
        # the whole point: condition number far below exponential growth
        assert np.linalg.cond(head) < 1e6

    def test_well_conditioned_triangular_complex(self):
        u = mdrandom.random_well_conditioned_upper_triangular(8, 2, rng=3, complex_data=True)
        assert isinstance(u, MDComplexArray)
        assert np.allclose(np.tril(u.to_complex(), -1), 0)

    def test_lstsq_problem_shapes(self):
        a, b = mdrandom.random_lstsq_problem(10, 6, 2, rng=0)
        assert a.shape == (10, 6) and b.shape == (10,)
        a, b = mdrandom.random_lstsq_problem(5, 5, 2, rng=0, complex_data=True)
        assert isinstance(a, MDComplexArray)

    def test_lstsq_problem_rejects_wide(self):
        with pytest.raises(ValueError):
            mdrandom.random_lstsq_problem(3, 5, 2)


def _product_grid_cauchy(a, b, terms):
    """The product-grid path of :func:`linalg.cauchy_product` at any
    number of coefficients: one multiplication over the ``(terms,
    terms)`` grid, the anti-diagonal gather and the pairwise sum (a
    complex operand on the ``(2, 2)`` channel grid, folded by
    :func:`combine_product_grid`)."""
    if isinstance(a, MDComplexArray) or isinstance(b, MDComplexArray):
        planes = []
        for operand in (a, b):
            if not isinstance(operand, MDComplexArray):
                operand = MDComplexArray(operand, MDArray.zeros(operand.shape, operand.limbs))
            planes.append(np.stack([operand.real.data, operand.imag.data], axis=1))
        shape = planes[0].shape[:1] + (2, 2) + planes[0].shape[2:]
        left = np.broadcast_to(planes[0][:, :, None], shape)
        right = np.broadcast_to(planes[1][:, None, :], shape)
        grid = _product_grid_cauchy(MDArray(left), MDArray(right), terms)
        return combine_product_grid(grid.data)
    products = MDArray(a.data[..., :terms, None]) * MDArray(b.data[..., None, :terms])
    diagonals = MDArray(get_backend().gather_antidiagonals(products.data, terms))
    return diagonals.sum(axis=diagonals.ndim - 2)


def _special_operand(rng, limbs, terms, kind):
    """Series of 12 components with signed zeros, infinities and NaNs
    among the heads of the leading coefficient."""

    def plane():
        data = rng.standard_normal((limbs, 12, terms))
        data[1:] *= 1e-17 * 2.0 ** -(52 * np.arange(limbs - 1))[:, None, None]
        data[:, :6, 0] = 0.0
        data[0, :6, 0] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        return MDArray(data)

    if kind == "complex":
        return MDComplexArray(plane(), plane())
    return plane()


class TestCauchyOneCoefficient:
    """With one coefficient asked for, ``cauchy_product`` runs the
    elementwise product only; it must equal the product-grid path in
    every non-NaN bit and in where the NaNs are."""

    @staticmethod
    def assert_same_bits(ours, theirs):
        __tracebackhide__ = True
        assert type(ours) is type(theirs)
        for a, b in zip(
            (ours.real.data, ours.imag.data) if isinstance(ours, MDComplexArray) else (ours.data,),
            (theirs.real.data, theirs.imag.data)
            if isinstance(theirs, MDComplexArray)
            else (theirs.data,),
            strict=True,
        ):
            assert a.shape == b.shape
            nan = np.isnan(a)
            assert np.array_equal(nan, np.isnan(b))
            assert np.array_equal(a.view(np.int64)[~nan], b.view(np.int64)[~nan])

    @pytest.mark.parametrize(
        "kinds", [("real", "real"), ("complex", "complex"), ("real", "complex")], ids="-".join
    )
    @pytest.mark.parametrize("terms", [1, 4], ids=["one-coefficient", "order-0-of-4"])
    def test_matches_the_product_grid(self, md_limbs, kinds, terms):
        rng = np.random.default_rng(md_limbs + 10 * terms)
        a = _special_operand(rng, md_limbs, terms, kinds[0])
        b = _special_operand(rng, md_limbs, terms, kinds[1])
        with np.errstate(all="ignore"):
            for x, y in ((a, b), (b, a), (a, a)):
                expected = _product_grid_cauchy(x, y, 1)
                order = 0 if terms > 1 else None
                self.assert_same_bits(linalg.cauchy_product(x, y, order), expected)
                assert linalg.cauchy_product(x, y, 0).shape == (12, 1)

    def test_a_one_ulp_change_is_caught(self):
        rng = np.random.default_rng(2)
        a = _special_operand(rng, 2, 1, "real")
        b = _special_operand(rng, 2, 1, "real")
        data = a.data.copy()
        data[0, 8, 0] = np.nextafter(data[0, 8, 0], np.inf)
        with np.errstate(all="ignore"):
            with pytest.raises(AssertionError):
                self.assert_same_bits(
                    linalg.cauchy_product(MDArray(data), b), _product_grid_cauchy(a, b, 1)
                )
