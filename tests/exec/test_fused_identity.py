"""Identity of the fused backend against the generic reference.

The whole point of :mod:`repro.exec.fused` is that it reorganizes
*execution* (scratch buffers, ``out=`` chains, stacked limb EFTs,
cached index grids, L2 tiling, head-chain scans) without touching a
single float *operation* — same EFT formulas, same reduction trees,
same renormalization order.  IEEE arithmetic is deterministic, so every
result must match the generic backend at every precision, on every
shape, zeros and broadcasts included: every non-NaN bit equal and NaNs
at the same positions (``equal_nan=True``).  A NaN's sign or payload is
not compared: of two NaN operands NumPy keeps one by operand order and
by launch width, so the two backends can carry different NaNs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import FusedBackend, GenericBackend, use_backend
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray, pairwise_reduce

# (17, 19) is the one shape past the fused head-chain scan threshold
# (repro.exec.fused._SCAN_MAX_PLANE): every op meets both chain sides
SHAPES = [(), (5,), (32, 8), (7, 1), (3, 4, 2), (17, 19)]


@pytest.fixture(scope="module")
def generic():
    return GenericBackend()


@pytest.fixture(scope="module")
def fused():
    return FusedBackend()


def sample(rng, limbs, shape):
    """A valid limb-major stack with exact zeros sprinkled into the
    lower limbs (they exercise the renormalization swap passes)."""
    data = rng.standard_normal((limbs, *shape))
    for k in range(1, limbs):
        data[k] = data[k - 1] * 2.0**-53 * rng.standard_normal(shape)
    if limbs > 1 and shape:
        flat = data.reshape(limbs, -1)
        cols = rng.integers(0, flat.shape[1], size=max(1, flat.shape[1] // 5))
        flat[rng.integers(1, limbs, size=cols.size), cols] = 0.0
    return data


def assert_identical(result, reference):
    __tracebackhide__ = True
    assert result.shape == reference.shape
    assert np.array_equal(result, reference, equal_nan=True)


class TestBackendOps:
    """Raw backend surface at d/dd/qd/od across shapes."""

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_ops(self, generic, fused, rng, limbs, shape, op):
        x = sample(rng, limbs, shape)
        y = sample(rng, limbs, shape)
        assert_identical(getattr(fused, op)(x, y), getattr(generic, op)(x, y))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_sqr_fma_sqrt(self, generic, fused, rng, limbs, shape):
        x = sample(rng, limbs, shape)
        y = sample(rng, limbs, shape)
        z = sample(rng, limbs, shape)
        assert_identical(fused.sqr(x), generic.sqr(x))
        assert_identical(fused.fma(x, y, z), generic.fma(x, y, z))
        positive = np.abs(x)
        assert_identical(fused.sqrt(positive), generic.sqrt(positive))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_broadcast(self, generic, fused, rng, limbs, op):
        x = sample(rng, limbs, (7, 1))
        y = sample(rng, limbs, (1, 6))
        assert_identical(getattr(fused, op)(x, y), getattr(generic, op)(x, y))

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_scalar_mixed(self, generic, fused, rng, limbs, op):
        x = sample(rng, limbs, ())
        y = sample(rng, limbs, (5,))
        assert_identical(getattr(fused, op)(x, y), getattr(generic, op)(x, y))

    def test_renormalize(self, generic, fused, rng, limbs):
        for terms in (max(1, limbs - 1), limbs, limbs + 2, 2 * limbs):
            planes = []
            scale = 1.0
            for _ in range(terms):
                planes.append(rng.standard_normal((6, 3)) * scale)
                scale *= 2.0**-50
            assert_identical(
                fused.renormalize(planes, limbs), generic.renormalize(planes, limbs)
            )

    def test_tiled_large_launch(self, generic, fused, rng, limbs):
        """Shapes past the L2-tiling threshold chunk internally — the
        chunks must reproduce the one-shot floats exactly."""
        x = sample(rng, limbs, (70000,))
        y = sample(rng, limbs, (70000,))
        assert_identical(fused.add(x, y), generic.add(x, y))
        assert_identical(fused.mul(x, y), generic.mul(x, y))


class TestLaunchHooks:
    """The value-neutral data-movement hooks."""

    @pytest.mark.parametrize("terms", [1, 3, 5, 33])
    def test_gather_antidiagonals(self, generic, fused, rng, terms):
        data = rng.standard_normal((2, 4, terms, terms))
        assert_identical(
            fused.gather_antidiagonals(data, terms),
            generic.gather_antidiagonals(data, terms),
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 33])
    def test_pairwise_reduce(self, generic, fused, rng, n):
        data = rng.standard_normal((2, n, 6))

        def combine(a, b):
            return GenericBackend().add(a, b, 2)

        def pad(shape):
            return np.zeros(shape)

        with use_backend(generic):
            reference = pairwise_reduce(data, 1, combine, pad)
        with use_backend(fused):
            result = pairwise_reduce(data, 1, combine, pad)
        assert_identical(result, reference)


class TestArrayLayer:
    """MDArray / MDComplexArray arithmetic under a swapped backend."""

    def _pair(self, rng, limbs, shape=(4, 5)):
        return (
            MDArray(sample(rng, limbs, shape)),
            MDArray(sample(rng, limbs, shape)),
        )

    def test_mdarray_arithmetic(self, rng, limbs):
        a, b = self._pair(rng, limbs)
        with use_backend("generic"):
            reference = ((a + b) * a - b / a).data.copy()
            summed = (a * b).sum(axis=0).data.copy()
        with use_backend("fused"):
            result = ((a + b) * a - b / a).data
            fused_sum = (a * b).sum(axis=0).data
        assert_identical(result, reference)
        assert_identical(fused_sum, summed)

    def test_mdarray_astype(self, rng, limbs):
        a, _ = self._pair(rng, limbs)
        for target in (1, 2, 4, 8):
            with use_backend("generic"):
                reference = a.astype(target).data.copy()
            with use_backend("fused"):
                result = a.astype(target).data
            assert_identical(result, reference)

    def test_complex_arithmetic(self, rng, md_limbs):
        re1, im1 = self._pair(rng, md_limbs)
        re2, im2 = self._pair(rng, md_limbs)
        x = MDComplexArray(re1, im1)
        y = MDComplexArray(re2, im2)
        with use_backend("generic"):
            ref = ((x + y) * x - y / x) * x.conj()
            ref_real, ref_imag = ref.real.data.copy(), ref.imag.data.copy()
            ref_abs = x.abs().data.copy()
        with use_backend("fused"):
            out = ((x + y) * x - y / x) * x.conj()
            out_abs = x.abs().data
        assert_identical(out.real.data, ref_real)
        assert_identical(out.imag.data, ref_imag)
        assert_identical(out_abs, ref_abs)
