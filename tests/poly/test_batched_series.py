"""Fleet-wide batched series evaluation: one power table, ``b`` paths.

The library holds one series evaluator, batched; a single series
vector, ``Homotopy.__call__`` and the per-path residual adapters are
batches of one through it.  Its contract: evaluating a whole fleet's
series arguments through one shared power table is **bit-identical,
slice for slice**, to the unbatched evaluation of every path alone —
the oracles ``unbatched_evaluate_series``, ``unbatched_jacobian_series``
and ``unbatched_homotopy`` of ``tests/oracles/poly.py``, which never
call the batched evaluator — and costs exactly the launch sequence of a
single evaluation (flat in ``b``; only the grids grow).  Covered here:

* ``evaluate_series`` on raw ``(b, variables, K+1)`` limb planes, real
  and complex, and on one series vector;
* ``jacobian_series`` the same way on ``(b, equations, variables,
  K+1)`` output planes;
* ``residual_fleet`` of parametric systems and of both ``Homotopy``
  backends, ``Homotopy.__call__``, and the ``t_heads`` and ``t``
  argument checks;
* seeded failures: the oracles reproduce the library's bits with the
  batched evaluator patched out, and one ulp is caught;
* launch accounting: the numeric batched trace is launch-identical to
  ``polynomial_evaluation_trace(batch=b)``, launch counts stay flat in
  ``b``, and ``counts(batch=b)`` scales operations without adding
  launches.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.gpu.kernel import KernelTrace
from repro.md.constants import get_precision
from repro.perf.costmodel import polynomial_evaluation_trace
from repro.poly import Homotopy, PolynomialSystem, cyclic, katsura
from repro.series.complexvec import ComplexTruncatedSeries, ComplexVectorSeries
from repro.series.truncated import TruncatedSeries
from repro.series.vector import VectorSeries
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

from ..oracles.poly import (
    unbatched_evaluate_series,
    unbatched_homotopy,
    unbatched_jacobian_series,
)

BATCH = 5
ORDER = 4
LIMBS = 2


def real_planes(batch, variables, order, limbs, seed=0):
    """Deterministic batched coefficient planes (heads only, so every
    slice is a normalized multiple-double series)."""
    rng = np.random.default_rng(seed)
    data = np.zeros((limbs, batch, variables, order + 1))
    data[0] = rng.standard_normal((batch, variables, order + 1))
    return MDArray(data)


def complex_planes(batch, variables, order, limbs, seed=0):
    return MDComplexArray(
        real_planes(batch, variables, order, limbs, seed=seed),
        real_planes(batch, variables, order, limbs, seed=seed + 1),
    )


def path_vector(planes, p):
    """Path ``p`` of a batched plane stack as an unbatched series vector."""
    if isinstance(planes, MDComplexArray):
        return ComplexVectorSeries(
            MDComplexArray(
                MDArray(planes.real.data[:, p].copy()),
                MDArray(planes.imag.data[:, p].copy()),
            )
        )
    return VectorSeries(MDArray(planes.data[:, p].copy()))


def assert_planes_equal(batched, p, reference):
    """Slice ``p`` of a batched result equals the unbatched planes, bitwise."""
    if isinstance(batched, MDComplexArray):
        assert np.array_equal(batched.real.data[:, p], reference.real.data)
        assert np.array_equal(batched.imag.data[:, p], reference.imag.data)
    else:
        assert np.array_equal(batched.data[:, p], reference.data)


class TestBatchedEvaluationBitIdentity:
    @pytest.mark.parametrize(
        "system", [katsura(3), cyclic(4)], ids=["katsura3", "cyclic4"]
    )
    def test_real_slices_match_loop_per_path(self, system):
        planes = real_planes(BATCH, system.variables, ORDER, LIMBS)
        batched = system.evaluate_series(planes)
        assert batched.shape == (BATCH, system.equations, ORDER + 1)
        for p in range(BATCH):
            reference = unbatched_evaluate_series(system, path_vector(planes, p))
            assert_planes_equal(batched, p, reference.coefficients)

    @pytest.mark.parametrize(
        "system", [katsura(3), cyclic(4)], ids=["katsura3", "cyclic4"]
    )
    def test_complex_slices_match_loop_per_path(self, system):
        planes = complex_planes(BATCH, system.variables, ORDER, LIMBS)
        batched = system.evaluate_series(planes)
        assert isinstance(batched, MDComplexArray)
        for p in range(BATCH):
            reference = unbatched_evaluate_series(system, path_vector(planes, p))
            assert_planes_equal(batched, p, reference.coefficients)

    def test_complex_coefficient_system_promotes_real_planes(self):
        """A complex-coefficient system evaluates real batched planes,
        and a real series vector, natively complex, exactly like its
        unbatched promotion."""
        system = PolynomialSystem(
            [
                [(1 + 2j, (2, 0)), (-1, (0, 0))],
                [(1, (1, 1)), (0.5j, (0, 0))],
            ]
        )
        planes = real_planes(BATCH, system.variables, ORDER, LIMBS)
        batched = system.evaluate_series(planes)
        assert isinstance(batched, MDComplexArray)
        for p in range(BATCH):
            reference = unbatched_evaluate_series(system, path_vector(planes, p))
            assert_planes_equal(batched, p, reference.coefficients)
        single = system.evaluate_series(path_vector(planes, 0))
        assert isinstance(single, ComplexVectorSeries)
        assert_planes_equal(batched, 0, single.coefficients)

    def test_wrong_variable_count_rejected(self):
        system = katsura(3)
        planes = real_planes(BATCH, system.variables - 1, ORDER, LIMBS)
        with pytest.raises(ValueError):
            system.evaluate_series(planes)


class TestBatchedJacobianBitIdentity:
    @pytest.mark.parametrize(
        "make",
        [lambda: real_planes(BATCH, 4, ORDER, LIMBS),
         lambda: complex_planes(BATCH, 4, ORDER, LIMBS)],
        ids=["real", "complex"],
    )
    def test_slices_match_loop_per_path(self, make):
        system = katsura(3)
        assert system.variables == 4
        planes = make()
        batched = system.jacobian_series(planes)
        assert batched.shape == (
            BATCH,
            system.equations,
            system.variables,
            ORDER + 1,
        )
        for p in range(BATCH):
            reference = unbatched_jacobian_series(system, path_vector(planes, p))
            assert_planes_equal(batched, p, reference)


class TestResidualFleet:
    def test_parametric_system_appends_the_parameter(self):
        """A system with one more variable than unknowns receives the
        per-path parameter series ``t_p + s`` as its last variable —
        the same local shift the tracker's residual adapter applies."""
        system = PolynomialSystem(
            [
                [(1, (2, 0, 0)), (-1, (0, 0, 1)), (-1, (0, 0, 0))],
                [(1, (1, 1, 1)), (-2, (0, 1, 0))],
            ]
        )
        prec = get_precision(LIMBS)
        planes = real_planes(BATCH, 2, ORDER, LIMBS)
        t_heads = [0.0, 0.125, 0.5, 0.75, 1.0]
        batched = system.residual_fleet(planes, t_heads)
        for p, t0 in enumerate(t_heads):
            components = path_vector(planes, p).components()
            t_series = TruncatedSeries.variable(ORDER, prec, head=t0)
            reference = unbatched_evaluate_series(system, [*components, t_series])
            assert_planes_equal(batched, p, reference.coefficients)

    @pytest.mark.parametrize("backend", ["realified", "complex"])
    def test_homotopy_slices_match_the_residual_adapter(self, backend):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7, backend=backend)
        prec = get_precision(LIMBS)
        dimension = homotopy.tracking_dimension
        if backend == "complex":
            planes = complex_planes(BATCH, dimension, ORDER, LIMBS)
        else:
            planes = real_planes(BATCH, dimension, ORDER, LIMBS)
        t_heads = [0.0, 0.25, 0.5, 0.875, 1.0]
        batched = homotopy.residual_fleet(planes, t_heads)
        assert batched.shape == (BATCH, dimension, ORDER + 1)
        for p, t0 in enumerate(t_heads):
            components = path_vector(planes, p).components()
            t_series = TruncatedSeries.variable(ORDER, prec, head=t0)
            residuals = unbatched_homotopy(homotopy, components, t_series)
            if backend == "complex":
                reference = ComplexVectorSeries.from_components(residuals)
            else:
                reference = VectorSeries.from_components(residuals)
            assert_planes_equal(batched, p, reference.coefficients)


def _planes(array) -> np.ndarray:
    """Every limb plane of a real or complex array, stacked."""
    if isinstance(array, MDComplexArray):
        return np.stack([array.real.data, array.imag.data])
    return array.data


def _same_bits(a, b) -> bool:
    """Two component lists hold the same limbs, bit for bit."""
    return len(a) == len(b) and all(
        np.array_equal(_planes(x.coefficients), _planes(y.coefficients))
        for x, y in zip(a, b)
    )


def _homotopy_arguments(backend, limbs, order, seed=11):
    homotopy = Homotopy.total_degree(cyclic(3), seed=7, backend=backend)
    make = complex_planes if backend == "complex" else real_planes
    planes = make(1, homotopy.tracking_dimension, order, limbs, seed=seed)
    t = TruncatedSeries.variable(order, get_precision(limbs), head=0.375)
    return homotopy, path_vector(planes, 0).components(), t


class TestSingleVectorIsABatchOfOne:
    """One series vector runs the batched evaluator on a batch axis of
    one; the unbatched oracles are the reference."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_evaluate_and_jacobian_match_the_oracles(self, limbs, kind):
        system = katsura(3)
        make = complex_planes if kind == "complex" else real_planes
        vector = path_vector(make(1, system.variables, ORDER, limbs), 0)
        values = system.evaluate_series(vector)
        assert type(values) is type(vector)
        assert _same_bits(
            values.components(),
            unbatched_evaluate_series(system, vector).components(),
        )
        assert _same_bits(
            system(vector.components()),
            unbatched_evaluate_series(system, vector).components(),
        )
        matrix = system.jacobian_series(vector.components())
        assert matrix.shape == (system.equations, system.variables, ORDER + 1)
        assert np.array_equal(
            _planes(matrix), _planes(unbatched_jacobian_series(system, vector))
        )

    @pytest.mark.parametrize("backend", ["realified", "complex"])
    @pytest.mark.parametrize("order", [0, 8])
    def test_homotopy_call_matches_the_oracle(self, limbs, backend, order):
        homotopy, x, t = _homotopy_arguments(backend, limbs, order)
        assert _same_bits(homotopy(x, t), unbatched_homotopy(homotopy, x, t))

    @pytest.mark.parametrize("backend", ["realified", "complex"])
    def test_zero_imaginary_parameter_gives_the_real_bits(self, backend):
        """A complex ``t`` whose imaginary planes are zero gives the
        bits of the real ``t``: ``Homotopy.__call__`` takes either."""
        homotopy, x, t = _homotopy_arguments(backend, LIMBS, ORDER)
        complex_t = ComplexTruncatedSeries.from_mdarray(
            MDComplexArray(t.coefficients, MDArray.zeros(t.coefficients.shape, LIMBS))
        )
        assert _same_bits(homotopy(x, complex_t), homotopy(x, t))

    @pytest.mark.parametrize("backend", ["realified", "complex"])
    def test_complex_parameter_rejected(self, backend):
        homotopy, x, t = _homotopy_arguments(backend, LIMBS, ORDER)
        imaginary = np.zeros_like(t.coefficients.data)
        imaginary[0, 1] = 0.25
        complex_t = ComplexTruncatedSeries.from_mdarray(
            MDComplexArray(t.coefficients, MDArray(imaginary))
        )
        with pytest.raises(ValueError, match="must be real"):
            homotopy(x, complex_t)
        with pytest.raises(TypeError, match="parameter"):
            homotopy(x, 0.375)

    @pytest.mark.parametrize("backend", ["realified", "complex"])
    def test_parameter_precision_must_match(self, backend):
        """A one-limb ``t`` beside dd unknowns used to broadcast its
        head into both limbs, silently doubling ``t``."""
        homotopy, x, _ = _homotopy_arguments(backend, LIMBS, ORDER)
        with pytest.raises(ValueError, match="1 limbs, the unknowns 2"):
            homotopy(x, TruncatedSeries.variable(ORDER, 1, head=0.375))


class TestParameterHeads:
    """``residual_fleet`` needs one ``t`` head per path: a short list
    used to evaluate the trailing paths at ``t = 0`` silently, a long
    one raised a bare ``IndexError``."""

    @staticmethod
    def _cases():
        parametric = PolynomialSystem(
            [
                [(1, (2, 0, 0)), (-1, (0, 0, 1)), (-1, (0, 0, 0))],
                [(1, (1, 1, 1)), (-2, (0, 1, 0))],
            ]
        )
        realified = Homotopy.total_degree(cyclic(3), seed=7)
        native = Homotopy.total_degree(cyclic(3), seed=7, backend="complex")
        return [
            (parametric, real_planes(3, 2, ORDER, LIMBS)),
            (realified, real_planes(3, 6, ORDER, LIMBS)),
            (native, complex_planes(3, 3, ORDER, LIMBS)),
        ]

    @pytest.mark.parametrize("heads", [[0.25], [0.0, 0.25, 0.5, 0.75]])
    @pytest.mark.parametrize("case", [0, 1, 2], ids=["parametric", "realified", "complex"])
    def test_head_count_must_match_the_batch(self, case, heads, monkeypatch):
        system, planes = self._cases()[case]

        def broken(*args, **kwargs):
            raise AssertionError("evaluated before the t_heads check")

        monkeypatch.setattr(PolynomialSystem, "evaluate_series", broken)
        with pytest.raises(ValueError, match=rf"t_heads.*{len(heads)}.*batch of 3"):
            system.residual_fleet(planes, heads)


class TestOracleGate:
    """The oracles are a gate: they reproduce the library's bits without
    the batched evaluator, and they notice one ulp."""

    def test_oracles_do_not_call_the_batched_evaluator(self, monkeypatch):
        system = katsura(3)
        vector = path_vector(complex_planes(1, system.variables, ORDER, LIMBS), 0)
        homotopy, x, t = _homotopy_arguments("complex", LIMBS, ORDER)
        realified, x_real, t_real = _homotopy_arguments("realified", LIMBS, ORDER)
        values = system.evaluate_series(vector)
        matrix = system.jacobian_series(vector)
        residual = homotopy(x, t)
        residual_real = realified(x_real, t_real)

        def broken(*args, **kwargs):
            raise RuntimeError("the batched series evaluator was called")

        monkeypatch.setattr(PolynomialSystem, "_series_products", broken)
        with pytest.raises(RuntimeError, match="batched series evaluator"):
            system.evaluate_series(vector)
        with pytest.raises(RuntimeError, match="batched series evaluator"):
            system.jacobian_series(vector)
        with pytest.raises(RuntimeError, match="batched series evaluator"):
            homotopy(x, t)
        with pytest.raises(RuntimeError, match="batched series evaluator"):
            realified(x_real, t_real)
        assert _same_bits(
            values.components(), unbatched_evaluate_series(system, vector).components()
        )
        assert np.array_equal(
            _planes(matrix), _planes(unbatched_jacobian_series(system, vector))
        )
        assert _same_bits(residual, unbatched_homotopy(homotopy, x, t))
        assert _same_bits(residual_real, unbatched_homotopy(realified, x_real, t_real))

    @pytest.mark.parametrize("backend", ["realified", "complex"])
    def test_one_ulp_in_gamma_is_caught(self, backend):
        homotopy, x, t = _homotopy_arguments(backend, LIMBS, ORDER)
        nudged = copy.copy(homotopy)
        nudged.gamma = complex(
            homotopy.gamma.real, math.nextafter(homotopy.gamma.imag, math.inf)
        )
        assert _same_bits(homotopy(x, t), unbatched_homotopy(homotopy, x, t))
        assert not _same_bits(homotopy(x, t), unbatched_homotopy(nudged, x, t))

    def test_one_ulp_in_a_coefficient_is_caught(self):
        system = cyclic(4)
        planes = complex_planes(1, system.variables, ORDER, LIMBS)
        nudged = MDComplexArray(planes.real.copy(), planes.imag.copy())
        nudged.imag.data[0, 0, 2, 3] = math.nextafter(
            nudged.imag.data[0, 0, 2, 3], math.inf
        )
        assert not _same_bits(
            system.evaluate_series(path_vector(planes, 0)).components(),
            unbatched_evaluate_series(system, path_vector(nudged, 0)).components(),
        )


class TestBatchedLaunchAccounting:
    def test_numeric_trace_matches_analytic_batched_trace(self):
        system = katsura(3)
        planes = real_planes(BATCH, system.variables, ORDER, LIMBS)
        numeric = KernelTrace("V100")
        system.evaluate_series(planes, trace=numeric)
        analytic = polynomial_evaluation_trace(
            system.equations,
            system.variables,
            system.distinct_products,
            system.max_degree,
            system._term_slots,
            LIMBS,
            order=ORDER,
            batch=BATCH,
        )
        assert [l.name for l in numeric.launches] == [
            l.name for l in analytic.launches
        ]
        for observed, expected in zip(numeric.launches, analytic.launches):
            assert observed.blocks == expected.blocks
            assert observed.tally.multiplications == expected.tally.multiplications
            assert observed.tally.additions == expected.tally.additions

    def test_launch_count_flat_in_batch(self):
        system = katsura(3)
        single = KernelTrace("V100")
        system.evaluate_series(
            path_vector(real_planes(BATCH, system.variables, ORDER, LIMBS), 0),
            trace=single,
        )
        batched = KernelTrace("V100")
        system.evaluate_series(
            real_planes(BATCH, system.variables, ORDER, LIMBS), trace=batched
        )
        assert [l.name for l in batched.launches] == [
            l.name for l in single.launches
        ]

    def test_counts_scale_operations_not_launches(self):
        system = katsura(3)
        base = system.counts(order=ORDER)
        wide = system.counts(order=ORDER, batch=BATCH)
        assert wide.combined.mul == pytest.approx(BATCH * base.combined.mul)
        assert wide.combined.add == pytest.approx(BATCH * base.combined.add)
        assert wide.combined.launches == base.combined.launches
        with pytest.raises(ValueError):
            system.counts(batch=0)
