"""Native complex series stack: arithmetic, Newton staircase, Padé.

The complex twin of the series subsystem on separated real/imaginary
limb-major planes — plus the bugfix slate this PR foregrounds: the
limb-aware ``pole_radius`` nonzero test and the configurable
``pole_safety`` step-cap fraction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.md.constants import get_precision
from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.md.opcounts import (
    complex_series_counts,
    polynomial_counts,
    series_counts,
    series_flops,
    series_launches,
)
from repro.perf.costmodel import newton_series_trace, path_fleet_trace
from repro.series.complexvec import (
    ComplexTruncatedSeries,
    ComplexVectorSeries,
    coerce_scalar,
    evaluation_magnitudes,
    leading_value,
)
from repro.series.newton import newton_series
from repro.series.pade import PadeApproximant, pade
from repro.series.tracker import _resolve_pole_safety, track_path
from repro.series.truncated import TruncatedSeries
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray
from repro.vec.random import random_vector

from ..oracles.dense import launch_records
from ..oracles.series import unbatched_newton_series


def _random_complex_series(rng, order, limbs):
    values = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    return ComplexTruncatedSeries(list(values), limbs)


class TestComplexTruncatedSeries:
    def test_ring_arithmetic_matches_numpy(self, rng, limbs):
        a = _random_complex_series(rng, 6, limbs)
        b = _random_complex_series(rng, 6, limbs)
        za = np.array([complex(c) for c in a])
        zb = np.array([complex(c) for c in b])
        assert np.allclose((a + b).coefficients.to_complex(), za + zb)
        assert np.allclose((a - b).coefficients.to_complex(), za - zb)
        assert np.allclose(
            (a * b).coefficients.to_complex(), np.convolve(za, zb)[:7]
        )

    def test_scale_and_evaluate(self, rng):
        a = _random_complex_series(rng, 5, 2)
        za = a.coefficients.to_complex()
        factor = 0.3 - 0.8j
        assert np.allclose((a.scale(factor)).coefficients.to_complex(), za * factor)
        value = a.evaluate(0.25)
        assert isinstance(value, ComplexMultiDouble)
        assert complex(value) == pytest.approx(np.polyval(za[::-1], 0.25))

    def test_real_series_coerces_into_complex(self, rng):
        a = _random_complex_series(rng, 4, 2)
        r = TruncatedSeries(list(rng.standard_normal(5)), 2)
        total = a + r
        assert np.allclose(
            total.coefficients.to_complex(),
            a.coefficients.to_complex() + r.coefficients.to_double(),
        )

    def test_real_left_operands_dispatch_to_complex(self, rng):
        """t * x with the real series on the left must reach the
        complex reflected operators (TruncatedSeries returns
        NotImplemented for foreign operands instead of raising)."""
        a = _random_complex_series(rng, 4, 2)
        r = TruncatedSeries(list(rng.standard_normal(5)), 2)
        za = a.coefficients.to_complex()
        zr = r.coefficients.to_double()[:5]
        product = r * a
        assert isinstance(product, ComplexTruncatedSeries)
        assert np.allclose(
            product.coefficients.to_complex(), np.convolve(zr, za)[:5]
        )
        assert np.allclose((r + a).coefficients.to_complex(), zr + za)
        assert np.allclose((r - a).coefficients.to_complex(), zr - za)
        with pytest.raises(TypeError):
            r * object()

    def test_structural_helpers(self, rng):
        a = _random_complex_series(rng, 5, 2)
        assert a.pad(8).order == 8
        assert a.truncate(3).order == 3
        assert a.astype(4).limbs == 4
        assert a.real_series().coefficients.equals(a.coefficients.real)
        assert a.coefficient(99) == ComplexMultiDouble(0)

    def test_variable_and_constant(self):
        t = ComplexTruncatedSeries.variable(3, 2, head=0.5 + 0.25j)
        assert complex(t.coefficient(0)) == 0.5 + 0.25j
        assert complex(t.coefficient(1)) == 1.0
        one = ComplexTruncatedSeries.one(2, 2)
        assert complex(one.coefficient(0)) == 1.0


class TestComplexVectorSeries:
    def test_roundtrip_and_evaluate(self, rng):
        components = [_random_complex_series(rng, 4, 2) for _ in range(3)]
        vector = ComplexVectorSeries.from_components(components)
        assert vector.dimension == 3 and vector.order == 4
        for original, back in zip(components, vector.components()):
            assert original.coefficients.equals(back.coefficients)
        point = 0.3
        values = vector.evaluate(point)
        expected = [complex(c.evaluate(point)) for c in components]
        assert np.allclose(values.to_complex(), expected)

    def test_coefficient_condition_on_moduli(self, rng):
        components = [_random_complex_series(rng, 4, 2) for _ in range(2)]
        vector = ComplexVectorSeries.from_components(components)
        conditions = vector.coefficient_condition(0.4)
        heads = np.hypot(
            vector.coefficients.real.data[0], vector.coefficients.imag.data[0]
        )
        values = evaluation_magnitudes(vector.evaluate(0.4))
        powers = 0.4 ** np.arange(5)
        expected = (heads * powers).sum(axis=1) / values
        assert conditions == pytest.approx(expected)

    def test_set_coefficient_column(self, rng):
        vector = ComplexVectorSeries.zeros(2, 3, 2)
        column = MDComplexArray.from_complex(np.array([1 + 2j, 3 - 4j]), 2)
        vector.set_coefficient(1, column)
        assert np.allclose(vector.coefficient(1).to_complex(), [1 + 2j, 3 - 4j])


class TestKindHelpers:
    def test_coerce_scalar(self):
        prec = get_precision(4)
        value = coerce_scalar(1.5 - 2j, prec)
        assert isinstance(value, ComplexMultiDouble)
        assert value.precision.limbs == 4
        real = coerce_scalar(1.5, prec)
        assert isinstance(real, MultiDouble)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_coerce_scalar_keeps_limbs_at_the_same_precision(self, m):
        """Random limbs are not canonical: construction would re-round
        them, ``coerce_scalar`` must hand them back untouched, on both
        planes of a complex value, and re-round only on a precision
        change."""
        rng = np.random.default_rng(m)
        reals = [random_vector(1, m, rng).to_multidouble(0) for _ in range(20)]
        imags = [random_vector(1, m, rng).to_multidouble(0) for _ in range(20)]
        rounded = [MultiDouble(value, m).limbs != value.limbs for value in reals]
        assert any(rounded)  # the inputs do need re-rounding
        prec = get_precision(m)
        for re, im in zip(reals, imags):
            assert coerce_scalar(re, prec) is re
            value = coerce_scalar(ComplexMultiDouble(re, im), prec)
            assert (value.real.limbs, value.imag.limbs) == (re.limbs, im.limbs)
            other = get_precision(2 * m if m < 8 else 4)
            assert coerce_scalar(re, other).limbs == MultiDouble(re, other).limbs
            changed = coerce_scalar(ComplexMultiDouble(re, im), other)
            assert changed.real.limbs == MultiDouble(re, other).limbs
            assert changed.imag.limbs == MultiDouble(im, other).limbs

    def test_leading_value(self):
        assert leading_value(MultiDouble(1.5, 2)) == 1.5
        assert leading_value(ComplexMultiDouble(1.0, 2.0)) == 1 + 2j

    def test_as_complex_convenience(self):
        z = ComplexMultiDouble(0.5, -0.25)
        assert z.as_complex() == 0.5 - 0.25j


class TestComplexNewtonSeries:
    """F(x, t) = x^2 + 1 + t around the root x0 = i: the series solution
    is sqrt(-(1 + t)) continued from i, so x(t)^2 + 1 + t = 0 exactly."""

    @staticmethod
    def _system(x, t):
        (x1,) = x
        return [x1 * x1 + 1 + t]

    @staticmethod
    def _jacobian(x0):
        return [[2 * x0[0]]]

    def test_series_solves_the_system(self, md_limbs):
        result = newton_series(self._system, self._jacobian, [1j], 6, md_limbs)
        (series,) = result.series
        assert isinstance(series, ComplexTruncatedSeries)
        t = TruncatedSeries.variable(6, md_limbs)
        residual = (series * series + 1 + t).coefficients.to_complex()
        eps = get_precision(md_limbs).eps
        assert np.max(np.abs(residual)) < 64 * eps

    def test_vector_is_complex(self):
        result = newton_series(self._system, self._jacobian, [1j], 4, 2)
        assert isinstance(result.vector, ComplexVectorSeries)
        assert result.head_residual == 0.0


class TestComplexPade:
    def test_three_pole_rational_function(self, md_limbs):
        # f(t) = sum_i 1/(1 - z_i t): a genuinely degree-3 denominator,
        # so the [3/3] Hankel system is nonsingular and the approximant
        # reconstructs the function with its closest pole at 1/max|z_i|
        zs = (0.5 + 1.5j, -0.9 + 0.3j, 0.2 - 0.6j)
        coefficients = [sum(z**k for z in zs) for k in range(8)]
        approximant = pade(
            ComplexTruncatedSeries(coefficients, md_limbs), 3, 3
        )
        expected_radius = 1.0 / max(abs(z) for z in zs)
        assert approximant.pole_radius() == pytest.approx(expected_radius, rel=1e-8)
        value = approximant.evaluate(0.1)
        exact = sum(1.0 / (1.0 - z * 0.1) for z in zs)
        assert complex(value) == pytest.approx(exact, rel=1e-9)

    def test_defect_and_error_estimate_are_real_magnitudes(self, rng):
        series = _random_complex_series(rng, 8, 2)
        approximant = pade(series, 3, 3)
        estimate = approximant.error_estimate(0.1)
        assert isinstance(estimate, float)
        assert estimate >= 0.0

    def test_matches_realified_block_structure(self, rng):
        """A complex [L/M] approximant evaluated at a real point equals
        the complex combination of its own planes — sanity against the
        numpy oracle."""
        values = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        approximant = pade(ComplexTruncatedSeries(list(values), 2), 4, 4)
        t = 0.05
        numerator = np.polyval(
            [complex(c) for c in approximant.numerator][::-1], t
        )
        denominator = np.polyval(
            [complex(c) for c in approximant.denominator][::-1], t
        )
        assert complex(approximant.evaluate(t)) == pytest.approx(
            numerator / denominator, rel=1e-10
        )


class TestPoleRadiusLimbAware:
    """The bugfix: a denominator coefficient whose head underflows to
    0.0 while lower limbs stay nonzero must not drop its root from the
    step-control estimate."""

    @staticmethod
    def _approximant(denominator_data) -> PadeApproximant:
        array = MDArray(np.asarray(denominator_data, dtype=float))
        return PadeApproximant(
            numerator=(MultiDouble(1, 2),),
            denominator=tuple(array),
            precision=get_precision(2),
            defect=MultiDouble(1, 2),
            numerator_array=MDArray.from_double(np.ones(1), 2),
            denominator_array=array,
        )

    def test_underflowed_head_keeps_its_root(self):
        # q(t) = 1 + c t^2 with c stored as (0.0, 0.25): leading limb
        # underflowed, limb sum 0.25 -> poles at +-2i, radius 2
        approximant = self._approximant([[1.0, 0.0, 0.0], [0.0, 0.0, 0.25]])
        assert approximant.pole_radius() == pytest.approx(2.0)

    def test_plain_heads_unchanged(self):
        # q(t) = 1 - 2t: root at 0.5 (the pre-fix behaviour preserved)
        approximant = self._approximant([[1.0, -2.0, 0.0], [0.0, 0.0, 0.0]])
        assert approximant.pole_radius() == pytest.approx(0.5)

    def test_constant_denominator_is_infinite(self):
        approximant = self._approximant([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert approximant.pole_radius() == float("inf")

    def test_complex_denominator(self):
        real = MDArray(np.array([[1.0, 0.0], [0.0, 0.0]]))
        imag = MDArray(np.array([[0.0, 2.0], [0.0, 0.0]]))
        array = MDComplexArray(real, imag)
        approximant = PadeApproximant(
            numerator=(ComplexMultiDouble(1, 0),),
            denominator=tuple(array),
            precision=get_precision(2),
            defect=ComplexMultiDouble(1, 0),
            numerator_array=MDComplexArray(MDArray.from_double(np.ones(1), 2)),
            denominator_array=array,
        )
        # q(t) = 1 + 2i t: root at i/2, radius 0.5
        assert approximant.pole_radius() == pytest.approx(0.5)


class TestPoleSafety:
    """The bugfix: the step cap applies a configurable safety fraction
    beta to the pole radius (beta = 0.5 by default), so a step never
    lands essentially on the nearest Padé pole."""

    def test_validation(self):
        assert _resolve_pole_safety(None) == 0.5
        assert _resolve_pole_safety(0.25) == 0.25
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                _resolve_pole_safety(bad)

    @staticmethod
    def _track(pole_safety):
        # x^2 - 1 - t from x0 = 1: x(t) = sqrt(1 + t), a branch point at
        # t = -1 so the Padé pole radius is ~1; the loose tolerance
        # keeps the truncation control from binding before the pole cap
        def system(x, t):
            (x1,) = x
            return [x1 * x1 - 1 - t]

        def jacobian(x0, t0=None):
            return [[2 * x0[0]]]

        return track_path(
            system,
            jacobian,
            [1.0],
            order=6,
            tol=1e-2,
            max_steps=64,
            precision_ladder=(2,),
            pole_safety=pole_safety,
        )

    def test_smaller_beta_takes_smaller_first_step(self):
        generous = self._track(0.5)
        cautious = self._track(0.05)
        assert generous.reached and cautious.reached
        assert cautious.steps[0].step < generous.steps[0].step
        assert cautious.step_count >= generous.step_count
        # the cap binds: the cautious first step is beta * pole_radius
        ratio = cautious.steps[0].step / generous.steps[0].step
        assert ratio == pytest.approx(0.1, rel=0.5)

    def test_rejected_fraction_raises_in_tracker(self):
        with pytest.raises(ValueError):
            self._track(0.0)


class TestComplexOpcounts:
    def test_complex_mul_is_four_real_grids(self):
        real = series_counts("mul", 7)
        cplx = complex_series_counts("mul", 7)
        assert cplx.mul == 4 * real.mul
        assert cplx.add == 4 * real.add + 8  # plane combination adds
        assert cplx.sub == 8
        # one channel-stacked grid + tree, then the one-launch combine
        assert cplx.launches == real.launches + 1

    def test_elementwise_complex_counts(self):
        # both planes advance in one stacked launch
        add = complex_series_counts("add", 7)
        assert add.add == 16 and add.launches == 1
        sub = complex_series_counts("sub", 7)
        assert sub.sub == 16 and sub.launches == 1
        scale = complex_series_counts("scale", 7)
        assert scale.mul == 32 and scale.add == 8 and scale.sub == 8
        assert scale.launches == 2  # grid multiply + plane combine

    def test_flops_and_launches_dispatch(self):
        assert series_flops("mul", 7, 2, complex_data=True) > 3.9 * series_flops(
            "mul", 7, 2
        )
        assert series_launches("mul", 7, complex_data=True) == series_launches(
            "mul", 7
        ) + 1

    def test_batched_complex_counts_scale_ops_not_launches(self):
        single = complex_series_counts("mul", 7)
        batched = complex_series_counts("mul", 7, batch=16)
        assert batched.mul == 16 * single.mul
        assert batched.launches == single.launches

    def test_unknown_complex_operation_raises(self):
        with pytest.raises(ValueError):
            complex_series_counts("exp", 7)

    def test_polynomial_counts_complex_multiplies(self):
        shape = dict(
            monomials=6, products=8, max_degree=2, term_slots=3, jacobian_slots=2
        )
        real = polynomial_counts(3, 3, order=4, **shape)
        cplx = polynomial_counts(3, 3, order=4, complex_data=True, **shape)
        assert cplx.evaluation.mul == pytest.approx(4 * real.evaluation.mul)
        assert cplx.evaluation.md_operations > real.evaluation.md_operations
        assert cplx.combined.flops(2) > 3.5 * real.combined.flops(2)


class TestComplexTraceIdentity:
    """The launch-identity contract extended to the complex staircase:
    the numeric complex Newton expansion and the analytic
    ``complex_data=True`` model both equal the unbatched oracle's
    records (dense QR and back substitution, inline ``Q^H b``)."""

    @staticmethod
    def _system(x, t):
        (x1,) = x
        return [x1 * x1 + 1 + t]

    @staticmethod
    def _jacobian(x0):
        return [[2 * x0[0]]]

    def test_newton_series_trace_matches_oracle(self):
        """The head's tiles are inverted once, then one substitution
        per order."""
        numeric = newton_series(self._system, self._jacobian, [1j], 5, 2, tile_size=1)
        analytic = newton_series_trace(1, 5, 2, tile_size=1, complex_data=True)
        expected = unbatched_newton_series(
            self._system, self._jacobian, [1j], 5, 2, tile_size=1
        ).trace
        assert launch_records(numeric.trace) == launch_records(expected)
        assert launch_records(analytic) == launch_records(expected)
        names = [launch.name for launch in expected.launches]
        assert names.count("invert_tiles") == 1
        assert names.count("multiply_inverse") == 5

    def test_complex_step_costs_more_than_real(self):
        real = path_fleet_trace(1, 3, 8, 2, tile_size=1)
        cplx = path_fleet_trace(1, 3, 8, 2, tile_size=1, complex_data=True)
        assert len(real) == len(cplx)  # launch-identical structure
        assert cplx.total_flops() > 3.5 * real.total_flops()

    def test_realified_qr_pays_the_dimension_doubling(self):
        """The motivating flop accounting: a 2n-dimensional real QR
        costs well over twice the native n-dimensional complex QR (the
        ~8x vs ~4x real-multiply factors of the issue), and the whole
        realified step overtakes the complex step once the QR work
        dominates the per-component Padé solves."""
        from repro.perf.costmodel import qr_trace

        for n in (3, 6, 12):
            complex_qr = qr_trace(n, n, 1, 2, complex_data=True).total_flops()
            realified_qr = qr_trace(2 * n, 2 * n, 1, 2).total_flops()
            assert realified_qr > 2.0 * complex_qr
        realified_step = path_fleet_trace(1, 16, 8, 2).total_flops()
        complex_step = path_fleet_trace(1, 8, 8, 2, complex_data=True).total_flops()
        assert realified_step > 1.4 * complex_step
