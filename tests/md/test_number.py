"""Tests for the scalar MultiDouble / ComplexMultiDouble classes."""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.md import ComplexMultiDouble, MultiDouble
from repro.md.constants import get_precision
from repro.series import TruncatedSeries
from repro.series.complexvec import ComplexTruncatedSeries
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

rationals = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6), max_denominator=10 ** 9
)


class TestConstruction:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_from_float(self, m):
        x = MultiDouble(1.5, m)
        assert x.to_fraction() == Fraction(3, 2)
        assert x.m == m

    def test_from_int(self):
        assert MultiDouble(7, 4).to_fraction() == 7

    def test_from_fraction_better_than_double(self):
        x = MultiDouble(Fraction(1, 3), 4)
        err = abs(x.to_fraction() - Fraction(1, 3))
        assert err < Fraction(1, 3) * Fraction(1, 2 ** 200)
        assert err > 0  # 1/3 is not exactly representable

    def test_from_string(self):
        x = MultiDouble("0.1", 4)
        assert abs(x.to_fraction() - Fraction(1, 10)) < Fraction(1, 2 ** 200)

    def test_from_string_with_exponent(self):
        x = MultiDouble("2.5e3", 2)
        assert x.to_fraction() == 2500

    def test_from_limbs(self):
        x = MultiDouble.from_limbs((1.0, 2.0 ** -60), 2)
        assert x.to_fraction() == 1 + Fraction(1, 2 ** 60)

    def test_precision_names(self):
        assert MultiDouble(1.0, "dd").m == 2
        assert MultiDouble(1.0, "qd").m == 4
        assert MultiDouble(1.0, "od").m == 8
        assert MultiDouble(1.0, "2d").m == 2

    def test_precision_conversion(self):
        x = MultiDouble(Fraction(1, 3), 8)
        y = MultiDouble(x, 2)
        assert y.m == 2
        assert abs(y.to_fraction() - Fraction(1, 3)) < Fraction(1, 2 ** 100)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            MultiDouble(object(), 2)


class TestArithmetic:
    @pytest.mark.parametrize("m", [2, 4, 8])
    @given(fa=rationals, fb=rationals)
    @settings(max_examples=25, deadline=None)
    def test_field_operations(self, m, fa, fb):
        a, b = MultiDouble(fa, m), MultiDouble(fb, m)
        ea, eb = a.to_fraction(), b.to_fraction()
        eps = Fraction(1, 2 ** (50 * m))

        def check(md, exact_value):
            if exact_value == 0:
                assert abs(md.to_fraction()) <= eps
            else:
                assert abs((md.to_fraction() - exact_value) / exact_value) <= eps

        check(a + b, ea + eb)
        check(a - b, ea - eb)
        check(a * b, ea * eb)
        if eb != 0:
            check(a / b, ea / eb)

    def test_mixed_operand_types(self):
        a = MultiDouble(Fraction(1, 3), 4)
        assert abs(((a + 1) - 1).to_fraction() - a.to_fraction()) < Fraction(1, 2 ** 190)
        assert ((a * 3) - 1).to_fraction() < Fraction(1, 2 ** 190)
        assert (2 * a).to_fraction() == 2 * a.to_fraction()
        # 1 - a may need one extra borrow bit, so it is only accurate to eps
        assert abs((1 - a).to_fraction() - (1 - a.to_fraction())) < Fraction(1, 2 ** 200)
        assert abs((1 / MultiDouble(4, 4)).to_fraction() - Fraction(1, 4)) == 0

    def test_negation_and_abs(self):
        a = MultiDouble(Fraction(-5, 7), 4)
        assert (-a).to_fraction() == -a.to_fraction()
        assert abs(a).to_fraction() == -a.to_fraction()
        assert abs(-a).to_fraction() == abs(a).to_fraction()

    def test_integer_powers(self):
        a = MultiDouble(Fraction(3, 2), 4)
        assert (a ** 0).to_fraction() == 1
        assert (a ** 3).to_fraction() == Fraction(27, 8)
        assert abs((a ** -2).to_fraction() - Fraction(4, 9)) < Fraction(1, 2 ** 190)

    def test_power_requires_integer(self):
        with pytest.raises(TypeError):
            MultiDouble(2.0, 2) ** 0.5

    def test_sqrt(self):
        r = MultiDouble(2, 8).sqrt()
        assert abs(r.to_fraction() ** 2 - 2) < Fraction(1, 2 ** 400)

    def test_sqrt_of_zero(self):
        assert MultiDouble(0.0, 4).sqrt().to_fraction() == 0

    def test_sqrt_negative_raises(self):
        with pytest.raises(ValueError):
            MultiDouble(-1.0, 2).sqrt()


class TestComparisons:
    def test_ordering(self):
        a = MultiDouble(Fraction(1, 3), 4)
        b = MultiDouble(Fraction(1, 3), 4) + MultiDouble(Fraction(1, 2 ** 150), 4)
        assert a < b and b > a and a <= b and b >= a and a != b
        assert not a == b

    def test_equality_with_plain_numbers(self):
        assert MultiDouble(2.5, 4) == 2.5
        assert MultiDouble(2.5, 4) != 2.0
        assert MultiDouble(3, 2) == 3

    def test_hash_consistency(self):
        a = MultiDouble(1.5, 2)
        b = MultiDouble(1.5, 4)
        assert a == b
        assert hash(a) == hash(b)


class TestConversions:
    def test_to_float(self):
        assert float(MultiDouble(Fraction(1, 3), 4)) == pytest.approx(1 / 3)

    def test_decimal_string_digits(self):
        x = MultiDouble(Fraction(1, 3), 4)
        text = x.to_decimal_string(40)
        assert text.startswith("3.333333333333333333333333333333333333333")
        assert "e-01" in text

    def test_decimal_string_zero(self):
        assert MultiDouble(0.0, 2).to_decimal_string(5).startswith("0.0000")

    def test_decimal_string_negative(self):
        assert MultiDouble(-2.0, 2).to_decimal_string(5).startswith("-2.0000")

    def test_roundtrip_through_string(self):
        x = MultiDouble(Fraction(22, 7), 4)
        y = MultiDouble(x.to_decimal_string(70), 4)
        assert abs((x - y).to_fraction()) < Fraction(1, 2 ** 200)


class TestComplex:
    def test_construction_from_complex(self):
        z = ComplexMultiDouble(1 + 2j, precision=4)
        assert z.real.to_fraction() == 1
        assert z.imag.to_fraction() == 2

    def test_add_mul(self):
        z = ComplexMultiDouble(MultiDouble(1, 4), MultiDouble(2, 4))
        w = ComplexMultiDouble(MultiDouble(3, 4), MultiDouble(-1, 4))
        s = z + w
        assert s.real.to_fraction() == 4 and s.imag.to_fraction() == 1
        p = z * w
        # (1+2i)(3-i) = 5 + 5i
        assert p.real.to_fraction() == 5 and p.imag.to_fraction() == 5

    def test_division_and_conjugate(self):
        z = ComplexMultiDouble(MultiDouble(1, 4), MultiDouble(2, 4))
        w = ComplexMultiDouble(MultiDouble(3, 4), MultiDouble(-1, 4))
        q = (z * w) / w
        assert abs((q.real - 1).to_fraction()) < Fraction(1, 2 ** 190)
        assert abs((q.imag - 2).to_fraction()) < Fraction(1, 2 ** 190)
        assert z.conjugate().imag.to_fraction() == -2

    def test_abs(self):
        z = ComplexMultiDouble(MultiDouble(3, 4), MultiDouble(4, 4))
        assert abs((abs(z) - 5).to_fraction()) < Fraction(1, 2 ** 190)
        assert z.abs2().to_fraction() == 25

    def test_complex_builtin_conversion(self):
        z = ComplexMultiDouble(1.5, -0.5, precision=2)
        assert complex(z) == 1.5 - 0.5j

    def test_equality(self):
        z = ComplexMultiDouble(1.0, 2.0, precision=2)
        assert z == ComplexMultiDouble(1.0, 2.0, precision=2)
        assert z != ComplexMultiDouble(1.0, 2.5, precision=2)


def _planes(value) -> tuple:
    """The limb planes of a series or an array, real or complex."""
    array = getattr(value, "coefficients", value)
    if isinstance(array, MDComplexArray):
        return (array.real.data, array.imag.data)
    return (array.data,)


OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


@pytest.mark.parametrize("m", [1, 2, 4, 8])
class TestScalarLeftOfAContainer:
    """A multiple double scalar left of a series or an array: the
    scalar's operator returns ``NotImplemented``, and the right
    operand's reflected operator runs.  Expected bits: the operation
    with the scalar first promoted to the right operand's type.  A
    product runs as the right operand's own ``__rmul__``, right times
    left, and a dd product is not bitwise commutative, so ``*`` is
    compared as ``right * promoted``."""

    @staticmethod
    def _check(symbol, scalar, right, promoted):
        op = OPERATORS[symbol]
        expected = right * promoted if symbol == "*" else op(promoted, right)
        result = op(scalar, right)
        assert type(result) is type(expected)
        for ours, theirs in zip(_planes(result), _planes(expected), strict=True):
            assert np.array_equal(ours, theirs)

    @staticmethod
    def _scalars(m):
        real = MultiDouble(2, m) / MultiDouble(3, m)
        return real, ComplexMultiDouble(real, MultiDouble(1, m) / MultiDouble(7, m))

    @pytest.mark.parametrize("symbol", ["+", "-", "*", "/"])
    def test_multidouble_and_truncated_series(self, m, symbol):
        scalar, _ = self._scalars(m)
        series = TruncatedSeries([1.0, 2.0, 3.0, 0.5], m) * (MultiDouble(1, m) / 3)
        promoted = TruncatedSeries.constant(scalar, series.order, m)
        self._check(symbol, scalar, series, promoted)

    @pytest.mark.parametrize("symbol", ["+", "-", "*"])
    def test_multidouble_and_complex_series(self, m, symbol):
        scalar, factor = self._scalars(m)
        series = ComplexTruncatedSeries([1 + 1j, 2.0, -0.5j, 0.25], m) * factor
        promoted = ComplexTruncatedSeries.constant(scalar, series.order, m)
        self._check(symbol, scalar, series, promoted)

    @pytest.mark.parametrize("symbol", ["+", "-", "*", "/"])
    def test_multidouble_and_mdarray(self, m, symbol):
        scalar, _ = self._scalars(m)
        array = MDArray.from_double(np.array([1.0, -2.0, 3.5]), m) / 3
        promoted = MDArray.from_multidoubles([scalar] * 3, m)
        self._check(symbol, scalar, array, promoted)

    @pytest.mark.parametrize("symbol", ["+", "-", "*"])
    def test_complex_multidouble_and_complex_series(self, m, symbol):
        _, scalar = self._scalars(m)
        series = ComplexTruncatedSeries([1 + 1j, 2.0, -0.5j, 0.25], m) * scalar
        promoted = ComplexTruncatedSeries.constant(scalar, series.order, m)
        self._check(symbol, scalar, series, promoted)

    def test_unknown_operands_still_raise(self, m):
        scalar, complex_scalar = self._scalars(m)
        for value in (scalar, complex_scalar):
            for op in OPERATORS.values():
                with pytest.raises(TypeError):
                    op(value, object())
                with pytest.raises(TypeError):
                    op(object(), value)


class TestPrecisionRegistry:
    def test_known_names(self):
        assert get_precision("qd").limbs == 4
        assert get_precision(8).name == "8d"
        assert get_precision("double double").limbs == 2

    def test_generic_limb_count(self):
        p = get_precision(3)
        assert p.limbs == 3 and p.name == "3d"

    def test_eps_scaling(self):
        assert get_precision(4).eps < get_precision(2).eps ** 1.9

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError):
            get_precision("galactic")

    def test_bits(self):
        assert get_precision(2).bits == 105
        assert get_precision(4).bits == 211
