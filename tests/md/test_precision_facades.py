"""The paper's three precisions (dd/qd/od) on the generic arithmetic.

Each check runs :mod:`repro.md.generic` at 2, 4 and 8 limbs, the limb
counts of double double, quad double and octo double; the last one
checks that the scalar :class:`~repro.md.number.MultiDouble`, the
facade over the generic arithmetic, gives the bits of the function it
wraps.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.md import generic, get_precision
from repro.md.number import MultiDouble


def exact(limbs):
    return sum((Fraction(float(v)) for v in limbs), Fraction(0))


def ratio(m, numerator, denominator):
    return generic.div(
        generic.from_double(numerator, m), generic.from_double(denominator, m), m
    )


@pytest.mark.parametrize("m", [2, 4, 8])
class TestFacadeConsistency:
    def test_limb_count_and_eps(self, m):
        prec = get_precision(m)
        assert prec.limbs == m
        assert 0 < prec.eps < 2.0 ** (-50 * m + 4)

    def test_from_double_and_zero(self, m):
        x = generic.from_double(2.5, m)
        assert len(x) == m and x[0] == 2.5
        z = generic.zero(m)
        assert exact(z) == 0 and len(z) == m

    def test_roundtrip_third(self, m):
        back = generic.mul(ratio(m, 1.0, 3.0), generic.from_double(3.0, m), m)
        assert abs(exact(back) - 1) < Fraction(1, 2 ** (50 * m))

    def test_add_sub_inverse(self, m):
        x = ratio(m, 1.0, 7.0)
        y = ratio(m, 2.0, 11.0)
        d = generic.sub(generic.add(x, y, m), y, m)
        assert abs(exact(d) - exact(x)) < Fraction(1, 2 ** (50 * m))

    def test_sqr_matches_mul(self, m):
        x = ratio(m, 3.0, 7.0)
        gap = exact(generic.sqr(x, m)) - exact(generic.mul(x, x, m))
        assert abs(gap) < Fraction(1, 2 ** (50 * m + 40))

    def test_sqrt(self, m):
        r = generic.sqrt(generic.from_double(2.0, m), m)
        assert abs(exact(r) ** 2 - 2) < Fraction(1, 2 ** (50 * m))

    def test_negate(self, m):
        x = ratio(m, 1.0, 3.0)
        assert exact(generic.negate(x)) == -exact(x)

    def test_fma(self, m):
        x = ratio(m, 1.0, 3.0)
        y = ratio(m, 1.0, 5.0)
        z = generic.from_double(2.0, m)
        result = generic.fma(x, y, z, m)
        reference = exact(x) * exact(y) + 2
        assert abs((exact(result) - reference) / reference) < Fraction(1, 2 ** (50 * m))


class TestCrossPrecision:
    def test_dd_truncation_of_qd(self):
        qd_third = ratio(4, 1.0, 3.0)
        dd_third = ratio(2, 1.0, 3.0)
        # the first two limbs agree
        assert qd_third[0] == dd_third[0]
        assert abs(Fraction(qd_third[1]) - Fraction(dd_third[1])) < Fraction(1, 2 ** 150)

    def test_precision_improves_with_limbs(self):
        errors = [abs(exact(ratio(m, 1.0, 3.0)) - Fraction(1, 3)) for m in (2, 4, 8)]
        assert errors[0] > errors[1] > errors[2]

    def test_generic_matches_facade(self):
        for m in (2, 4, 8):
            quotient = MultiDouble(1.0, m) / MultiDouble(3.0, m)
            assert quotient.limbs == tuple(ratio(m, 1.0, 3.0))
