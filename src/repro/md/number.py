"""Scalar multiple double numbers.

:class:`MultiDouble` wraps a limb tuple with Python operator support,
comparisons, conversions from/to exact rationals and decimal strings.
It is the reference implementation that the vectorized limb-major
arrays (:mod:`repro.vec`) and the property-based test-suite are checked
against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import generic
from .constants import Precision, get_precision

__all__ = ["MultiDouble", "ComplexMultiDouble"]


class MultiDouble:
    """An immutable multiple double scalar with ``m`` limbs."""

    __slots__ = ("_limbs", "_precision")

    def __init__(self, value=0.0, precision=2, *, limbs=None):
        prec = get_precision(precision)
        if limbs is not None:
            limbs = tuple(float(v) for v in limbs)
            if len(limbs) != prec.limbs:
                limbs = tuple(generic.from_doubles(limbs, prec.limbs))
        elif isinstance(value, MultiDouble):
            limbs = tuple(generic.from_doubles(value.limbs, prec.limbs))
        elif isinstance(value, (int, Fraction)):
            limbs = _limbs_from_fraction(Fraction(value), prec.limbs)
        elif isinstance(value, str):
            limbs = _limbs_from_fraction(_fraction_from_string(value), prec.limbs)
        elif isinstance(value, float):
            limbs = generic.from_double(value, prec.limbs)
        elif isinstance(value, (tuple, list)):
            limbs = tuple(generic.from_doubles([float(v) for v in value], prec.limbs))
        else:
            raise TypeError(f"cannot build MultiDouble from {type(value)!r}")
        object.__setattr__(self, "_limbs", tuple(float(v) for v in limbs))
        object.__setattr__(self, "_precision", prec)

    # -- accessors --------------------------------------------------------
    @property
    def limbs(self) -> tuple:
        """The limb tuple, most significant first."""
        return self._limbs

    @property
    def precision(self) -> Precision:
        return self._precision

    @property
    def m(self) -> int:
        return self._precision.limbs

    # -- construction helpers ---------------------------------------------
    @classmethod
    def from_limbs(cls, limbs, precision=None) -> "MultiDouble":
        if precision is None:
            precision = len(limbs)
        return cls(0.0, precision, limbs=limbs)

    @classmethod
    def from_fraction(cls, frac: Fraction, precision=2) -> "MultiDouble":
        prec = get_precision(precision)
        return cls(0.0, prec, limbs=_limbs_from_fraction(frac, prec.limbs))

    def _coerce(self, other):
        """``other`` at this precision, or ``None`` for an operand type
        multiple double arithmetic does not know: the arithmetic
        operators then return ``NotImplemented``, so the other operand's
        reflected operator runs (a series or an array right of a
        scalar)."""
        if isinstance(other, MultiDouble):
            if other.m == self.m:
                return other
            return MultiDouble(0.0, self._precision, limbs=other.limbs)
        if isinstance(other, (int, float, Fraction, str)):
            return MultiDouble(other, self._precision)
        return None

    def _wrap(self, limbs) -> "MultiDouble":
        return MultiDouble(0.0, self._precision, limbs=limbs)

    # -- conversions -------------------------------------------------------
    def to_fraction(self) -> Fraction:
        """Exact rational value of the unevaluated sum of limbs."""
        total = Fraction(0)
        for limb in self._limbs:
            total += Fraction(limb)
        return total

    def to_float(self) -> float:
        return self._limbs[0]

    def to_decimal_string(self, digits=None) -> str:
        """Decimal string with ``digits`` significant digits (defaults to
        the precision's nominal digit count)."""
        if digits is None:
            digits = self._precision.decimal_digits
        frac = self.to_fraction()
        if frac == 0:
            return "0." + "0" * (digits - 1) + "e+00"
        sign = "-" if frac < 0 else ""
        frac = abs(frac)
        exponent = 0
        ten = Fraction(10)
        while frac >= ten:
            frac /= ten
            exponent += 1
        while frac < 1:
            frac *= ten
            exponent -= 1
        scaled = frac * ten ** (digits - 1)
        digits_int = int(scaled + Fraction(1, 2))
        text = str(digits_int)
        if len(text) > digits:  # rounding produced an extra digit
            text = text[:digits]
            exponent += 1
        mantissa = text[0] + "." + text[1:]
        return f"{sign}{mantissa}e{exponent:+03d}"

    def __float__(self) -> float:
        return self._limbs[0]

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(generic.add(self._limbs, other._limbs, self.m))

    def __radd__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.__add__(self)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(generic.sub(self._limbs, other._limbs, self.m))

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(generic.mul(self._limbs, other._limbs, self.m))

    def __rmul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.__mul__(self)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(generic.div(self._limbs, other._limbs, self.m))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.__truediv__(self)

    def __neg__(self):
        return self._wrap(generic.negate(self._limbs))

    def __pos__(self):
        return self

    def __abs__(self):
        if self._limbs[0] < 0 or (self._limbs[0] == 0 and self.to_fraction() < 0):
            return -self
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("only integer powers are supported")
        if exponent < 0:
            return (MultiDouble(1.0, self._precision) / self) ** (-exponent)
        result = MultiDouble(1.0, self._precision)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def sqrt(self) -> "MultiDouble":
        if self.to_fraction() < 0:
            raise ValueError("square root of a negative multiple double")
        if self._limbs[0] == 0.0:
            return self._wrap(generic.zero(self.m))
        return self._wrap(generic.sqrt(self._limbs, self.m))

    # -- comparisons -------------------------------------------------------
    def _cmp(self, other) -> int:
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError(f"cannot combine MultiDouble with {type(other)!r}")
        diff = self.to_fraction() - coerced.to_fraction()
        if diff > 0:
            return 1
        if diff < 0:
            return -1
        return 0

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(self.to_fraction())

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"MultiDouble({self.to_decimal_string(min(20, self._precision.decimal_digits))!r}, {self._precision.name!r})"


class ComplexMultiDouble:
    """A complex number whose real and imaginary parts are
    :class:`MultiDouble` values (kept separate, as in the paper's data
    staging for complex matrices)."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0.0, precision=2):
        if isinstance(real, ComplexMultiDouble):
            precision = real.real.precision
            imag = real.imag
            real = real.real
        if isinstance(real, complex):
            imag = real.imag
            real = real.real
        self.real = real if isinstance(real, MultiDouble) else MultiDouble(real, precision)
        self.imag = imag if isinstance(imag, MultiDouble) else MultiDouble(imag, self.real.precision)

    @property
    def precision(self) -> Precision:
        return self.real.precision

    def _coerce(self, other):
        """``other`` as a complex value at this precision, or ``None``
        for an operand type it cannot be built from (as
        :meth:`MultiDouble._coerce`)."""
        if isinstance(other, ComplexMultiDouble):
            return other
        try:
            return ComplexMultiDouble(other, precision=self.precision)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ComplexMultiDouble(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ComplexMultiDouble(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        re = self.real * other.real - self.imag * other.imag
        im = self.real * other.imag + self.imag * other.real
        return ComplexMultiDouble(re, im)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        denom = other.real * other.real + other.imag * other.imag
        re = (self.real * other.real + self.imag * other.imag) / denom
        im = (self.imag * other.real - self.real * other.imag) / denom
        return ComplexMultiDouble(re, im)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.__truediv__(self)

    def __neg__(self):
        return ComplexMultiDouble(-self.real, -self.imag)

    def conjugate(self) -> "ComplexMultiDouble":
        return ComplexMultiDouble(self.real, -self.imag)

    def abs2(self) -> MultiDouble:
        """Squared modulus."""
        return self.real * self.real + self.imag * self.imag

    def __abs__(self) -> MultiDouble:
        return self.abs2().sqrt()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        return hash((self.real, self.imag))

    def __complex__(self) -> complex:
        return complex(self.real.to_float(), self.imag.to_float())

    def as_complex(self) -> complex:
        """Round to a Python ``complex`` (the leading limb of each
        plane) — the lossy convenience view; the instance itself keeps
        every limb."""
        # repro: allow[precision-loss] — documented lossy view via __complex__
        return complex(self)

    def to_decimal_string(self, digits=None) -> str:
        """Decimal string ``re ± im i`` at full working precision."""
        imag = self.imag.to_decimal_string(digits)
        sign = "-" if imag.startswith("-") else "+"
        return (
            f"{self.real.to_decimal_string(digits)} {sign} "
            f"{imag.lstrip('-')}i"
        )

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ComplexMultiDouble({self.real!r}, {self.imag!r})"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _limbs_from_fraction(frac: Fraction, m: int) -> tuple:
    """Greedy conversion of an exact rational to ``m`` nonoverlapping
    limbs: repeatedly take the nearest double of the remainder."""
    limbs = []
    rest = frac
    for _ in range(m):
        limb = _nearest_double(rest)
        limbs.append(limb)
        rest = rest - Fraction(limb)
        if rest == 0:
            break
    while len(limbs) < m:
        limbs.append(0.0)
    return tuple(limbs)


def _nearest_double(frac: Fraction) -> float:
    """Round an exact rational to the nearest double without overflow
    for the magnitudes used here."""
    if frac == 0:
        return 0.0
    try:
        value = float(frac)
    except OverflowError:
        value = math.inf if frac > 0 else -math.inf
    if math.isfinite(value):
        return value
    # fall back to scaling for extreme magnitudes
    sign = -1.0 if frac < 0 else 1.0
    frac = abs(frac)
    exp = frac.numerator.bit_length() - frac.denominator.bit_length()
    scaled = float(frac / Fraction(2) ** exp)
    return sign * math.ldexp(scaled, exp)


def _fraction_from_string(text: str) -> Fraction:
    """Parse a decimal string (with optional exponent) exactly."""
    text = text.strip()
    if not text:
        raise ValueError("empty numeric string")
    mantissa = text
    exponent = 0
    for marker in ("e", "E"):
        if marker in text:
            mantissa, exp_text = text.split(marker, 1)
            exponent = int(exp_text)
            break
    if "." in mantissa:
        integer_part, frac_part = mantissa.split(".", 1)
    else:
        integer_part, frac_part = mantissa, ""
    digits = (integer_part + frac_part) or "0"
    value = Fraction(int(digits), 10 ** len(frac_part))
    return value * Fraction(10) ** exponent
