"""Complex truncated power series on separated real/imaginary planes.

The native complex backend of the series/tracking stack: a complex
series keeps its real and imaginary coefficient planes as two
limb-major :class:`~repro.vec.mdarray.MDArray` values inside one
:class:`~repro.vec.complexmd.MDComplexArray` — the same separated
storage the paper uses for complex matrices, carried up to series.
Complex arithmetic then costs roughly four real multiplications per
multiplication (the factor of Table 5), instead of the ~8x QR flops the
realification detour pays by doubling the dimension.

:class:`ComplexTruncatedSeries` (one series, storage ``(m, K+1)`` per
plane) and :class:`ComplexVectorSeries` (a system of ``n`` series,
storage ``(m, n, K+1)`` per plane) run the same construction,
accessors, structural helpers and ring arithmetic as
:class:`~repro.series.truncated.TruncatedSeries` and
:class:`~repro.series.vector.VectorSeries`: one implementation per
series shape, over the kind of the coefficient array.  The classes
here add only what is complex: building from and splitting into real
parts, promoting real operands and components, and Horner evaluation
in :class:`~repro.md.number.ComplexMultiDouble`.  Every ring operation
runs through the complex convolution kernels of :mod:`repro.vec.linalg`
(:func:`~repro.vec.linalg.cauchy_product` on complex operands), so the
realified backend — which evaluates the same homotopies on the real
kernels in ``2n`` variables — remains the bit-levelable cross-check.

The module also hosts the small *kind* helpers the generic drivers
(:mod:`repro.series.newton`, :mod:`repro.series.tracker`,
:mod:`repro.batch.fleet`) use to stay agnostic of whether a path is
tracked in real or complex variables.
"""

from __future__ import annotations

import numpy as np

from ..md.constants import Precision, get_precision
from ..md.number import ComplexMultiDouble, MultiDouble
from ..vec.complexmd import MDComplexArray
from .truncated import TruncatedSeries, _TruncatedSeriesBase
from .vector import VectorSeries, _VectorSeriesBase, evaluation_magnitudes

__all__ = [
    "ComplexTruncatedSeries",
    "ComplexVectorSeries",
    "is_complex_scalar",
    "coerce_scalar",
    "leading_value",
    "evaluation_magnitudes",
]

#: Scalar types that mark a value (and hence a start point) as complex.
_COMPLEX_SCALARS = (complex, ComplexMultiDouble)


# ---------------------------------------------------------------------------
# kind helpers shared by the generic real/complex drivers
# ---------------------------------------------------------------------------

def is_complex_scalar(value) -> bool:
    """Whether a scalar marks its container as complex data."""
    return isinstance(value, _COMPLEX_SCALARS)


def coerce_scalar(value, prec):
    """``value`` as a :class:`MultiDouble` or :class:`ComplexMultiDouble`
    at precision ``prec``, preserving every limb of multiple double
    inputs (re-rounded only when the precision changes)."""
    if isinstance(value, _COMPLEX_SCALARS):
        return ComplexMultiDouble(
            coerce_scalar(value.real, prec), coerce_scalar(value.imag, prec)
        )
    if isinstance(value, MultiDouble) and value.m == get_precision(prec).limbs:
        return value
    return MultiDouble(value, prec)


def _round_scalar(value, prec):
    """``value`` rounded to precision ``prec``: the scalar hook of the
    complex series kind, which rounds a scalar operand as the real
    kind's hook, :class:`MultiDouble`, does."""
    if isinstance(value, _COMPLEX_SCALARS):
        return ComplexMultiDouble(
            MultiDouble(value.real, prec), MultiDouble(value.imag, prec)
        )
    return MultiDouble(value, prec)


def leading_value(value):
    """The leading-double view of a scalar: ``float`` for real values,
    ``complex`` for complex ones (the head limbs of both planes)."""
    if isinstance(value, ComplexMultiDouble):
        return complex(value)
    if isinstance(value, complex):
        return value
    return float(value)


# ---------------------------------------------------------------------------
# one complex series
# ---------------------------------------------------------------------------

class ComplexTruncatedSeries(_TruncatedSeriesBase):
    """A complex power series truncated at order ``K``, coefficients
    ``c_0 .. c_K`` in one separated-plane ``(m, K+1)`` array pair."""

    __slots__ = ()

    _array = MDComplexArray
    _scalar = staticmethod(_round_scalar)
    _scalar_types = (int, float, complex, MultiDouble, ComplexMultiDouble)

    @staticmethod
    def _magnitudes(array) -> np.ndarray:
        return np.hypot(array.real.data[0], array.imag.data[0])

    @staticmethod
    def _from_values(values, prec: Precision) -> MDComplexArray:
        return MDComplexArray.from_multidoubles(values, prec.limbs)

    @classmethod
    def _promote(cls, other):
        """A real series as a complex one with a zero imaginary plane
        (copied); anything else unchanged."""
        if isinstance(other, TruncatedSeries):
            return cls._wrap(MDComplexArray(other.coefficients.copy()), other.precision)
        return other

    @classmethod
    def from_parts(cls, real: TruncatedSeries, imag: TruncatedSeries) -> "ComplexTruncatedSeries":
        """Build from two real series (shorter one zero-padded)."""
        order = max(real.order, imag.order)
        return cls._wrap(
            MDComplexArray(
                real.pad(order).coefficients.copy(),
                imag.pad(order).coefficients.copy(),
            ),
            real.precision,
        )

    def real_series(self) -> TruncatedSeries:
        """The real plane as a :class:`TruncatedSeries` (copied)."""
        return TruncatedSeries.from_mdarray(self._coefficients.real)

    def imag_series(self) -> TruncatedSeries:
        """The imaginary plane as a :class:`TruncatedSeries` (copied)."""
        return TruncatedSeries.from_mdarray(self._coefficients.imag)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def allclose(self, other, tol=None) -> bool:
        other = self._coerce(other)
        order = min(self.order, other.order)
        return self._head(order).allclose(other._head(order), tol)

    def equals(self, other) -> bool:
        other = self._coerce(other)
        order = min(self.order, other.order)
        return self._head(order).equals(other._head(order))

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"ComplexTruncatedSeries(order={self.order}, "
            f"precision={self._precision.name!r})"
        )


# ---------------------------------------------------------------------------
# a system of complex series
# ---------------------------------------------------------------------------

class ComplexVectorSeries(_VectorSeriesBase):
    """``n`` complex truncated power series in one separated-plane
    ``(m, n, K+1)`` coefficient array pair."""

    __slots__ = ()

    _series = ComplexTruncatedSeries

    def real_vector(self) -> VectorSeries:
        """The real planes as a :class:`VectorSeries` (copied)."""
        return VectorSeries(self._coefficients.real)

    def imag_vector(self) -> VectorSeries:
        """The imaginary planes as a :class:`VectorSeries` (copied)."""
        return VectorSeries(self._coefficients.imag)
