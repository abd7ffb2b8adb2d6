"""Complex truncated power series on separated real/imaginary planes.

The native complex backend of the series/tracking stack: a complex
series keeps its real and imaginary coefficient planes as two
limb-major :class:`~repro.vec.mdarray.MDArray` values inside one
:class:`~repro.vec.complexmd.MDComplexArray` — the same separated
storage the paper uses for complex matrices, carried up to series.
Complex arithmetic then costs roughly four real multiplications per
multiplication (the factor of Table 5), instead of the ~8x QR flops the
realification detour pays by doubling the dimension.

:class:`ComplexTruncatedSeries` mirrors
:class:`~repro.series.truncated.TruncatedSeries` (one series, storage
``(m, K+1)`` per plane); :class:`ComplexVectorSeries` mirrors
:class:`~repro.series.vector.VectorSeries` (a system of ``n`` series,
storage ``(m, n, K+1)`` per plane).  Every ring operation runs through
the complex convolution kernels of :mod:`repro.vec.linalg`
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
from ..vec import linalg
from ..vec.complexmd import MDComplexArray
from ..vec.mdarray import MDArray
from .truncated import TruncatedSeries
from .vector import VectorSeries

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
    if isinstance(value, ComplexMultiDouble):
        return ComplexMultiDouble(
            MultiDouble(value.real, prec), MultiDouble(value.imag, prec)
        )
    if isinstance(value, complex):
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


def evaluation_magnitudes(array) -> np.ndarray:
    """Leading-double magnitudes of an evaluated ``(n,)`` array — the
    moduli for complex data, the absolute heads for real data."""
    if isinstance(array, MDComplexArray):
        return np.abs(array.to_complex())
    return np.abs(array.to_double())


# ---------------------------------------------------------------------------
# one complex series
# ---------------------------------------------------------------------------

class ComplexTruncatedSeries:
    """A complex power series truncated at order ``K``, coefficients
    ``c_0 .. c_K`` in one separated-plane ``(m, K+1)`` array pair."""

    __slots__ = ("_coefficients", "_precision")

    def __init__(self, coefficients, precision=None):
        if isinstance(coefficients, MDComplexArray):
            series = ComplexTruncatedSeries.from_mdarray(coefficients, precision)
            object.__setattr__(self, "_coefficients", series._coefficients)
            object.__setattr__(self, "_precision", series._precision)
            return
        values = list(coefficients)
        if not values:
            raise ValueError("a truncated series needs at least one coefficient")
        if precision is None:
            for value in values:
                if isinstance(value, ComplexMultiDouble):
                    precision = value.precision
                    break
                if isinstance(value, MultiDouble):
                    precision = value.precision
                    break
            else:
                precision = 2
        prec = get_precision(precision)
        scalars = [
            v if isinstance(v, ComplexMultiDouble) else ComplexMultiDouble(v, precision=prec)
            for v in values
        ]
        array = MDComplexArray.from_multidoubles(scalars, prec.limbs)
        object.__setattr__(self, "_coefficients", array)
        object.__setattr__(self, "_precision", prec)

    @classmethod
    def _wrap(cls, coefficients: MDComplexArray, prec: Precision) -> "ComplexTruncatedSeries":
        series = object.__new__(cls)
        object.__setattr__(series, "_coefficients", coefficients)
        object.__setattr__(series, "_precision", prec)
        return series

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_mdarray(cls, coefficients: MDComplexArray, precision=None) -> "ComplexTruncatedSeries":
        """Adopt a one-dimensional coefficient :class:`MDComplexArray`
        (copied, converted when ``precision`` differs)."""
        if not isinstance(coefficients, MDComplexArray):
            raise TypeError("from_mdarray expects an MDComplexArray of coefficients")
        if coefficients.ndim != 1:
            raise ValueError(
                f"expected a one-dimensional coefficient array, got shape "
                f"{coefficients.shape}"
            )
        if precision is not None and get_precision(precision).limbs != coefficients.limbs:
            coefficients = coefficients.astype(precision)
        else:
            coefficients = coefficients.copy()
        return cls._wrap(coefficients, get_precision(coefficients.limbs))

    @classmethod
    def zero(cls, order: int, precision=2) -> "ComplexTruncatedSeries":
        prec = get_precision(precision)
        return cls._wrap(MDComplexArray.zeros((order + 1,), prec.limbs), prec)

    @classmethod
    def one(cls, order: int, precision=2) -> "ComplexTruncatedSeries":
        return cls.constant(1, order, precision)

    @classmethod
    def constant(cls, value, order: int, precision=2) -> "ComplexTruncatedSeries":
        prec = get_precision(precision)
        array = MDComplexArray.zeros((order + 1,), prec.limbs)
        head = coerce_scalar(value, prec)
        if not isinstance(head, ComplexMultiDouble):
            head = ComplexMultiDouble(head, precision=prec)
        array[0] = head
        return cls._wrap(array, prec)

    @classmethod
    def variable(cls, order: int, precision=2, *, head=0) -> "ComplexTruncatedSeries":
        """The series ``head + t`` (the local homotopy parameter; the
        parameter itself stays real — only the head may be complex)."""
        prec = get_precision(precision)
        series = cls.constant(head, order, prec)
        if order >= 1:
            series._coefficients.real.data[0, 1] = 1.0
        return series

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

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> MDComplexArray:
        return self._coefficients

    @property
    def precision(self) -> Precision:
        return self._precision

    @property
    def limbs(self) -> int:
        return self._precision.limbs

    @property
    def order(self) -> int:
        return self._coefficients.shape[0] - 1

    def real_series(self) -> TruncatedSeries:
        """The real plane as a :class:`TruncatedSeries` (copied)."""
        return TruncatedSeries.from_mdarray(self._coefficients.real)

    def imag_series(self) -> TruncatedSeries:
        """The imaginary plane as a :class:`TruncatedSeries` (copied)."""
        return TruncatedSeries.from_mdarray(self._coefficients.imag)

    def coefficient(self, k: int) -> ComplexMultiDouble:
        if 0 <= k <= self.order:
            return self._coefficients.to_scalar(k)
        return ComplexMultiDouble(0, precision=self._precision)

    def __getitem__(self, k: int) -> ComplexMultiDouble:
        return self.coefficient(k)

    def __len__(self) -> int:
        return self.order + 1

    def __iter__(self):
        return iter(self._coefficients)

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    def truncate(self, order: int) -> "ComplexTruncatedSeries":
        if order == self.order:
            return self
        if order < self.order:
            return ComplexTruncatedSeries._wrap(
                self._coefficients[: order + 1].copy(), self._precision
            )
        return self.pad(order)

    def pad(self, order: int) -> "ComplexTruncatedSeries":
        if order <= self.order:
            return self
        array = MDComplexArray.zeros((order + 1,), self.limbs)
        array[: self.order + 1] = self._coefficients
        return ComplexTruncatedSeries._wrap(array, self._precision)

    def astype(self, precision) -> "ComplexTruncatedSeries":
        prec = get_precision(precision)
        if prec.limbs == self.limbs:
            return self
        return ComplexTruncatedSeries._wrap(
            self._coefficients.astype(prec.limbs), prec
        )

    def _coerce(self, other) -> "ComplexTruncatedSeries":
        if isinstance(other, ComplexTruncatedSeries):
            if other.limbs != self.limbs:
                raise ValueError(
                    f"precision mismatch: {self.limbs} vs {other.limbs} limbs"
                )
            return other
        if isinstance(other, TruncatedSeries):
            if other.limbs != self.limbs:
                raise ValueError(
                    f"precision mismatch: {self.limbs} vs {other.limbs} limbs"
                )
            return ComplexTruncatedSeries._wrap(
                MDComplexArray(other.coefficients.copy()), self._precision
            )
        if isinstance(other, (int, float, complex, MultiDouble, ComplexMultiDouble)):
            return ComplexTruncatedSeries.constant(other, self.order, self._precision)
        raise TypeError(
            f"cannot combine ComplexTruncatedSeries with {type(other)!r}"
        )

    def _head(self, order: int) -> MDComplexArray:
        return self._coefficients[: order + 1]

    # ------------------------------------------------------------------
    # ring arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return ComplexTruncatedSeries._wrap(
            self._head(order) + other._head(order), self._precision
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return ComplexTruncatedSeries._wrap(
            self._head(order) - other._head(order), self._precision
        )

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, MultiDouble, ComplexMultiDouble)):
            return self.scale(other)
        other = self._coerce(other)
        return ComplexTruncatedSeries._wrap(
            linalg.cauchy_product(self._coefficients, other._coefficients),
            self._precision,
        )

    __rmul__ = __mul__

    def scale(self, factor) -> "ComplexTruncatedSeries":
        """Coefficient-wise multiplication by a (complex) scalar."""
        factor = coerce_scalar(factor, self._precision)
        return ComplexTruncatedSeries._wrap(
            self._coefficients * factor, self._precision
        )

    def __neg__(self):
        return ComplexTruncatedSeries._wrap(-self._coefficients, self._precision)

    def __pos__(self):
        return self

    # ------------------------------------------------------------------
    # evaluation and comparisons
    # ------------------------------------------------------------------
    def evaluate(self, point) -> ComplexMultiDouble:
        """Horner evaluation at a (real or complex) ``point``."""
        point = coerce_scalar(point, self._precision)
        total = self.coefficient(self.order)
        for k in range(self.order - 1, -1, -1):
            total = total * point + self.coefficient(k)
        if not isinstance(total, ComplexMultiDouble):  # pragma: no cover
            total = ComplexMultiDouble(total, precision=self._precision)
        return total

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

class ComplexVectorSeries:
    """``n`` complex truncated power series in one separated-plane
    ``(m, n, K+1)`` coefficient array pair — the complex twin of
    :class:`~repro.series.vector.VectorSeries`."""

    __slots__ = ("_coefficients", "_precision")

    def __init__(self, coefficients: MDComplexArray, precision=None):
        if not isinstance(coefficients, MDComplexArray):
            raise TypeError("ComplexVectorSeries expects an MDComplexArray")
        if coefficients.ndim != 2:
            raise ValueError(
                f"expected element shape (n, K+1), got {coefficients.shape}"
            )
        if precision is not None and get_precision(precision).limbs != coefficients.limbs:
            coefficients = coefficients.astype(precision)
        else:
            coefficients = coefficients.copy()
        object.__setattr__(self, "_coefficients", coefficients)
        object.__setattr__(self, "_precision", get_precision(coefficients.limbs))

    @classmethod
    def _wrap(cls, coefficients: MDComplexArray, prec: Precision) -> "ComplexVectorSeries":
        series = object.__new__(cls)
        object.__setattr__(series, "_coefficients", coefficients)
        object.__setattr__(series, "_precision", prec)
        return series

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, dimension: int, order: int, precision=2) -> "ComplexVectorSeries":
        prec = get_precision(precision)
        return cls._wrap(
            MDComplexArray.zeros((dimension, order + 1), prec.limbs), prec
        )

    @classmethod
    def from_components(cls, components) -> "ComplexVectorSeries":
        """Stack per-component series (complex or real; shorter
        components are zero-padded to the longest order)."""
        components = list(components)
        if not components:
            raise ValueError("a vector series needs at least one component")
        converted = []
        for component in components:
            if isinstance(component, TruncatedSeries):
                component = ComplexTruncatedSeries._wrap(
                    MDComplexArray(component.coefficients.copy()),
                    component.precision,
                )
            elif not isinstance(component, ComplexTruncatedSeries):
                component = ComplexTruncatedSeries(list(component))
            converted.append(component)
        limbs = converted[0].limbs
        if any(c.limbs != limbs for c in converted):
            raise ValueError("all components must share the precision")
        order = max(c.order for c in converted)
        real = np.stack(
            [c.pad(order).coefficients.real.data for c in converted], axis=1
        )
        imag = np.stack(
            [c.pad(order).coefficients.imag.data for c in converted], axis=1
        )
        return cls._wrap(
            MDComplexArray(MDArray(real), MDArray(imag)), get_precision(limbs)
        )

    @classmethod
    def from_mdarray(cls, coefficients: MDComplexArray, precision=None) -> "ComplexVectorSeries":
        return cls(coefficients, precision)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> MDComplexArray:
        return self._coefficients

    @property
    def precision(self) -> Precision:
        return self._precision

    @property
    def limbs(self) -> int:
        return self._precision.limbs

    @property
    def dimension(self) -> int:
        return self._coefficients.shape[0]

    @property
    def order(self) -> int:
        return self._coefficients.shape[1] - 1

    def component(self, index: int) -> ComplexTruncatedSeries:
        return ComplexTruncatedSeries.from_mdarray(self._coefficients[index])

    def components(self) -> list:
        return [self.component(i) for i in range(self.dimension)]

    def real_vector(self) -> VectorSeries:
        """The real planes as a :class:`VectorSeries` (copied)."""
        return VectorSeries(self._coefficients.real)

    def imag_vector(self) -> VectorSeries:
        """The imaginary planes as a :class:`VectorSeries` (copied)."""
        return VectorSeries(self._coefficients.imag)

    def coefficient(self, k: int) -> MDComplexArray:
        if not 0 <= k <= self.order:
            return MDComplexArray.zeros((self.dimension,), self.limbs)
        return self._coefficients[:, k].copy()

    def set_coefficient(self, k: int, value) -> None:
        """Overwrite the order-``k`` coefficient column (in place)."""
        if not 0 <= k <= self.order:
            raise IndexError(f"order {k} outside 0..{self.order}")
        if isinstance(value, MDArray):
            value = MDComplexArray(value, MDArray.zeros(value.shape, value.limbs))
        if isinstance(value, MDComplexArray):
            if value.limbs != self.limbs:
                value = value.astype(self.limbs)
            self._coefficients.real.data[:, :, k] = value.real.data
            self._coefficients.imag.data[:, :, k] = value.imag.data
        else:
            column = MDComplexArray.from_multidoubles(
                [coerce_scalar(v, self._precision) for v in value], self.limbs
            )
            self.set_coefficient(k, column)

    def __len__(self) -> int:
        return self.dimension

    def __iter__(self):
        for i in range(self.dimension):
            yield self.component(i)

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    def truncate(self, order: int) -> "ComplexVectorSeries":
        if order == self.order:
            return self
        if order < self.order:
            return ComplexVectorSeries._wrap(
                self._coefficients[:, : order + 1].copy(), self._precision
            )
        return self.pad(order)

    def pad(self, order: int) -> "ComplexVectorSeries":
        if order <= self.order:
            return self
        array = MDComplexArray.zeros((self.dimension, order + 1), self.limbs)
        array[:, : self.order + 1] = self._coefficients
        return ComplexVectorSeries._wrap(array, self._precision)

    def astype(self, precision) -> "ComplexVectorSeries":
        prec = get_precision(precision)
        if prec.limbs == self.limbs:
            return self
        return ComplexVectorSeries._wrap(
            self._coefficients.astype(prec.limbs), prec
        )

    def copy(self) -> "ComplexVectorSeries":
        return ComplexVectorSeries._wrap(self._coefficients.copy(), self._precision)

    def _coerce(self, other) -> "ComplexVectorSeries":
        if not isinstance(other, ComplexVectorSeries):
            raise TypeError(
                f"cannot combine ComplexVectorSeries with {type(other)!r}"
            )
        if other.limbs != self.limbs:
            raise ValueError(
                f"precision mismatch: {self.limbs} vs {other.limbs} limbs"
            )
        if other.dimension != self.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )
        return other

    def _head(self, order: int) -> MDComplexArray:
        return self._coefficients[:, : order + 1]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return ComplexVectorSeries._wrap(
            self._head(order) + other._head(order), self._precision
        )

    def __sub__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return ComplexVectorSeries._wrap(
            self._head(order) - other._head(order), self._precision
        )

    def __neg__(self):
        return ComplexVectorSeries._wrap(-self._coefficients, self._precision)

    def __mul__(self, other):
        """Component-wise complex Cauchy products, batched."""
        other = self._coerce(other)
        order = min(self.order, other.order)
        return ComplexVectorSeries._wrap(
            linalg.cauchy_product(self._head(order), other._head(order)),
            self._precision,
        )

    def scale(self, factor) -> "ComplexVectorSeries":
        factor = coerce_scalar(factor, self._precision)
        return ComplexVectorSeries._wrap(
            self._coefficients * factor, self._precision
        )

    # ------------------------------------------------------------------
    # evaluation and diagnostics
    # ------------------------------------------------------------------
    def evaluate(self, point) -> MDComplexArray:
        """Batched complex Horner at a (real) ``point``: every component
        in one sweep of ``K`` vectorized complex multiply-adds."""
        point = coerce_scalar(point, self._precision)
        total = self.coefficient(self.order)
        for k in range(self.order - 1, -1, -1):
            total = total * point + self.coefficient(k)
        return total

    def coefficient_condition(self, point, values=None) -> np.ndarray:
        """Evaluation condition number of every component at ``point``:
        ``sum |c_k| |t|^k / |value|`` on leading-double coefficient
        moduli — the complex twin of
        :meth:`VectorSeries.coefficient_condition`.

        ``values`` may supply the precomputed evaluation magnitudes
        (shape ``(n,)``, see :func:`evaluation_magnitudes`)."""
        t = abs(float(point))
        heads = np.hypot(
            self._coefficients.real.data[0], self._coefficients.imag.data[0]
        )  # (n, K+1) coefficient moduli, leading doubles
        absolute = np.zeros(self.dimension)
        power = 1.0
        for k in range(self.order + 1):
            absolute += heads[:, k] * power
            power *= t
        if values is None:
            values = evaluation_magnitudes(self.evaluate(point))
        out = np.empty(self.dimension)
        for i in range(self.dimension):
            if values[i] == 0.0:
                out[i] = float("inf") if absolute[i] > 0.0 else 1.0
            else:
                out[i] = absolute[i] / values[i]
        return out

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def allclose(self, other, tol=None) -> bool:
        other = self._coerce(other)
        order = min(self.order, other.order)
        return self._head(order).allclose(other._head(order), tol)

    def equals(self, other) -> bool:
        other = self._coerce(other)
        return self._coefficients.equals(other._coefficients)

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"ComplexVectorSeries(dimension={self.dimension}, "
            f"order={self.order}, precision={self._precision.name!r})"
        )
