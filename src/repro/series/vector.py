"""Batched systems of truncated power series (one limb-major array).

A system of ``n`` unknowns developed as power series — the object the
series Newton staircase and the path tracker manipulate — is ``n``
series of the same truncation order ``K`` at the same precision.
:class:`VectorSeries` stores them as **one** limb-major
:class:`~repro.vec.mdarray.MDArray` of element shape ``(n, K+1)``
(storage ``(m, n, K+1)``), so that every series-level operation runs
vectorized over *all components and all coefficients at once*: one
batched Cauchy product (:func:`repro.vec.linalg.cauchy_product`), one
batched Horner step per order (:meth:`evaluate`), one limb operation
per elementwise ring operation.  This is the series analogue of the
paper's "matrix of quad doubles as four matrices of doubles" layout,
carried up one level to whole systems of series.

Every member is written once, in a private base over the kind of the
coefficient array; :class:`VectorSeries` runs it on an
:class:`~repro.vec.mdarray.MDArray`, and
:class:`~repro.series.complexvec.ComplexVectorSeries` on an
:class:`~repro.vec.complexmd.MDComplexArray`.  A vector takes its kind
from its component class (:class:`~repro.series.truncated.TruncatedSeries`
or :class:`~repro.series.complexvec.ComplexTruncatedSeries`).

Component views (:meth:`component`, :meth:`components`) round-trip
into scalar-per-series component objects and are bit-identical to
operating on the components one by one, because both paths share the
same vectorized limb kernels.
"""

from __future__ import annotations

import numpy as np

from ..md.constants import Precision, get_precision
from ..vec import linalg
from ..vec.batched import stack
from ..vec.complexmd import MDComplexArray
from ..vec.mdarray import MDArray
from .truncated import TruncatedSeries

__all__ = ["VectorSeries", "coefficient_conditions", "evaluation_magnitudes"]


def evaluation_magnitudes(array) -> np.ndarray:
    """Leading-double magnitudes of an evaluated array — the moduli for
    complex data, the absolute heads for real data."""
    if isinstance(array, MDComplexArray):
        return np.abs(array.to_complex())
    return np.abs(array.to_double())


def coefficient_conditions(magnitudes, t, values) -> np.ndarray:
    """Evaluation condition numbers ``sum |c_k| t^k / |value|`` of a
    stack of series, on leading doubles.

    ``magnitudes`` holds the coefficient magnitudes along its last axis
    (shape ``(..., K+1)``), ``t`` the nonnegative evaluation distance
    (a float, or an array broadcasting against ``(...)``: one per
    series) and ``values`` the evaluation magnitudes (shape ``(...)``,
    see :func:`evaluation_magnitudes`).  A zero value reads ``inf``
    over a nonzero sum and 1.0 over a zero one.
    """
    values = np.asarray(values, dtype=np.float64)
    absolute = np.zeros(magnitudes.shape[:-1])
    power = 1.0
    for k in range(magnitudes.shape[-1]):
        absolute += magnitudes[..., k] * power
        power = power * t
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = absolute / values
    return np.where(values == 0.0, np.where(absolute > 0.0, np.inf, 1.0), ratios)


class _VectorSeriesBase:
    """``n`` truncated power series of one kind in one coefficient array
    of element shape ``(n, K+1)``: every member the real and the
    complex vectors run the same way.

    A public subclass names its component class in ``_series``; the
    vector shares that class's kind hooks (the array class ``_array``,
    the scalar coercion ``_scalar`` and the head magnitudes
    ``_magnitudes``) and its promotion of a narrower component kind.
    """

    __slots__ = ("_coefficients", "_precision")

    def __init__(self, coefficients, precision=None):
        array = self._series._array
        if not isinstance(coefficients, array):
            raise TypeError(
                f"{type(self).__name__} expects an {array.__name__} of coefficients"
            )
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
    def _wrap(cls, coefficients, prec: Precision):
        series = object.__new__(cls)
        object.__setattr__(series, "_coefficients", coefficients)
        object.__setattr__(series, "_precision", prec)
        return series

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, dimension: int, order: int, precision=2):
        prec = get_precision(precision)
        return cls._wrap(
            cls._series._array.zeros((dimension, order + 1), prec.limbs), prec
        )

    @classmethod
    def from_components(cls, components):
        """Stack per-component series (components of this kind, of a
        narrower kind, or scalar-reference series; shorter components
        are zero-padded to the longest order)."""
        series_cls = cls._series
        converted = []
        for component in components:
            component = series_cls._promote(component)
            if not isinstance(component, series_cls):
                component = series_cls(
                    list(component), getattr(component, "precision", None)
                )
            converted.append(component)
        if not converted:
            raise ValueError("a vector series needs at least one component")
        limbs = converted[0].limbs
        if any(c.limbs != limbs for c in converted):
            raise ValueError("all components must share the precision")
        order = max(c.order for c in converted)
        return cls._wrap(
            stack([c.pad(order).coefficients for c in converted]),
            get_precision(limbs),
        )

    @classmethod
    def from_mdarray(cls, coefficients, precision=None):
        """Adopt an ``(n, K+1)`` coefficient array (copied)."""
        return cls(coefficients, precision)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def coefficients(self):
        """The limb-major coefficient array, element shape ``(n, K+1)``."""
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

    def component(self, index: int):
        """One component as a series of the component class (copied)."""
        return self._series.from_mdarray(self._coefficients[index])

    def components(self) -> list:
        """All components as series of the component class."""
        return [self.component(i) for i in range(self.dimension)]

    def coefficient(self, k: int):
        """The order-``k`` coefficient of every component, shape ``(n,)``."""
        if not 0 <= k <= self.order:
            return self._series._array.zeros((self.dimension,), self.limbs)
        return self._coefficients[:, k].copy()

    def set_coefficient(self, k: int, value) -> None:
        """Overwrite the order-``k`` coefficient column (in place) —
        the per-order update of the Newton staircase.  ``value`` is an
        ``(n,)`` array (a complex vector also takes a real one) or a
        sequence of ``n`` scalars."""
        if not 0 <= k <= self.order:
            raise IndexError(f"order {k} outside 0..{self.order}")
        array = self._series._array
        if not isinstance(value, (MDArray, array)):
            value = array.from_multidoubles(
                [self._series._scalar(v, self._precision) for v in value], self.limbs
            )
        elif value.limbs != self.limbs:
            value = value.astype(self.limbs)
        self._coefficients[:, k] = value

    def __len__(self) -> int:
        return self.dimension

    def __iter__(self):
        for i in range(self.dimension):
            yield self.component(i)

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    def truncate(self, order: int):
        if order == self.order:
            return self
        if order < self.order:
            return self._wrap(
                self._coefficients[:, : order + 1].copy(), self._precision
            )
        return self.pad(order)

    def pad(self, order: int):
        if order <= self.order:
            return self
        array = self._series._array.zeros((self.dimension, order + 1), self.limbs)
        array[:, : self.order + 1] = self._coefficients
        return self._wrap(array, self._precision)

    def astype(self, precision):
        prec = get_precision(precision)
        if prec.limbs == self.limbs:
            return self
        return self._wrap(self._coefficients.astype(prec.limbs), prec)

    def copy(self):
        return self._wrap(self._coefficients.copy(), self._precision)

    def _coerce(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other)!r}"
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

    def _head(self, order: int):
        return self._coefficients[:, : order + 1]

    # ------------------------------------------------------------------
    # arithmetic — each operation is one batched launch over all
    # components and coefficients
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return self._wrap(self._head(order) + other._head(order), self._precision)

    def __sub__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return self._wrap(self._head(order) - other._head(order), self._precision)

    def __neg__(self):
        return self._wrap(-self._coefficients, self._precision)

    def __mul__(self, other):
        """Component-wise Cauchy products, batched over the system."""
        other = self._coerce(other)
        order = min(self.order, other.order)
        return self._wrap(
            linalg.cauchy_product(self._head(order), other._head(order)),
            self._precision,
        )

    def scale(self, factor):
        factor = self._series._scalar(factor, self._precision)
        return self._wrap(self._coefficients * factor, self._precision)

    # ------------------------------------------------------------------
    # evaluation and diagnostics
    # ------------------------------------------------------------------
    def evaluate(self, point):
        """Batched Horner (:func:`repro.vec.linalg.horner`): every
        component evaluated at ``point`` in one sweep of ``K``
        vectorized multiply-adds, returning ``(n,)``."""
        return linalg.horner(
            self._coefficients, self._series._scalar(point, self._precision)
        )

    def coefficient_condition(self, point, values=None) -> np.ndarray:
        """Evaluation condition number of every component at ``point``:
        ``sum |c_k| |t|^k / |value|`` on the leading doubles of the
        coefficient magnitudes (moduli for complex data; see
        :meth:`TruncatedSeries.coefficient_condition`), for the whole
        system at once (:func:`coefficient_conditions`).

        ``values`` may supply the precomputed evaluation magnitudes
        (shape ``(n,)``, see :func:`evaluation_magnitudes`) so callers
        that already evaluated the system do not pay the Horner sweep
        twice.
        """
        if values is None:
            values = evaluation_magnitudes(self.evaluate(point))
        return coefficient_conditions(
            self._series._magnitudes(self._coefficients), abs(float(point)), values
        )

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def allclose(self, other, tol=None) -> bool:
        """Coefficient-wise closeness through the shorter order (the
        tolerance defaults to a few ulps of the working precision)."""
        other = self._coerce(other)
        order = min(self.order, other.order)
        return self._head(order).allclose(other._head(order), tol)

    def equals(self, other) -> bool:
        """Exact (bitwise) equality of every limb of every coefficient."""
        other = self._coerce(other)
        return self._coefficients.equals(other._coefficients)

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(dimension={self.dimension}, "
            f"order={self.order}, precision={self._precision.name!r})"
        )


class VectorSeries(_VectorSeriesBase):
    """``n`` truncated power series in one limb-major ``(m, n, K+1)``
    coefficient array."""

    __slots__ = ()

    _series = TruncatedSeries
