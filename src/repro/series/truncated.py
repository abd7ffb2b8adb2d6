"""Truncated power series arithmetic on limb-major coefficient arrays.

The paper's motivating application (Section 1.1) develops the solution
of a polynomial homotopy as a power series ``x(t) = sum_k c_k t^k``
whose coefficients are multiple double numbers.  A
:class:`TruncatedSeries` holds the coefficients ``c_0 .. c_K`` of such a
series truncated at order ``K`` — stored as **one limb-major
:class:`~repro.vec.mdarray.MDArray` of shape** ``(m, K+1)``, the same
structure-of-arrays layout the paper uses for matrices of multiple
doubles — and provides the series-level arithmetic the path tracking
workload needs:

* ring operations — addition, subtraction, Cauchy-product
  multiplication, integer powers.  Every operation runs as a handful
  of vectorized limb operations over **all** coefficients at once
  (:func:`repro.vec.linalg.cauchy_product` for the products), the
  Python stand-in for one GPU launch per operation instead of one per
  coefficient;
* Newton-iteration kernels on series — :meth:`reciprocal`
  (``y <- y * (2 - x y)``), :meth:`sqrt` (``y <- (y + x / y) / 2``) and
  :meth:`exp` (``y <- y * (1 + x - log y)``), each doubling the number
  of correct coefficients per pass exactly like the scalar Newton
  methods of :mod:`repro.md.functions` double the number of correct
  limbs;
* calculus — :meth:`derivative`, :meth:`integral` and :meth:`log`
  (``log x = log c_0 + integral of x'/x``);
* evaluation — multiple double Horner (:meth:`evaluate`) and exact
  rational evaluation (:meth:`evaluate_fraction`) for the
  precision-versus-error studies of the examples;
* diagnostics — :meth:`coefficient_ratios` and
  :meth:`coefficient_condition`, the quantities the adaptive tracker
  (:mod:`repro.series.tracker`) monitors to decide when a computed
  series has hit the working precision's noise floor.

Construction, the accessors, ``truncate``/``pad``/``astype`` and the
ring arithmetic are written once, in a private base over the kind of
the coefficient array: :class:`TruncatedSeries` runs them on an
:class:`~repro.vec.mdarray.MDArray`,
:class:`~repro.series.complexvec.ComplexTruncatedSeries` on an
:class:`~repro.vec.complexmd.MDComplexArray`.  Each class adds only
what its kind alone has.

The scalar loop-per-coefficient implementation lives on as the test
oracle ``tests/oracles/series.py`` — the reference this class is
cross-checked against **bit for bit** (the same role
:mod:`repro.md.number` plays for :mod:`repro.vec`).  Both sides share
the identical product grid and zero-padded pairwise reduction tree, so
agreement is exact, not approximate.  :meth:`from_mdarray` /
:meth:`to_mdarray` (with :meth:`MDArray.__iter__
<repro.vec.mdarray.MDArray.__iter__>`) round-trip between the two
worlds.

The per-operation multiple double operation counts and the vectorized
launch counts of everything here are catalogued in
:func:`repro.md.opcounts.series_counts` and
:func:`repro.md.opcounts.series_launches`, which count these kernels
so that series workloads appear in the analytic cost model.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..md import functions as md_functions
from ..md.constants import Precision, get_precision
from ..md.number import ComplexMultiDouble, MultiDouble
from ..md.opcounts import series_newton_orders
from ..vec import linalg
from ..vec.mdarray import MDArray

__all__ = ["TruncatedSeries"]


class _TruncatedSeriesBase:
    """One truncated power series over a coefficient array of either
    kind: every member the real and the complex series run the same way.

    A public subclass fixes the kind with class-level hooks:

    * ``_array`` — the coefficient array class, :class:`MDArray` or
      :class:`~repro.vec.complexmd.MDComplexArray` (storage ``(m, K+1)``
      per plane);
    * ``_scalar(value, prec)`` — the coercion of a scalar coefficient,
      factor or evaluation point;
    * ``_scalar_types`` — the scalar operands the arithmetic accepts;
    * ``_magnitudes(array)`` — the leading-double magnitudes of an
      array's elements (the vector condition estimate reads them);
    * ``_from_values(values, prec)`` — the coefficient array of a list
      of scalars (the constructor's other form).

    The arithmetic coerces a series operand through ``_promote``, which
    the complex kind overrides to lift a real series.
    """

    __slots__ = ("_coefficients", "_precision")

    def __init__(self, coefficients, precision=None):
        if isinstance(coefficients, self._array):
            series = self.from_mdarray(coefficients, precision)
            coefficients, prec = series._coefficients, series._precision
        else:
            values = list(coefficients)
            if not values:
                raise ValueError("a truncated series needs at least one coefficient")
            if precision is None:
                precision = next(
                    (
                        value.precision
                        for value in values
                        if isinstance(value, (MultiDouble, ComplexMultiDouble))
                    ),
                    2,
                )
            prec = get_precision(precision)
            coefficients = self._from_values(values, prec)
        object.__setattr__(self, "_coefficients", coefficients)
        object.__setattr__(self, "_precision", prec)

    @classmethod
    def _wrap(cls, coefficients, prec: Precision):
        """Adopt a ``(K+1,)`` coefficient array without copying."""
        series = object.__new__(cls)
        object.__setattr__(series, "_coefficients", coefficients)
        object.__setattr__(series, "_precision", prec)
        return series

    @staticmethod
    def _promote(other):
        """``other`` as a series of this kind where it is one of a
        narrower kind; the real kind has none."""
        return other

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_mdarray(cls, coefficients, precision=None):
        """Adopt a one-dimensional coefficient array of this kind.

        The array's last axis indexes the series orders ``0 .. K``; the
        data is copied (and converted when ``precision`` differs), so
        the series does not alias the caller's storage.
        """
        if not isinstance(coefficients, cls._array):
            raise TypeError(
                f"from_mdarray expects an {cls._array.__name__} of coefficients"
            )
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
    def zero(cls, order: int, precision=2):
        prec = get_precision(precision)
        return cls._wrap(cls._array.zeros((order + 1,), prec.limbs), prec)

    @classmethod
    def one(cls, order: int, precision=2):
        return cls.constant(1, order, precision)

    @classmethod
    def constant(cls, value, order: int, precision=2):
        series = cls.zero(order, precision)
        series._coefficients[0] = cls._scalar(value, series._precision)
        return series

    @classmethod
    def variable(cls, order: int, precision=2, *, head=0):
        """The series ``head + t`` (the local homotopy parameter; the
        parameter itself stays real, only the head follows the kind)."""
        series = cls.constant(head, order, precision)
        if order >= 1:
            series._coefficients[1] = 1
        return series

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def coefficients(self):
        """The limb-major coefficient array (iterating it yields the
        coefficients as scalars of the series' kind)."""
        return self._coefficients

    @property
    def precision(self) -> Precision:
        return self._precision

    @property
    def limbs(self) -> int:
        return self._precision.limbs

    @property
    def order(self) -> int:
        """Truncation order ``K`` (the series carries ``K + 1`` terms)."""
        return self._coefficients.shape[0] - 1

    def coefficient(self, k: int):
        """``c_k``, or an exact zero beyond the truncation order."""
        if 0 <= k <= self.order:
            return self._coefficients.to_multidouble(k)
        return self._array.zeros((1,), self.limbs).to_multidouble(0)

    def __getitem__(self, k: int):
        return self.coefficient(k)

    def __len__(self) -> int:
        return self.order + 1

    def __iter__(self):
        return iter(self._coefficients)

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    def truncate(self, order: int):
        """Drop the terms beyond ``t**order`` (pads if ``order`` exceeds
        the current truncation order)."""
        if order == self.order:
            return self
        if order < self.order:
            return self._wrap(self._coefficients[: order + 1].copy(), self._precision)
        return self.pad(order)

    def pad(self, order: int):
        """Extend with exact zero coefficients up to ``order``."""
        if order <= self.order:
            return self
        array = self._array.zeros((order + 1,), self.limbs)
        array[: self.order + 1] = self._coefficients
        return self._wrap(array, self._precision)

    def astype(self, precision):
        """Convert every coefficient to another precision."""
        prec = get_precision(precision)
        if prec.limbs == self.limbs:
            return self
        return self._wrap(self._coefficients.astype(prec.limbs), prec)

    def _coerce(self, other):
        other = self._promote(other)
        if isinstance(other, type(self)):
            if other.limbs != self.limbs:
                raise ValueError(
                    f"precision mismatch: {self.limbs} vs {other.limbs} limbs"
                )
            return other
        if isinstance(other, self._scalar_types):
            return self.constant(other, self.order, self._precision)
        raise TypeError(f"cannot combine {type(self).__name__} with {type(other)!r}")

    def _coerce_operand(self, other):
        """Operator-facing coercion: ``None`` for foreign operands so
        the binary operators can return ``NotImplemented`` and let the
        other type's reflected operator run (e.g. a real ``t`` series
        times a :class:`~repro.series.complexvec.ComplexTruncatedSeries`
        dispatches to the complex arithmetic)."""
        try:
            return self._coerce(other)
        except TypeError:
            return None

    def _head(self, order: int):
        """View of the coefficients through ``order`` (no copy)."""
        return self._coefficients[: order + 1]

    # ------------------------------------------------------------------
    # ring arithmetic (results truncated at the shorter operand); every
    # operation is a constant number of vectorized limb operations
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        return self._wrap(self._head(order) + other._head(order), self._precision)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        return self._wrap(self._head(order) - other._head(order), self._precision)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, self._scalar_types):
            return self.scale(other)
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self._wrap(
            linalg.cauchy_product(self._coefficients, other._coefficients),
            self._precision,
        )

    __rmul__ = __mul__

    def scale(self, factor):
        """Coefficient-wise multiplication by a scalar (one launch)."""
        factor = self._scalar(factor, self._precision)
        return self._wrap(self._coefficients * factor, self._precision)

    def __neg__(self):
        return self._wrap(-self._coefficients, self._precision)

    def __pos__(self):
        return self

    def evaluate(self, point):
        """Horner evaluation at ``point`` in the working precision: a
        batch of one over :func:`repro.vec.linalg.horner`, the sweep
        :meth:`repro.series.vector.VectorSeries.evaluate` runs over a
        whole system (a :class:`MultiDouble`, or a
        :class:`ComplexMultiDouble` for the complex kind)."""
        value = linalg.horner(self._coefficients, self._scalar(point, self._precision))
        return value.to_multidouble(())


class TruncatedSeries(_TruncatedSeriesBase):
    """A power series truncated at order ``K`` with multiple double
    coefficients ``c_0 .. c_K`` in one limb-major ``(m, K+1)`` array."""

    __slots__ = ()

    _array = MDArray
    _scalar = staticmethod(MultiDouble)
    _scalar_types = (int, float, Fraction, str, MultiDouble)

    @staticmethod
    def _magnitudes(array) -> np.ndarray:
        return np.abs(array.data[0])

    @staticmethod
    def _from_values(values, prec: Precision) -> MDArray:
        return MDArray.from_multidoubles(
            [v if isinstance(v, MultiDouble) else MultiDouble(v, prec) for v in values],
            prec.limbs,
        )

    @classmethod
    def from_fractions(cls, values, precision=2) -> "TruncatedSeries":
        """Build from exact rational coefficients (each rounded once)."""
        prec = get_precision(precision)
        return cls([MultiDouble(Fraction(v), prec) for v in values], prec)

    @classmethod
    def from_function(cls, coefficient, order: int, precision=2) -> "TruncatedSeries":
        """Build from a callable ``k -> c_k``."""
        prec = get_precision(precision)
        return cls([coefficient(k) for k in range(order + 1)], prec)

    def to_mdarray(self) -> MDArray:
        """A copy of the coefficient array (shape ``(K+1,)``)."""
        return self._coefficients.copy()

    def shift(self, powers: int) -> "TruncatedSeries":
        """Multiply by ``t**powers`` (truncation order unchanged)."""
        if powers < 0:
            raise ValueError("shift expects a nonnegative power")
        if powers == 0:
            return self
        data = np.zeros_like(self._coefficients.data)
        if powers <= self.order:
            data[:, powers:] = self._coefficients.data[:, : self.order + 1 - powers]
        return TruncatedSeries._wrap(MDArray(data), self._precision)

    # ------------------------------------------------------------------
    # division and powers
    # ------------------------------------------------------------------
    def __truediv__(self, other):
        if isinstance(other, self._scalar_types):
            inverse = MultiDouble(1, self._precision) / MultiDouble(other, self._precision)
            return self.scale(inverse)
        other = self._coerce(other)
        order = min(self.order, other.order)
        return (self.truncate(order) * other.truncate(order).reciprocal()).truncate(order)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int):
            raise TypeError("only integer powers of a series are supported")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        result = TruncatedSeries.one(self.order, self._precision)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # Newton iterations on series
    # ------------------------------------------------------------------
    def reciprocal(self) -> "TruncatedSeries":
        """``1 / self`` by Newton iteration ``y <- y * (2 - x y)``.

        Starting from the exact reciprocal of the head coefficient, each
        pass doubles the number of correct series coefficients (order
        ``n`` correct becomes ``2 n + 1``), the series analogue of the
        limb-doubling Newton iterations in :mod:`repro.md.functions`.
        """
        head = self.coefficient(0)
        if head.to_fraction() == 0:
            raise ZeroDivisionError("reciprocal of a series with zero head term")
        inverse = TruncatedSeries([MultiDouble(1, self._precision) / head], self._precision)
        for target in series_newton_orders(self.order):
            x = self.truncate(target)
            inverse = inverse.pad(target)
            inverse = (inverse * (2 - (x * inverse))).truncate(target)
        return inverse

    def sqrt(self) -> "TruncatedSeries":
        """Square root by the Newton iteration ``y <- (y + x / y) / 2``."""
        head = self.coefficient(0)
        if head.to_fraction() <= 0:
            raise ValueError("series sqrt needs a positive head coefficient")
        root = TruncatedSeries([head.sqrt()], self._precision)
        half = MultiDouble(Fraction(1, 2), self._precision)
        for target in series_newton_orders(self.order):
            x = self.truncate(target)
            root = root.pad(target)
            root = ((root + x / root) * half).truncate(target)
        return root

    def exp(self) -> "TruncatedSeries":
        """Exponential by the Newton iteration ``y <- y * (1 + x - log y)``."""
        head = self.coefficient(0)
        result = TruncatedSeries(
            [md_functions.exp(head, self.limbs)], self._precision
        )
        for target in series_newton_orders(self.order):
            x = self.truncate(target)
            result = result.pad(target)
            result = (result * (1 + (x - result.log()))).truncate(target)
        return result

    def log(self) -> "TruncatedSeries":
        """Logarithm via ``log x = log c_0 + integral of x' / x``.

        The series division inside is itself a Newton iteration
        (:meth:`reciprocal`), so the whole scheme converges at the same
        doubling rate as the scalar logarithm of
        :mod:`repro.md.functions`.
        """
        head = self.coefficient(0)
        if head.to_fraction() <= 0:
            raise ValueError("series log needs a positive head coefficient")
        if self.order == 0:
            return TruncatedSeries(
                [md_functions.log(head, self.limbs)], self._precision
            )
        quotient = self.derivative() / self.truncate(self.order - 1)
        return quotient.integral(md_functions.log(head, self.limbs))

    # ------------------------------------------------------------------
    # calculus (one vectorized limb operation each)
    # ------------------------------------------------------------------
    def derivative(self) -> "TruncatedSeries":
        """Term-wise derivative (order drops by one)."""
        if self.order == 0:
            return TruncatedSeries.zero(0, self._precision)
        tail = MDArray(self._coefficients.data[:, 1:])
        factors = np.arange(1, self.order + 1, dtype=np.float64)
        return TruncatedSeries._wrap(tail * factors, self._precision)

    def integral(self, constant=0) -> "TruncatedSeries":
        """Term-wise antiderivative (order grows by one)."""
        divisors = np.arange(1, self.order + 2, dtype=np.float64)
        quotient = self._coefficients / divisors
        data = np.zeros((self.limbs, self.order + 2), dtype=np.float64)
        data[:, 0] = MultiDouble(constant, self._precision).limbs
        data[:, 1:] = quotient.data
        return TruncatedSeries._wrap(MDArray(data), self._precision)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate_fraction(self, point: Fraction) -> Fraction:
        """Exact rational Horner evaluation of the stored coefficients."""
        point = Fraction(point)
        total = Fraction(0)
        for k in range(self.order, -1, -1):
            total = total * point + self.coefficient(k).to_fraction()
        return total

    def to_fractions(self) -> list:
        """Exact rational values of the stored coefficients."""
        return [c.to_fraction() for c in self._coefficients]

    def to_doubles(self) -> list:
        """Leading limbs of the coefficients."""
        return list(self._coefficients.to_double())

    # ------------------------------------------------------------------
    # diagnostics for the adaptive tracker
    # ------------------------------------------------------------------
    def coefficient_ratios(self) -> list:
        """Successive magnitude ratios ``|c_k| / |c_{k-1}|`` (leading
        limbs; zero coefficients are skipped), the raw material of the
        tracker's convergence-radius and noise-floor estimates."""
        magnitudes = np.abs(self._coefficients.data[0])
        ratios = []
        previous = None
        for magnitude in magnitudes:
            magnitude = float(magnitude)
            if previous not in (None, 0.0) and magnitude != 0.0:
                ratios.append(magnitude / previous)
            previous = magnitude if magnitude != 0.0 else previous
        return ratios

    def radius_estimate(self) -> float:
        """Convergence-radius estimate ``1 / rho`` from the geometric
        mean of the trailing half of the coefficient ratios.  Returns
        ``inf`` when no usable ratios exist (e.g. a polynomial)."""
        ratios = self.coefficient_ratios()
        if not ratios:
            return float("inf")
        tail = ratios[len(ratios) // 2 :]
        product = 1.0
        for ratio in tail:
            product *= ratio
        rho = product ** (1.0 / len(tail))
        if rho <= 0.0:
            return float("inf")
        return 1.0 / rho

    def coefficient_condition(self, point) -> float:
        """Condition number of evaluating the series at ``point``:
        ``sum |c_k| |t|^k / |sum c_k t^k|`` on leading limbs.

        The working precision's unit roundoff times this number bounds
        the relative evaluation noise; the adaptive tracker escalates
        the precision when that product exceeds the error budget.  A
        batch of one over
        :func:`repro.series.vector.coefficient_conditions`, which
        :meth:`repro.series.vector.VectorSeries.coefficient_condition`
        runs over a whole system."""
        from .vector import coefficient_conditions, evaluation_magnitudes

        value = linalg.horner(self._coefficients, self._scalar(point, self._precision))
        condition = coefficient_conditions(
            self._magnitudes(self._coefficients),
            abs(float(point)),
            evaluation_magnitudes(value),
        )
        return float(condition)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def allclose(self, other, tol=None) -> bool:
        """Coefficient-wise closeness at a tolerance (defaults to a few
        ulps of the working precision, relative to the larger head)."""
        other = self._coerce(other)
        if tol is None:
            tol = 16 * self._precision.eps
        order = min(self.order, other.order)
        for k in range(order + 1):
            a = self.coefficient(k).to_fraction()
            b = other.coefficient(k).to_fraction()
            scale = max(abs(a), abs(b), Fraction(1))
            if abs(a - b) > Fraction(tol) * scale:
                return False
        return True

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        except ValueError:  # precision mismatch: unequal, not an error
            return False
        return self.order == other.order and bool(
            np.array_equal(
                self._coefficients.data + 0.0, other._coefficients.data + 0.0
            )
        )

    def __hash__(self):
        # +0.0 normalizes signed zeros so equal series hash alike
        return hash(
            (self._precision.limbs, (self._coefficients.data + 0.0).tobytes())
        )

    def __repr__(self):  # pragma: no cover - cosmetic
        head = ", ".join(
            f"{float(v):.6g}" for v in self._coefficients.data[0, :4]
        )
        ellipsis = ", ..." if self.order >= 4 else ""
        return (
            f"TruncatedSeries([{head}{ellipsis}], order={self.order}, "
            f"precision={self._precision.name!r})"
        )
