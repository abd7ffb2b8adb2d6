"""Scalar truncated series, the scalar and the unbatched Newton
staircases and the unbatched Padé construction: the reference for every
vectorized series identity test.

:class:`ScalarSeries` stores one :class:`~repro.md.number.MultiDouble`
per coefficient and runs pure-Python loops per coefficient — the
original storage layout of the series subsystem, kept as the reference
the vectorized limb-major :class:`~repro.series.truncated.TruncatedSeries`
is checked against, the role :mod:`repro.md.number` plays for
:mod:`repro.vec.mdarray`.  :func:`newton_series` runs the order-by-order
Newton staircase of :func:`repro.series.newton.newton_series` on these
scalar series.

The contract is **bit-for-bit identity**, not closeness: every
operation here replays the numeric structure of the vectorized kernel
it mirrors —

* the Cauchy product forms the same product grid and reduces each
  coefficient with the same zero-padded pairwise (binary tree)
  summation as :func:`repro.vec.linalg.cauchy_product` /
  :meth:`MDArray.sum <repro.vec.mdarray.MDArray.sum>`;
* the Newton iterations (:meth:`reciprocal`, :meth:`sqrt`,
  :meth:`exp`, :meth:`log`) walk the identical
  :func:`~repro.md.opcounts.series_newton_orders` schedule with the
  identical operand order in every ring operation;
* calculus and Horner evaluation perform the same
  :mod:`repro.md.generic` limb operations element by element;
* the staircase runs the unbatched QR and the two stages of the back
  substitution of the dense oracle (``tests/oracles/dense.py``; the
  tiles inverted once, one substitution per order) and the library's
  ``Q^H b`` product, and gathers each right-hand side from scalar
  residual coefficients instead of limb-major columns.

:func:`evaluate`, :func:`coefficient_condition` and
:func:`complex_evaluate` are the scalar walks of one
:class:`~repro.series.truncated.TruncatedSeries` /
:class:`~repro.series.complexvec.ComplexTruncatedSeries`, the
reference for their evaluation and condition estimate, which run as
batches of one over the vectorized Horner sweep
(``tests/series/test_scalar_evaluation.py``).

Because scalar :class:`MultiDouble` arithmetic and the vectorized
arrays share the generic expansion arithmetic of
:mod:`repro.md.generic`, matching the operation *structure* makes the
results identical to the last bit; ``tests/series/test_vectorized_cross.py``
enforces this at every paper precision.  Nothing here calls
:func:`repro.vec.linalg.cauchy_product`, so a bug in the vectorized
series kernels cannot hide in its own reference.  Conversion helpers
(:meth:`ScalarSeries.from_truncated`, :meth:`ScalarSeries.to_truncated`)
round-trip between the two worlds.

:func:`pade` is the per-series Padé construction on the limb-major
arrays — Hankel gathers, one least squares solve of the dense oracle,
the numerator convolution and the defect — that
:func:`repro.batch.pade.batched_pade` batches and
:func:`repro.series.pade.pade` runs as a batch of one.  It never calls
:func:`~repro.batch.pade.batched_pade`, so a batched Padé bug cannot
hide in its own reference (``tests/series/test_pade.py``).

:func:`unbatched_newton_series` is the per-path staircase on the
limb-major series — one tile inversion, then one residual call, one
column gather, one ``Q^H b`` product and one substitution per order —
that the path fleet batches and
:func:`repro.series.newton.newton_series` runs as a batch of one.  It
never calls :mod:`repro.batch.fleet`; the unbatched reference tracker
(``tests/oracles/solo_tracker.py``) expands every step with it
(``tests/series/test_newton_oracle.py``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.core import stages
from repro.core.least_squares import STAGE_APPLY_QT, resolve_tile_sizes
from repro.gpu.kernel import KernelTrace
from repro.gpu.memory import md_bytes
from repro.md import functions as md_functions
from repro.md import generic
from repro.md.constants import Precision, get_precision
from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.md.opcounts import series_newton_orders
from repro.series.complexvec import ComplexTruncatedSeries, ComplexVectorSeries
from repro.series.newton import (
    NewtonSeriesResult,
    _coerce_jacobian,
    _coerce_residual,
    _coerce_start,
)
from repro.series.pade import PadeApproximant
from repro.series.truncated import TruncatedSeries
from repro.series.vector import VectorSeries
from repro.vec import linalg
from repro.vec.complexmd import MDComplexArray, map_planes
from repro.vec.mdarray import MDArray

from .dense import blocked_qr, invert_tiles, lstsq, substitute

__all__ = [
    "ScalarSeries",
    "pairwise_sum",
    "evaluate",
    "coefficient_condition",
    "complex_evaluate",
    "newton_series",
    "unbatched_newton_series",
    "pade",
]

#: Types accepted wherever a scalar coefficient is expected.
_SCALAR_TYPES = (int, float, Fraction, str, MultiDouble)


def pairwise_sum(values, zero):
    """Zero-padded pairwise (binary tree) summation.

    Splits the sequence into halves of ``ceil(n/2)`` and ``floor(n/2)``
    elements, pads the shorter second half with ``zero`` and adds the
    halves element by element, repeating until one value remains — the
    exact reduction :meth:`MDArray.sum <repro.vec.mdarray.MDArray.sum>`
    performs along an axis, replayed on scalars.
    """
    work = list(values)
    if not work:
        return zero
    while len(work) > 1:
        n = len(work)
        half = (n + 1) // 2
        work = [
            work[i] + (work[half + i] if half + i < n else zero)
            for i in range(half)
        ]
    return work[0]


class ScalarSeries:
    """A truncated power series with one scalar multiple double per
    coefficient (the loop-per-coefficient reference implementation)."""

    __slots__ = ("_coefficients", "_precision")

    def __init__(self, coefficients, precision=None):
        coefficients = list(coefficients)
        if not coefficients:
            raise ValueError("a truncated series needs at least one coefficient")
        if precision is None:
            for value in coefficients:
                if isinstance(value, MultiDouble):
                    precision = value.precision
                    break
            else:
                precision = 2
        prec = get_precision(precision)
        coerced = tuple(
            value
            if isinstance(value, MultiDouble) and value.m == prec.limbs
            else MultiDouble(value, prec)
            for value in coefficients
        )
        object.__setattr__(self, "_coefficients", coerced)
        object.__setattr__(self, "_precision", prec)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, order: int, precision=2) -> "ScalarSeries":
        prec = get_precision(precision)
        return cls([MultiDouble(0, prec)] * (order + 1), prec)

    @classmethod
    def one(cls, order: int, precision=2) -> "ScalarSeries":
        return cls.constant(1, order, precision)

    @classmethod
    def constant(cls, value, order: int, precision=2) -> "ScalarSeries":
        prec = get_precision(precision)
        zero = MultiDouble(0, prec)
        return cls([MultiDouble(value, prec)] + [zero] * order, prec)

    @classmethod
    def variable(cls, order: int, precision=2, *, head=0) -> "ScalarSeries":
        """The series ``head + t`` (the local homotopy parameter)."""
        prec = get_precision(precision)
        zero = MultiDouble(0, prec)
        coeffs = [MultiDouble(head, prec)]
        if order >= 1:
            coeffs.append(MultiDouble(1, prec))
            coeffs.extend([zero] * (order - 1))
        return cls(coeffs, prec)

    @classmethod
    def from_fractions(cls, values, precision=2) -> "ScalarSeries":
        """Build from exact rational coefficients (each rounded once)."""
        prec = get_precision(precision)
        return cls([MultiDouble(Fraction(v), prec) for v in values], prec)

    @classmethod
    def from_truncated(cls, series) -> "ScalarSeries":
        """Convert a vectorized :class:`TruncatedSeries` (the coefficient
        array iterates as :class:`MultiDouble` values)."""
        return cls(list(series.coefficients), series.precision)

    def to_truncated(self):
        """Convert to the vectorized limb-major representation."""
        return TruncatedSeries(list(self._coefficients), self._precision)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> tuple:
        return self._coefficients

    @property
    def precision(self) -> Precision:
        return self._precision

    @property
    def limbs(self) -> int:
        return self._precision.limbs

    @property
    def order(self) -> int:
        return len(self._coefficients) - 1

    def coefficient(self, k: int) -> MultiDouble:
        """``c_k``, or an exact zero beyond the truncation order."""
        if 0 <= k < len(self._coefficients):
            return self._coefficients[k]
        return MultiDouble(0, self._precision)

    def __getitem__(self, k: int) -> MultiDouble:
        return self.coefficient(k)

    def __len__(self) -> int:
        return len(self._coefficients)

    def __iter__(self):
        return iter(self._coefficients)

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    def truncate(self, order: int) -> "ScalarSeries":
        if order == self.order:
            return self
        if order < self.order:
            return ScalarSeries(self._coefficients[: order + 1], self._precision)
        return self.pad(order)

    def pad(self, order: int) -> "ScalarSeries":
        if order <= self.order:
            return self
        zero = MultiDouble(0, self._precision)
        return ScalarSeries(
            list(self._coefficients) + [zero] * (order - self.order), self._precision
        )

    def astype(self, precision) -> "ScalarSeries":
        prec = get_precision(precision)
        if prec.limbs == self.limbs:
            return self
        return ScalarSeries(
            [MultiDouble(c, prec) for c in self._coefficients], prec
        )

    def _coerce(self, other) -> "ScalarSeries":
        if isinstance(other, ScalarSeries):
            if other.limbs != self.limbs:
                raise ValueError(
                    f"precision mismatch: {self.limbs} vs {other.limbs} limbs"
                )
            return other
        if isinstance(other, _SCALAR_TYPES):
            return ScalarSeries.constant(other, self.order, self._precision)
        raise TypeError(f"cannot combine ScalarSeries with {type(other)!r}")

    # ------------------------------------------------------------------
    # ring arithmetic (results truncated at the shorter operand)
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return ScalarSeries(
            [self._coefficients[k] + other._coefficients[k] for k in range(order + 1)],
            self._precision,
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        return ScalarSeries(
            [self._coefficients[k] - other._coefficients[k] for k in range(order + 1)],
            self._precision,
        )

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        """Cauchy product, replaying the vectorized kernel's structure:
        every product ``a_i b_{k-i}``, then one zero-padded pairwise
        reduction of length ``K + 1`` per output coefficient."""
        if isinstance(other, _SCALAR_TYPES):
            return self.scale(other)
        other = self._coerce(other)
        order = min(self.order, other.order)
        zero = MultiDouble(0, self._precision)
        coeffs = []
        for k in range(order + 1):
            terms = [
                self._coefficients[i] * other._coefficients[k - i]
                for i in range(k + 1)
            ]
            terms.extend([zero] * (order - k))
            coeffs.append(pairwise_sum(terms, zero))
        return ScalarSeries(coeffs, self._precision)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, factor) -> "ScalarSeries":
        """Coefficient-wise multiplication by a scalar."""
        factor = MultiDouble(factor, self._precision)
        return ScalarSeries(
            [c * factor for c in self._coefficients], self._precision
        )

    def __neg__(self):
        return ScalarSeries([-c for c in self._coefficients], self._precision)

    def __pos__(self):
        return self

    def __truediv__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            inverse = MultiDouble(1, self._precision) / MultiDouble(other, self._precision)
            return self.scale(inverse)
        other = self._coerce(other)
        order = min(self.order, other.order)
        return (self.truncate(order) * other.truncate(order).reciprocal()).truncate(order)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: int) -> "ScalarSeries":
        if not isinstance(exponent, int):
            raise TypeError("only integer powers of a series are supported")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        result = ScalarSeries.one(self.order, self._precision)
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
    # Newton iterations on series (identical schedules to the
    # vectorized TruncatedSeries)
    # ------------------------------------------------------------------
    def reciprocal(self) -> "ScalarSeries":
        head = self._coefficients[0]
        if head.to_fraction() == 0:
            raise ZeroDivisionError("reciprocal of a series with zero head term")
        inverse = ScalarSeries([MultiDouble(1, self._precision) / head], self._precision)
        for target in series_newton_orders(self.order):
            x = self.truncate(target)
            inverse = inverse.pad(target)
            inverse = (inverse * (2 - (x * inverse))).truncate(target)
        return inverse

    def sqrt(self) -> "ScalarSeries":
        head = self._coefficients[0]
        if head.to_fraction() <= 0:
            raise ValueError("series sqrt needs a positive head coefficient")
        root = ScalarSeries([head.sqrt()], self._precision)
        half = MultiDouble(Fraction(1, 2), self._precision)
        for target in series_newton_orders(self.order):
            x = self.truncate(target)
            root = root.pad(target)
            root = ((root + x / root) * half).truncate(target)
        return root

    def exp(self) -> "ScalarSeries":
        head = self._coefficients[0]
        result = ScalarSeries(
            [md_functions.exp(head, self.limbs)], self._precision
        )
        for target in series_newton_orders(self.order):
            x = self.truncate(target)
            result = result.pad(target)
            result = (result * (1 + (x - result.log()))).truncate(target)
        return result

    def log(self) -> "ScalarSeries":
        head = self._coefficients[0]
        if head.to_fraction() <= 0:
            raise ValueError("series log needs a positive head coefficient")
        if self.order == 0:
            return ScalarSeries(
                [md_functions.log(head, self.limbs)], self._precision
            )
        quotient = self.derivative() / self.truncate(self.order - 1)
        return quotient.integral(md_functions.log(head, self.limbs))

    # ------------------------------------------------------------------
    # calculus and evaluation
    # ------------------------------------------------------------------
    def derivative(self) -> "ScalarSeries":
        if self.order == 0:
            return ScalarSeries.zero(0, self._precision)
        coeffs = [
            self._coefficients[k] * k for k in range(1, self.order + 1)
        ]
        return ScalarSeries(coeffs, self._precision)

    def integral(self, constant=0) -> "ScalarSeries":
        coeffs = [MultiDouble(constant, self._precision)]
        for k in range(self.order + 1):
            coeffs.append(self._coefficients[k] / (k + 1))
        return ScalarSeries(coeffs, self._precision)

    def evaluate(self, point) -> MultiDouble:
        """Horner evaluation at ``point`` in the working precision."""
        point = MultiDouble(point, self._precision)
        total = self._coefficients[-1]
        for coefficient in reversed(self._coefficients[:-1]):
            total = total * point + coefficient
        return total

    def evaluate_fraction(self, point: Fraction) -> Fraction:
        """Exact rational Horner evaluation of the stored coefficients."""
        point = Fraction(point)
        total = Fraction(0)
        for coefficient in reversed(self._coefficients):
            total = total * point + coefficient.to_fraction()
        return total

    def to_fractions(self) -> list:
        return [c.to_fraction() for c in self._coefficients]

    def to_doubles(self) -> list:
        return [float(c) for c in self._coefficients]

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def allclose(self, other, tol=None) -> bool:
        other = self._coerce(other)
        if tol is None:
            tol = 16 * self._precision.eps
        order = min(self.order, other.order)
        for k in range(order + 1):
            a = self._coefficients[k].to_fraction()
            b = other._coefficients[k].to_fraction()
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
        return (
            self.order == other.order
            and all(
                a == b for a, b in zip(self._coefficients, other._coefficients)
            )
        )

    def __hash__(self):
        return hash((self._precision.limbs, tuple(c.limbs for c in self._coefficients)))

    def __repr__(self):  # pragma: no cover - cosmetic
        head = ", ".join(f"{float(c):.6g}" for c in self._coefficients[:4])
        ellipsis = ", ..." if self.order >= 4 else ""
        return (
            f"ScalarSeries([{head}{ellipsis}], order={self.order}, "
            f"precision={self._precision.name!r})"
        )


def evaluate(series, point) -> MultiDouble:
    """Horner evaluation of a :class:`TruncatedSeries` at ``point``,
    walking the coefficient columns with :mod:`repro.md.generic` limb
    operations on limb tuples; :meth:`TruncatedSeries.evaluate
    <repro.series.truncated.TruncatedSeries.evaluate>` is a batch of
    one over :func:`repro.vec.linalg.horner`."""
    m = series.limbs
    point = MultiDouble(point, series.precision).limbs
    data = series.coefficients.data
    total = tuple(data[:, series.order])
    for k in range(series.order - 1, -1, -1):
        total = generic.add(generic.mul(total, point, m), tuple(data[:, k]), m)
    return MultiDouble.from_limbs([float(v) for v in total], m)


def coefficient_condition(series, point) -> float:
    """``sum |c_k| |t|^k / |sum c_k t^k|`` of a :class:`TruncatedSeries`
    on leading limbs, one coefficient at a time in Python floats."""
    t = abs(float(point))
    absolute = 0.0
    power = 1.0
    for magnitude in np.abs(series.coefficients.data[0]):
        absolute += float(magnitude) * power
        power *= t
    value = abs(float(evaluate(series, point)))
    if value == 0.0:
        return float("inf") if absolute > 0.0 else 1.0
    return absolute / value


def complex_evaluate(series, point) -> ComplexMultiDouble:
    """Horner evaluation of a
    :class:`~repro.series.complexvec.ComplexTruncatedSeries` at a real
    or complex ``point`` on scalar :class:`ComplexMultiDouble`
    coefficients."""
    point = ComplexTruncatedSeries._scalar(point, series.precision)
    total = series.coefficient(series.order)
    for k in range(series.order - 1, -1, -1):
        total = total * point + series.coefficient(k)
    return total


def newton_series(
    system, jacobian, start, order, precision=2, *, tile_size=None,
    bs_tile_size=None, device="V100",
) -> NewtonSeriesResult:
    """The order-by-order Newton staircase on :class:`ScalarSeries`.

    ``system(x, t)`` is evaluated on scalar series; the Jacobian head
    is factored once with the dense oracle's ``blocked_qr``, the tiles
    of ``R`` are inverted once (``invert_tiles``) and every order runs
    one ``Q^H b`` product and one ``substitute`` of the dense oracle,
    recording the same launches as
    :func:`repro.series.newton.newton_series`.  Real start points only.
    The result carries one :class:`ScalarSeries` per unknown and no
    ``vector``.
    """
    prec = get_precision(precision)
    limbs = prec.limbs
    heads = [MultiDouble(value, prec) for value in start]
    n = len(heads)
    tile_size, bs_tile_size = resolve_tile_sizes(n, tile_size, bs_tile_size)
    head_matrix = _coerce_jacobian(jacobian(list(heads)), n, limbs)

    t_head = ScalarSeries([MultiDouble(0, prec)], prec)
    x_head = [ScalarSeries([h], prec) for h in heads]
    head_residuals = _coerce_residual(
        system(x_head, t_head), n, 0, prec, ScalarSeries
    )
    head_residual = max(float(abs(r.coefficient(0))) for r in head_residuals)

    qr = blocked_qr(head_matrix, tile_size, device=device)
    q_conjugate = linalg.conjugate_transpose(qr.Q)
    upper = qr.R[:n, :n]
    trace = KernelTrace(
        device, label=f"newton series dim={n} order={order} {prec.name}"
    )
    trace.extend(qr.trace)
    inverses = invert_tiles(upper, bs_tile_size, trace) if order else None

    columns = [[h] for h in heads]
    zero = MultiDouble(0, prec)
    for k in range(1, order + 1):
        partial = [ScalarSeries(column + [zero], prec) for column in columns]
        t = ScalarSeries.variable(k, prec)
        residuals = _coerce_residual(system(partial, t), n, k, prec, ScalarSeries)
        rhs = MDArray.from_multidoubles(
            [-r.coefficient(k) for r in residuals], limbs
        )
        qhb = linalg.matvec(q_conjugate, rhs)
        trace.add(
            "apply_qt",
            STAGE_APPLY_QT,
            blocks=max(1, stages.ceil_div(n, tile_size)),
            threads_per_block=tile_size,
            limbs=limbs,
            tally=stages.tally_matvec(n, n, False),
            bytes_read=md_bytes(n * n + n, limbs, False),
            bytes_written=md_bytes(n, limbs, False),
        )
        x = substitute(upper, inverses, qhb[:n], trace)
        for i, column in enumerate(columns):
            column.append(x.to_multidouble(i))

    return NewtonSeriesResult(
        series=[ScalarSeries(column, prec) for column in columns],
        trace=trace,
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        head_residual=head_residual,
    )


def _residual_column(residuals, k: int):
    """The negated order-``k`` coefficient of every residual component
    as one ``(n,)`` array (a limb-major column gather; complex
    residuals gather both planes)."""
    if residuals and isinstance(residuals[0].coefficients, MDComplexArray):
        real = np.stack(
            [r.coefficients.real.data[:, k] for r in residuals], axis=-1
        )
        imag = np.stack(
            [r.coefficients.imag.data[:, k] for r in residuals], axis=-1
        )
        return MDComplexArray(MDArray(-real), MDArray(-imag))
    data = np.stack(
        [residual.coefficients.data[:, k] for residual in residuals], axis=-1
    )
    return MDArray(-data)


def unbatched_newton_series(
    system, jacobian, start, order, precision=2, *, tile_size=None,
    bs_tile_size=None, device="V100",
) -> NewtonSeriesResult:
    """The unbatched order-by-order Newton staircase on limb-major series.

    Arguments and result are those of
    :func:`repro.series.newton.newton_series` with the three values
    passed in order (no argument shifting, inputs assumed valid).  The
    Jacobian head is factored once by the dense oracle's ``blocked_qr``
    and the tiles of ``R`` inverted once (``invert_tiles``); every order
    calls ``system(x, t)`` on the partial series, with the real
    parameter series ``TruncatedSeries.variable(k, prec)``, gathers the
    residual column, forms ``Q^H b`` with
    :func:`repro.vec.linalg.matvec` and runs one ``substitute`` of the
    dense oracle.  The
    library's :func:`~repro.series.newton.newton_series` is a batch of
    one over the path fleet's staircase; this is the per-path loop both
    are checked against, and it never calls the fleet.
    """
    prec = get_precision(precision)
    limbs = prec.limbs
    heads = _coerce_start(start, prec, system)
    complex_data = isinstance(heads[0], ComplexMultiDouble)
    series_cls = ComplexTruncatedSeries if complex_data else TruncatedSeries
    n = len(heads)
    tile_size, bs_tile_size = resolve_tile_sizes(n, tile_size, bs_tile_size)

    head_matrix = _coerce_jacobian(jacobian(list(heads)), n, limbs)

    # how far the supplied start point is from solving the system at t=0
    t_head = TruncatedSeries.variable(0, prec)
    x_head = [series_cls([h], prec) for h in heads]
    head_residuals = _coerce_residual(system(x_head, t_head), n, 0, prec, series_cls)
    head_residual = max(float(abs(r.coefficient(0))) for r in head_residuals)

    qr = blocked_qr(head_matrix, tile_size, device=device)
    q_conjugate = linalg.conjugate_transpose(qr.Q)
    upper = qr.R[:n, :n]

    trace = KernelTrace(
        device, label=f"newton series dim={n} order={order} {prec.name}"
    )
    trace.extend(qr.trace)
    inverses = invert_tiles(upper, bs_tile_size, trace) if order else None

    if complex_data:
        solution = ComplexVectorSeries.zeros(n, order, prec)
        solution.set_coefficient(0, MDComplexArray.from_multidoubles(heads, limbs))
    else:
        solution = VectorSeries.zeros(n, order, prec)
        solution.set_coefficient(0, MDArray.from_multidoubles(heads, limbs))
    for k in range(1, order + 1):
        # partial series through order k-1 (column k still zero)
        partial = [
            series_cls.from_mdarray(solution.coefficients[i, : k + 1])
            for i in range(n)
        ]
        t = TruncatedSeries.variable(k, prec)
        residuals = _coerce_residual(system(partial, t), n, k, prec, series_cls)
        rhs = _residual_column(residuals, k)
        qhb = linalg.matvec(q_conjugate, rhs)
        trace.add(
            "apply_qt",
            STAGE_APPLY_QT,
            blocks=max(1, stages.ceil_div(n, tile_size)),
            threads_per_block=tile_size,
            limbs=limbs,
            tally=stages.tally_matvec(n, n, complex_data),
            bytes_read=md_bytes(n * n + n, limbs, complex_data),
            bytes_written=md_bytes(n, limbs, complex_data),
        )
        solution.set_coefficient(k, substitute(upper, inverses, qhb[:n], trace))

    return NewtonSeriesResult(
        series=solution.components(),
        trace=trace,
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        head_residual=head_residual,
        vector=solution,
    )


def _gather_coefficients(data, indices):
    """Gather series coefficients at ``indices`` from a limb-major
    ``(m, K+1)`` array; out-of-range indices yield exact zeros."""
    indices = np.asarray(indices)
    valid = (indices >= 0) & (indices < data.shape[1])
    safe = np.where(valid, indices, 0)
    return np.where(valid, data[:, safe], 0.0)


def _gather(array, indices):
    """Kind-aware gather: :func:`_gather_coefficients` on every limb
    plane."""
    return map_planes(array, lambda data: _gather_coefficients(data, indices))


def pade(
    series,
    numerator_degree=None,
    denominator_degree=None,
    *,
    precision=None,
    tile_size=None,
    device="V100",
) -> PadeApproximant:
    """The unbatched ``[L/M]`` Padé construction of one series.

    Arguments, defaults and result are those of
    :func:`repro.series.pade.pade`: the Hankel system and its
    right-hand side are gathered from the ``(m, K+1)`` coefficient
    array, solved by the dense oracle's ``lstsq`` (which raises
    ``ZeroDivisionError`` on a singular system), the numerator
    is one triangular convolution and the defect one windowed
    convolution coefficient.  The library's :func:`~repro.series.pade.pade`
    is a batch of one over :func:`repro.batch.pade.batched_pade`; this
    is the per-series construction both are checked against.
    """
    if not isinstance(series, (TruncatedSeries, ComplexTruncatedSeries)):
        series = TruncatedSeries(series, precision if precision is not None else 2)
    elif precision is not None and get_precision(precision).limbs != series.limbs:
        series = series.astype(precision)
    prec = series.precision
    limbs = prec.limbs
    complex_data = isinstance(series, ComplexTruncatedSeries)

    if numerator_degree is None and denominator_degree is None:
        numerator_degree = denominator_degree = series.order // 2
    elif numerator_degree is None:
        numerator_degree = series.order - denominator_degree
    elif denominator_degree is None:
        denominator_degree = series.order - numerator_degree
    L, M = int(numerator_degree), int(denominator_degree)
    if L < 0 or M < 0:
        raise ValueError("Padé degrees must be nonnegative")
    if L + M > series.order:
        raise ValueError(
            f"[{L}/{M}] needs series coefficients through order {L + M}, "
            f"got a series of order {series.order}"
        )

    coefficients = series.coefficients  # limb-major (m, K+1) [per plane]

    # denominator: Hankel system  sum_j c_{L+i-j} q_j = -c_{L+i}
    trace = None
    if M == 0:
        denominator_array = MDArray.from_double(np.ones(1), limbs)
        if complex_data:
            denominator_array = MDComplexArray(denominator_array)
    else:
        i = np.arange(1, M + 1)
        system = _gather(coefficients, L + i[:, None] - i[None, :])
        rhs = -_gather(coefficients, L + i)
        solution = lstsq(system, rhs, tile_size=tile_size, device=device)
        trace = solution.combined_trace
        one = np.zeros((limbs, 1))
        one[0, 0] = 1.0
        if complex_data:
            denominator_array = MDComplexArray(
                MDArray(np.concatenate([one, solution.x.real.data], axis=1)),
                MDArray(
                    np.concatenate([np.zeros((limbs, 1)), solution.x.imag.data], axis=1)
                ),
            )
        else:
            denominator_array = MDArray(
                np.concatenate([one, solution.x.data], axis=1)
            )

    # numerator: p = (c * q) truncated at order L
    def _pad_denominator(plane):
        return np.concatenate(
            [plane[:, : L + 1], np.zeros((limbs, max(0, L - M)))], axis=1
        )

    q_padded = map_planes(denominator_array, _pad_denominator)
    numerator_array = linalg.cauchy_product(
        _gather(coefficients, np.arange(L + 1)), q_padded
    )

    # defect: coefficient of t**(L+M+1) in q f - p (p has no such term)
    defect = None
    if series.order >= L + M + 1:
        defect = linalg.convolution_coefficient(
            series.coefficients, denominator_array, L + M + 1
        ).to_multidouble(())

    return PadeApproximant(
        numerator=tuple(numerator_array),
        denominator=tuple(denominator_array),
        precision=prec,
        defect=defect,
        trace=trace,
        numerator_array=numerator_array,
        denominator_array=denominator_array,
    )
