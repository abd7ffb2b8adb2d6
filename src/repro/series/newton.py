"""Newton's method on power series for polynomial systems.

Given a polynomial system ``F(x, t) = 0`` with a known solution ``x_0``
at ``t = 0``, the series solution ``x(t) = x_0 + x_1 t + x_2 t^2 + ...``
is determined order by order: writing ``x^{<k}`` for the partial series
through order ``k - 1``,

    ``F(x^{<k} + x_k t^k, t) = F(x^{<k}, t) + J(x_0) x_k t^k + O(t^{k+1})``

so the coefficient of ``t^k`` yields one linear solve with the
*Jacobian head* ``J(x_0)`` per order — exactly the repeated multiple
double solves of the paper's Section 1.1, where the leading
coefficients must be computed most accurately because roundoff
propagates from each order into all later ones.

:func:`newton_series` is this order-by-order staircase (linear in the
order; the Jacobian head is factored and the diagonal tiles of its
``R`` inverted once, then one triangular substitution per order).  It
runs on a batch of one path over the staircase of the path fleet
(:mod:`repro.batch.fleet`): one batched QR of the Jacobian heads and
one batched tile inversion, then per order the residual columns (one
``residual_fleet`` call on a
:class:`~repro.poly.system.PolynomialSystem` or
:class:`~repro.poly.homotopy.Homotopy`, a per-path loop on a plain
callable), one ``Q^H r`` product and one batched substitution, so the
library holds one series Newton staircase.  Its references are the
test oracles of ``tests/oracles/series.py``: the unbatched staircase
``unbatched_newton_series`` and the scalar loop-per-coefficient
``newton_series``, both **bit-identical** (the cross-checks of
``tests/series/test_newton_oracle.py`` and
``tests/series/test_vectorized_cross.py``, and the baseline of
``benchmarks/bench_series_vectorized.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from ..core.least_squares import resolve_tile_sizes
from ..core.tile_inverse import check_nonsingular
from ..gpu.kernel import KernelTrace
from ..md.constants import get_precision
from ..md.number import ComplexMultiDouble, MultiDouble
from ..obs.profile import profiled
from ..vec.complexmd import MDComplexArray
from ..vec.mdarray import MDArray
from .complexvec import ComplexVectorSeries, coerce_scalar, is_complex_scalar
from .truncated import TruncatedSeries
from .vector import VectorSeries

__all__ = [
    "NewtonSeriesResult",
    "newton_series",
    "resolve_system_arguments",
]

@dataclass
class NewtonSeriesResult:
    """Series solution of a polynomial system with its kernel trace."""

    #: one :class:`TruncatedSeries` per unknown
    series: list
    trace: KernelTrace
    tile_size: int
    bs_tile_size: int
    #: double estimate of ``max_i |F_i(x_0, 0)|`` (how well the supplied
    #: start point satisfies the system at the expansion point)
    head_residual: float
    #: the whole solution as one limb-major coefficient array
    vector: VectorSeries = None

    @property
    def order(self) -> int:
        return self.series[0].order

    @property
    def dimension(self) -> int:
        return len(self.series)

    @property
    def precision(self):
        return self.series[0].precision

    def coefficients(self, k: int) -> list:
        """The order-``k`` coefficient of every component."""
        return [s.coefficient(k) for s in self.series]

    def evaluate(self, point) -> list:
        """Every component's series evaluated at ``point``."""
        return [s.evaluate(point) for s in self.series]


def resolve_system_arguments(system, jacobian, data):
    """Resolve the ``(system, jacobian, start)`` calling conventions.

    The classic convention passes three values — a residual callable, a
    Jacobian callable and the start data.  A
    :class:`~repro.poly.system.PolynomialSystem` or
    :class:`~repro.poly.homotopy.Homotopy` carries its own generated
    Jacobian adapter, so it may be passed **directly** with the start
    data in the second slot (``track_path(homotopy, start)``,
    ``track_paths(homotopy, starts)``, ``newton_series(F, start,
    order)``); this helper shifts the arguments and fills the Jacobian
    in from the object.  Detection is structural (the second positional
    value is not callable and the system provides a callable
    ``jacobian`` attribute), so hand-written callables keep working
    unchanged.
    """
    if data is None and jacobian is not None and not callable(jacobian):
        jacobian, data = None, jacobian
    if jacobian is None:
        jacobian = getattr(system, "jacobian", None)
        if not callable(jacobian):
            raise TypeError(
                "no Jacobian supplied and the system object does not provide "
                "one; pass a jacobian callable or a PolynomialSystem/Homotopy"
            )
    if data is None:
        raise TypeError("a start point is required")
    return system, jacobian, data


def _coerce_start(start, prec, system=None) -> list:
    """Coerce a start point; complex components (``complex`` or
    :class:`ComplexMultiDouble`) mark the whole point — and hence the
    expansion — as complex data.  A system object whose
    ``complex_coefficients`` attribute is true (a complex-coefficient
    :class:`~repro.poly.system.PolynomialSystem`, a complex-backend
    :class:`~repro.poly.homotopy.Homotopy`) promotes even an all-real
    start point to the complex staircase — its residuals are complex
    series regardless of the point."""
    values = list(start)
    force_complex = bool(getattr(system, "complex_coefficients", False))
    if force_complex or any(is_complex_scalar(value) for value in values):
        heads = [
            coerce_scalar(value, prec)
            if is_complex_scalar(value)
            else ComplexMultiDouble(MultiDouble(value, prec), MultiDouble(0, prec))
            for value in values
        ]
    else:
        heads = [MultiDouble(value, prec) for value in values]
    if not heads:
        raise ValueError("the start point must have at least one component")
    return heads


def _check_order(order) -> int:
    """The truncation order as a non-negative ``int`` (``ValueError``
    for a negative, ``bool`` or non-integer value)."""
    if isinstance(order, bool) or not isinstance(order, Integral) or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    return int(order)


def _coerce_jacobian(value, n: int, limbs: int):
    """Accept an MDArray/MDComplexArray, a nested list of scalars, or a
    flat list (complex scalar entries produce a complex matrix)."""
    if isinstance(value, (MDArray, MDComplexArray)):
        matrix = value if value.limbs == limbs else value.astype(limbs)
    else:
        entries = list(value)
        if entries and isinstance(entries[0], (list, tuple)):
            entries = [item for row in entries for item in row]
        if any(is_complex_scalar(e) for e in entries):
            prec = get_precision(limbs)
            matrix = MDComplexArray.from_multidoubles(
                [coerce_scalar(e if is_complex_scalar(e) else complex(e), prec) for e in entries],
                limbs,
            ).reshape(n, n)
        else:
            matrix = MDArray.from_multidoubles(
                [MultiDouble(e, limbs) for e in entries], limbs
            ).reshape(n, n)
    if matrix.shape != (n, n):
        raise ValueError(
            f"the Jacobian must be {n}x{n}, got shape {matrix.shape}"
        )
    return matrix


def _coerce_residual(values, n: int, order: int, prec, series_cls=TruncatedSeries) -> list:
    values = list(values)
    if len(values) != n:
        raise ValueError(
            f"the residual must have {n} components, got {len(values)}"
        )
    out = []
    for value in values:
        if isinstance(value, series_cls):
            out.append(value.pad(order))
        else:
            out.append(series_cls.constant(value, order, prec))
    return out


@profiled("newton_series", trace_of=lambda result: result.trace)
def newton_series(
    system,
    jacobian=None,
    start=None,
    order=None,
    precision=2,
    *,
    tile_size=None,
    bs_tile_size=None,
    device="V100",
) -> NewtonSeriesResult:
    """Power series solution of ``F(x, t) = 0`` around ``t = 0``.

    Parameters
    ----------
    system:
        Callable ``system(x, t) -> residuals`` where ``x`` is a list of
        :class:`TruncatedSeries` (one per unknown) and ``t`` the
        parameter series; it must return one series (or scalar) per
        equation, evaluated with series arithmetic.  A
        :class:`~repro.poly.system.PolynomialSystem` may be passed
        directly — it is its own residual adapter and carries its own
        Jacobian, so ``jacobian`` may then be omitted entirely
        (``newton_series(F, start, order)``).
    jacobian:
        Callable ``jacobian(x0) -> J`` returning the ``n``-by-``n``
        Jacobian of ``F`` with respect to ``x`` at the head point
        (``t = 0``), as an :class:`~repro.vec.mdarray.MDArray` or a
        nested list of scalars.  ``None`` uses the ``jacobian``
        generated by the system object.
    start:
        The solution at ``t = 0`` (one scalar per unknown).
    order:
        Truncation order ``K`` of the series solution, a non-negative
        integer (``ValueError`` otherwise).
    precision:
        Limb count (or precision name) of the computation.
    tile_size, bs_tile_size, device:
        Passed to the QR factorization and the triangular solves (one
        tile inversion, then one substitution per order), as in
        :func:`repro.core.least_squares.lstsq`.

    The expansion is a batch of one path over the path fleet's
    staircase (:mod:`repro.batch.fleet`), so ``system`` is called as the
    fleet calls it: ``residual_fleet`` on a system object, and
    ``system(x, t)`` with the real parameter series
    ``TruncatedSeries.variable(k, prec)`` on a plain callable, also for
    a complex start.  A singular Jacobian head raises
    ``ZeroDivisionError`` (for ``order >= 1``), as the unbatched
    triangular solve does.
    """
    from ..batch.fleet import _newton_staircase, _residual_columns

    if jacobian is not None and not callable(jacobian):
        # called as newton_series(polynomial_system, start, ...): the
        # start point sits in the jacobian slot — shift each *positional*
        # value one slot left (keyword order=/precision= stay put)
        if start is not None:
            if order is not None:
                precision = order
            order = start
        start = jacobian
        jacobian = None
    system, jacobian, start = resolve_system_arguments(system, jacobian, start)
    if order is None:
        raise TypeError("a truncation order is required")
    order = _check_order(order)
    prec = get_precision(precision)
    limbs = prec.limbs
    heads = _coerce_start(start, prec, system)
    complex_data = isinstance(heads[0], ComplexMultiDouble)
    array_cls = MDComplexArray if complex_data else MDArray
    vector_cls = ComplexVectorSeries if complex_data else VectorSeries
    n = len(heads)
    tile_size, bs_tile_size = resolve_tile_sizes(n, tile_size, bs_tile_size)

    head_matrix = _coerce_jacobian(jacobian(list(heads)), n, limbs)

    # one path expanded at t = 0: the fleet's staircase on a batch of one
    solution = array_cls.zeros((1, n, order + 1), limbs)
    solution[0, :, 0] = array_cls.from_multidoubles(heads, limbs)
    # how far the supplied start point is from solving the system at t=0
    head_column = _residual_columns(system, solution[:, :, :1], [0.0], 0, device=device)
    head_residual = max(float(abs(value)) for value in head_column[0])

    trace = KernelTrace(
        device, label=f"newton series dim={n} order={order} {prec.name}"
    )
    uppers = _newton_staircase(
        system,
        head_matrix.reshape(1, n, n),
        solution,
        [0.0],
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        device=device,
        trace=trace,
    )
    if order:
        # the unbatched solves raise on a singular head; a batched
        # slice would only turn non-finite
        check_nonsingular(uppers[0])
    vector = vector_cls.from_mdarray(solution[0])
    return NewtonSeriesResult(
        series=vector.components(),
        trace=trace,
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        head_residual=head_residual,
        vector=vector,
    )
