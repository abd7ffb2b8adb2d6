"""Scalar loop-per-monomial evaluation of polynomial systems and
homotopies: the reference for every polynomial identity test.

The vectorized limb-major evaluation of
:class:`~repro.poly.system.PolynomialSystem` is checked, **bit for
bit**, against the loops in this module — the role
:class:`~tests.oracles.series.ScalarSeries` plays for
:class:`~repro.series.truncated.TruncatedSeries`.  Every function here
replays the numeric structure of the vectorized kernels exactly:

* the variable power table is built by the identical iterated
  multiplications ``p_d = p_{d-1} * x_i``;
* every distinct power product gathers one factor per variable
  (exponent zero gathers the exact one) and reduces them with the same
  ones-padded pairwise (binary tree) product as :meth:`MDArray.prod
  <repro.vec.mdarray.MDArray.prod>` /
  :func:`repro.vec.linalg.cauchy_product_reduce` — the padded
  multiplications by one are really executed;
* each equation weights its padded term slots (zero-coefficient slots
  included) in the same operand order and reduces them with the same
  zero-padded :func:`~tests.oracles.series.pairwise_sum` tree as the
  vectorized :meth:`MDArray.sum <repro.vec.mdarray.MDArray.sum>`;
* :func:`reference_homotopy` combines the realified start and target
  residuals with ``gamma`` and ``1 - t`` in the operand order of
  :class:`~repro.poly.homotopy.Homotopy`, reading only its public
  ``start_system``, ``target_system``, ``gamma`` and ``dimension``.

Because scalar :class:`~repro.md.number.MultiDouble` /
:class:`~tests.oracles.series.ScalarSeries` arithmetic and the
vectorized arrays share the generic expansion kernels of
:mod:`repro.md.generic`, matching the operation structure makes the
results identical to the last bit at every paper precision
(``tests/poly/`` enforces d/dd/qd/od).  Nothing here calls
:meth:`PolynomialSystem.evaluate_series
<repro.poly.system.PolynomialSystem.evaluate_series>` or
:func:`repro.vec.linalg.cauchy_product`.

The same replay, run on counting elements, is what
:func:`instrumented_counts` uses to verify the analytic operation
counts of :func:`repro.md.opcounts.polynomial_counts` against the
kernels as executed.
"""

from __future__ import annotations

from repro.md.constants import get_precision
from repro.md.number import MultiDouble

from .series import ScalarSeries, pairwise_sum

__all__ = [
    "pairwise_product",
    "reference_evaluate",
    "reference_jacobian",
    "reference_evaluate_series",
    "reference_homotopy",
    "instrumented_counts",
]


def pairwise_product(values, one):
    """Ones-padded pairwise (binary tree) product.

    The multiplicative twin of
    :func:`~tests.oracles.series.pairwise_sum`, replaying
    :meth:`MDArray.prod <repro.vec.mdarray.MDArray.prod>` /
    :func:`repro.vec.linalg.cauchy_product_reduce` on scalars: halves
    of ``ceil(n/2)`` and ``floor(n/2)`` elements, the shorter second
    half padded with ``one``, multiplied element by element until one
    value remains.
    """
    work = list(values)
    if not work:
        return one
    while len(work) > 1:
        n = len(work)
        half = (n + 1) // 2
        work = [
            work[i] * (work[half + i] if half + i < n else one)
            for i in range(half)
        ]
    return work[0]


def _power_products(system, xs, one):
    """All distinct power products of a system at scalar (or series, or
    counting) elements ``xs`` — the shared pass of evaluation and
    differentiation, replaying the vectorized power table and the
    ones-padded pairwise reduction."""
    max_degree = system.max_degree
    powers = []
    for x in xs:
        row = [one]
        if max_degree >= 1:
            row.append(x)
            power = x
            for _ in range(2, max_degree + 1):
                power = power * x
                row.append(power)
        powers.append(row)
    products = []
    for exponents in system._product_exponents:
        factors = [powers[i][int(exponents[i])] for i in range(len(xs))]
        products.append(pairwise_product(factors, one))
    return products


def _reduce_terms(values_table, index_table, products, convert, zero):
    """Weight one row of padded term slots and reduce them pairwise."""
    terms = [
        convert(values_table[s]) * products[int(index_table[s])]
        for s in range(len(values_table))
    ]
    return pairwise_sum(terms, zero)


def reference_evaluate(system, x, precision=None) -> list:
    """Every equation at a scalar point, one :class:`MultiDouble` each."""
    prec = _resolve_precision(x, precision)
    xs = [MultiDouble(value, prec) for value in x]
    one = MultiDouble(1, prec)
    zero = MultiDouble(0, prec)
    products = _power_products(system, xs, one)
    convert = lambda value: MultiDouble(value, prec)  # noqa: E731
    return [
        _reduce_terms(
            system._term_values[i], system._term_index[i], products, convert, zero
        )
        for i in range(system.equations)
    ]


def reference_jacobian(system, x, precision=None) -> list:
    """The Jacobian at a scalar point as nested ``MultiDouble`` rows,
    reusing the same shared power products as the evaluation."""
    prec = _resolve_precision(x, precision)
    xs = [MultiDouble(value, prec) for value in x]
    one = MultiDouble(1, prec)
    zero = MultiDouble(0, prec)
    products = _power_products(system, xs, one)
    convert = lambda value: MultiDouble(value, prec)  # noqa: E731
    return [
        [
            _reduce_terms(
                system._jacobian_values[i][j],
                system._jacobian_index[i, j],
                products,
                convert,
                zero,
            )
            for j in range(system.variables)
        ]
        for i in range(system.equations)
    ]


def reference_evaluate_series(system, x) -> list:
    """Every equation on :class:`ScalarSeries` arguments.

    The Cauchy products of the power table, the pairwise product
    reduction and the term reduction all run through the scalar series
    arithmetic, whose grids and reduction trees replay
    :func:`repro.vec.linalg.cauchy_product` exactly — so the result is
    bit-identical to
    :meth:`PolynomialSystem.evaluate_series
    <repro.poly.system.PolynomialSystem.evaluate_series>`.  Systems
    with complex coefficients have no scalar-series reference and raise
    :class:`TypeError`.
    """
    if system.complex_coefficients:
        raise TypeError(
            "complex systems have no scalar-series reference evaluator; "
            "the realified homotopy is the cross-check"
        )
    xs = [
        value
        if isinstance(value, ScalarSeries)
        else ScalarSeries([value])
        for value in x
    ]
    prec = xs[0].precision
    order = max(s.order for s in xs)
    xs = [s.pad(order).astype(prec) for s in xs]
    one = ScalarSeries.one(order, prec)
    zero = ScalarSeries.zero(order, prec)
    products = _power_products(system, xs, one)

    def convert(value):
        return _CoefficientWeight(MultiDouble(value, prec))

    return [
        _reduce_terms(
            system._term_values[i], system._term_index[i], products, convert, zero
        )
        for i in range(system.equations)
    ]


def reference_homotopy(homotopy, x, t) -> list:
    """``H(x, t) = gamma (1 - t) G(x) + t F(x)`` of a realified
    :class:`~repro.poly.homotopy.Homotopy` on the ``2n``
    :class:`ScalarSeries` components ``x`` (real parts, then imaginary
    parts): ``gamma`` acts as a rotation mixing the real and imaginary
    equation parts, then each part is convolved with ``1 - t`` and
    ``t``."""
    values = list(x)
    n = homotopy.dimension
    order = max(series.order for series in values)
    t = t.pad(order).truncate(order)
    prec = values[0].precision
    a = MultiDouble(homotopy.gamma.real, prec)
    b = MultiDouble(homotopy.gamma.imag, prec)
    g = reference_evaluate_series(homotopy.start_system, values)
    f = reference_evaluate_series(homotopy.target_system, values)
    s = 1 - t
    out_re, out_im = [], []
    for i in range(n):
        left_re = g[i].scale(a) - g[n + i].scale(b)
        left_im = g[i].scale(b) + g[n + i].scale(a)
        out_re.append(left_re * s + f[i] * t)
        out_im.append(left_im * s + f[n + i] * t)
    return out_re + out_im


class _CoefficientWeight:
    """A scalar coefficient applied to a series in the vectorized
    operand order (coefficient first: ``c * p_k`` per coefficient),
    matching the broadcast weighting launch of the limb-major path."""

    __slots__ = ("value",)

    def __init__(self, value: MultiDouble):
        self.value = value

    def __mul__(self, series: ScalarSeries) -> ScalarSeries:
        return ScalarSeries(
            [self.value * c for c in series.coefficients], series.precision
        )


def _resolve_precision(x, precision):
    if precision is not None:
        return get_precision(precision)
    for value in x:
        if isinstance(value, MultiDouble):
            return value.precision
    return get_precision(2)


# ---------------------------------------------------------------------------
# instrumented counting replay
# ---------------------------------------------------------------------------


class _CountingElement:
    """Structure-only element: every ``*`` and ``+`` bumps a shared
    tally.  Running the reference replay on these elements *measures*
    the multiple double operation counts of the kernels as executed,
    which the tests compare against the analytic
    :func:`repro.md.opcounts.polynomial_counts`."""

    __slots__ = ("tally",)

    def __init__(self, tally):
        self.tally = tally

    def __mul__(self, other):
        self.tally["mul"] += 1
        return _CountingElement(self.tally)

    def __add__(self, other):
        self.tally["add"] += 1
        return _CountingElement(self.tally)


def instrumented_counts(system) -> dict:
    """Measured multiple double operation tallies of one shared-pass
    point evaluation plus Jacobian (the ``combined`` view of
    :meth:`PolynomialSystem.counts
    <repro.poly.system.PolynomialSystem.counts>`), obtained by
    replaying the reference kernels on counting elements."""
    tally = {"mul": 0, "add": 0}
    element = _CountingElement(tally)
    xs = [element for _ in range(system.variables)]
    products = _power_products(system, xs, element)
    convert = lambda value: element  # noqa: E731
    for i in range(system.equations):
        _reduce_terms(
            system._term_values[i], system._term_index[i], products, convert, element
        )
        for j in range(system.variables):
            _reduce_terms(
                system._jacobian_values[i][j],
                system._jacobian_index[i, j],
                products,
                convert,
                element,
            )
    return dict(tally)
