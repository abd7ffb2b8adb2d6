"""Scalar loop-per-monomial and unbatched vectorized evaluation of
polynomial systems and homotopies: the reference for every polynomial
identity test.

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
(``tests/poly/`` enforces d/dd/qd/od).  Nothing in the scalar replay
calls :meth:`PolynomialSystem.evaluate_series
<repro.poly.system.PolynomialSystem.evaluate_series>` or
:func:`repro.vec.linalg.cauchy_product`.

The same replay, run on counting elements, is what
:func:`instrumented_counts` uses to verify the analytic operation
counts of :func:`repro.md.opcounts.polynomial_counts` against the
kernels as executed.

The library holds one series evaluator, with a leading batch axis; one
series vector and one path of :class:`~repro.poly.homotopy.Homotopy`
are batches of one through it.  :func:`unbatched_evaluate_series`,
:func:`unbatched_jacobian_series` and :func:`unbatched_homotopy` are
its per-path twins on the same vectorized Cauchy kernels, real and
complex (the scalar references above have no complex form): every
batch slice must equal them bit for bit.  They never call the batched
evaluator, and :func:`unbatched_residual` lets the single-path tracker
oracle run a homotopy on them.

A point is an order-0 series for the library: ``evaluate``,
``jacobian_matrix``, ``evaluate_with_jacobian`` and the fleet's
``jacobian_fleet`` run the same evaluator at order 0.  Their twin is
the unbatched point pass (:func:`unbatched_evaluate`,
:func:`unbatched_jacobian_matrix`: plain array products, no Cauchy
kernel, no batch axis), and :func:`unbatched_jacobian` routes the
bound ``jacobian`` of a system object to it, combining a homotopy's
start and target Jacobians with scalar ``MultiDouble`` ``gamma``,
``1 - t`` and ``t`` per path.
"""

from __future__ import annotations

import numpy as np

from repro.md.constants import get_precision
from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.poly.homotopy import Homotopy
from repro.poly.system import PolynomialSystem
from repro.series.complexvec import ComplexTruncatedSeries, ComplexVectorSeries
from repro.series.vector import VectorSeries
from repro.vec import linalg
from repro.vec.complexmd import MDComplexArray, map_planes
from repro.vec.mdarray import MDArray

from .series import ScalarSeries, pairwise_sum

__all__ = [
    "pairwise_product",
    "reference_evaluate",
    "reference_jacobian",
    "reference_evaluate_series",
    "reference_homotopy",
    "unbatched_evaluate_series",
    "unbatched_jacobian_series",
    "unbatched_homotopy",
    "unbatched_residual",
    "unbatched_evaluate",
    "unbatched_jacobian_matrix",
    "unbatched_jacobian",
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
# unbatched vectorized evaluation
# ---------------------------------------------------------------------------


def _series_vector(system, x):
    """``x`` as one (complex) series vector, promoted to complex for a
    complex-coefficient system."""
    if isinstance(x, (VectorSeries, ComplexVectorSeries)):
        vector = x
    else:
        components = list(x)
        if any(isinstance(c, ComplexTruncatedSeries) for c in components):
            vector = ComplexVectorSeries.from_components(components)
        else:
            vector = VectorSeries.from_components(components)
    if system.complex_coefficients and isinstance(vector, VectorSeries):
        vector = ComplexVectorSeries.from_components(vector.components())
    if vector.dimension != system.variables:
        raise ValueError(
            f"expected {system.variables} component series, got {vector.dimension}"
        )
    return vector


def _series_products(system, series_coefficients):
    """All distinct power products on one series vector's limb planes,
    element shape ``(products, K+1)``: the power table of iterated
    Cauchy products, one gather and the ones-padded pairwise product
    reduction, with no batch axis (complex planes stay complex)."""
    limbs = series_coefficients.limbs
    max_degree = system.max_degree
    select = (system._product_exponents, np.arange(system.variables))
    if isinstance(series_coefficients, MDComplexArray):
        _, variables, terms = series_coefficients.real.data.shape
        table_re = np.zeros((limbs, max_degree + 1, variables, terms))
        table_im = np.zeros_like(table_re)
        table_re[0, 0, :, 0] = 1.0  # the exact complex one series
        if max_degree >= 1:
            table_re[:, 1] = series_coefficients.real.data
            table_im[:, 1] = series_coefficients.imag.data
            power = series_coefficients
            for degree in range(2, max_degree + 1):
                power = linalg.cauchy_product(power, series_coefficients)
                table_re[:, degree] = power.real.data
                table_im[:, degree] = power.imag.data
        gathered = MDComplexArray(
            MDArray(table_re[:, select[0], select[1], :]),
            MDArray(table_im[:, select[0], select[1], :]),
        )
        return linalg.cauchy_product_reduce(gathered)
    series_data = series_coefficients.data
    _, variables, terms = series_data.shape
    table = np.zeros((limbs, max_degree + 1, variables, terms))
    table[0, 0, :, 0] = 1.0  # the exact one series
    if max_degree >= 1:
        table[:, 1] = series_data
        power = MDArray(series_data)
        x = MDArray(series_data)
        for degree in range(2, max_degree + 1):
            power = linalg.cauchy_product(power, x)
            table[:, degree] = power.data
    gathered = table[:, select[0], select[1], :]
    return linalg.cauchy_product_reduce(MDArray(gathered))


def _weighted_slots(coefficients, index, products, axis):
    """Gather ``(products, K+1)`` power products through a padded slot
    table, weight by the coefficient table, reduce the slot axis."""
    gathered = map_planes(products, lambda data: data[:, index])
    weights = map_planes(coefficients, lambda data: data[..., None])
    return (weights * gathered).sum(axis=axis)


def unbatched_evaluate_series(system, x):
    """Every equation of ``system`` on one series vector (or component
    list), real or complex: a ``VectorSeries`` /
    ``ComplexVectorSeries`` of dimension ``equations``.  The per-path
    twin of the batched
    :meth:`PolynomialSystem.evaluate_series
    <repro.poly.system.PolynomialSystem.evaluate_series>`."""
    vector = _series_vector(system, x)
    complex_data = isinstance(vector, ComplexVectorSeries)
    products = _series_products(system, vector.coefficients)
    coefficients, _ = system._coefficient_arrays(vector.limbs, complex_data)
    values = _weighted_slots(coefficients, system._term_index, products, 1)
    if complex_data:
        return ComplexVectorSeries(values)
    return VectorSeries(values)


def unbatched_jacobian_series(system, x):
    """The Jacobian ``dF_i/dx_j`` on one series vector as raw limb
    planes of element shape ``(equations, variables, K+1)``."""
    vector = _series_vector(system, x)
    complex_data = isinstance(vector, ComplexVectorSeries)
    products = _series_products(system, vector.coefficients)
    _, jac_coefficients = system._coefficient_arrays(vector.limbs, complex_data)
    return _weighted_slots(jac_coefficients, system._jacobian_index, products, 2)


def unbatched_homotopy(homotopy, x, t) -> list:
    """``H(x, t)`` of a :class:`~repro.poly.homotopy.Homotopy` on one
    path's component series, on either backend, through
    :func:`unbatched_evaluate_series`.

    Realified: ``gamma`` rotates the real and imaginary equation parts,
    then each part is convolved with ``1 - t`` and ``t``.  Native
    complex: ``gamma`` scales the complex start residual, and the four
    real planes ``[left_re, left_im, f_re, f_im]`` are convolved with
    the real ``[1 - t, 1 - t, t, t]`` in one Cauchy product.  ``t`` is
    a real :class:`~repro.series.truncated.TruncatedSeries`.
    """
    values = list(x)
    n = homotopy.dimension
    complex_backend = homotopy.backend == "complex"
    vector_cls = ComplexVectorSeries if complex_backend else VectorSeries
    vector = vector_cls.from_components(values)
    order = vector.order
    prec = vector.precision
    t = t.pad(order).truncate(order)
    s = 1 - t
    g = unbatched_evaluate_series(homotopy.start_system, vector)
    f = unbatched_evaluate_series(homotopy.target_system, vector)
    if complex_backend:
        gamma = ComplexMultiDouble(
            MultiDouble(homotopy.gamma.real, prec),
            MultiDouble(homotopy.gamma.imag, prec),
        )
        left = g.scale(gamma)
        planes = np.concatenate(
            [
                left.coefficients.real.data,
                left.coefficients.imag.data,
                f.coefficients.real.data,
                f.coefficients.imag.data,
            ],
            axis=1,
        )
        shape = (prec.limbs, 2 * n, order + 1)
        factors = np.concatenate(
            [
                np.broadcast_to(s.coefficients.data[:, None, :], shape),
                np.broadcast_to(t.coefficients.data[:, None, :], shape),
            ],
            axis=1,
        )
        product = linalg.cauchy_product(MDArray(planes), MDArray(factors))
        h = MDArray(product.data[:, : 2 * n]) + MDArray(product.data[:, 2 * n :])
        return ComplexVectorSeries(
            MDComplexArray(MDArray(h.data[:, :n]), MDArray(h.data[:, n:]))
        ).components()
    a = MultiDouble(homotopy.gamma.real, prec)
    b = MultiDouble(homotopy.gamma.imag, prec)
    g_re = MDArray(g.coefficients.data[:, :n])
    g_im = MDArray(g.coefficients.data[:, n:])
    f_re = MDArray(f.coefficients.data[:, :n])
    f_im = MDArray(f.coefficients.data[:, n:])
    left_re = g_re * a - g_im * b
    left_im = g_re * b + g_im * a
    s_data = MDArray(np.broadcast_to(s.coefficients.data[:, None, :], g_re.data.shape))
    t_data = MDArray(np.broadcast_to(t.coefficients.data[:, None, :], g_re.data.shape))
    h_re = linalg.cauchy_product(left_re, s_data) + linalg.cauchy_product(f_re, t_data)
    h_im = linalg.cauchy_product(left_im, s_data) + linalg.cauchy_product(f_im, t_data)
    out = np.concatenate([h_re.data, h_im.data], axis=1)
    return VectorSeries(MDArray(out)).components()


def unbatched_residual(system):
    """The residual callable ``residual(x, t)`` of a tracker's system: a
    :class:`~repro.poly.homotopy.Homotopy` evaluates through
    :func:`unbatched_homotopy`; any other callable is returned
    unchanged."""
    if isinstance(system, Homotopy):
        return lambda x, t: unbatched_homotopy(system, x, t)
    return system


# ---------------------------------------------------------------------------
# unbatched point evaluation
# ---------------------------------------------------------------------------


def _point_products(system, point):
    """All distinct power products at a point, shape ``(products,)``:
    one multiplication per power level, one gather and one ones-padded
    pairwise product reduction over the variables axis, with no batch
    axis and no Cauchy product (complex points run the same structure
    on separated real/imaginary planes)."""
    m = point.limbs
    max_degree = system.max_degree
    select = (system._product_exponents, np.arange(system.variables))
    if isinstance(point, MDComplexArray):
        table_re = np.zeros((m, max_degree + 1, system.variables))
        table_im = np.zeros_like(table_re)
        table_re[0, 0, :] = 1.0  # the exact complex one
        if max_degree >= 1:
            table_re[:, 1, :] = point.real.data
            table_im[:, 1, :] = point.imag.data
            power = point
            for degree in range(2, max_degree + 1):
                power = power * point
                table_re[:, degree, :] = power.real.data
                table_im[:, degree, :] = power.imag.data
        gathered = MDComplexArray(
            MDArray(table_re[:, select[0], select[1]]),
            MDArray(table_im[:, select[0], select[1]]),
        )
        return gathered.prod(axis=1)
    table = np.zeros((m, max_degree + 1, system.variables))
    table[0, 0, :] = 1.0
    if max_degree >= 1:
        table[:, 1, :] = point.data
        power = point
        for degree in range(2, max_degree + 1):
            power = power * point
            table[:, degree, :] = power.data
    return MDArray(table[:, select[0], select[1]]).prod(axis=1)


def _point_pass(system, x, precision, slots):
    """Weight the power products at a point through one padded slot
    table (``"terms"`` or ``"jacobian"``) and reduce the slot axis."""
    point = system._coerce_point(x, precision)
    products = _point_products(system, point)
    complex_data = isinstance(point, MDComplexArray)
    values, jacobian_values = system._coefficient_arrays(point.limbs, complex_data)
    if slots == "terms":
        coefficients, index = values, system._term_index
    else:
        coefficients, index = jacobian_values, system._jacobian_index
    gathered = map_planes(products, lambda data: data[:, index])
    return (coefficients * gathered).sum(axis=index.ndim - 1)


def unbatched_evaluate(system, x, precision=None):
    """Every equation of ``system`` at one point, real or complex, shape
    ``(equations,)``: the twin of
    :meth:`PolynomialSystem.evaluate
    <repro.poly.system.PolynomialSystem.evaluate>`, which runs the
    batched series pass at order 0."""
    return _point_pass(system, x, precision, "terms")


def unbatched_jacobian_matrix(system, x, precision=None):
    """The Jacobian ``dF_i/dx_j`` of ``system`` at one point, shape
    ``(equations, variables)``: the twin of
    :meth:`PolynomialSystem.jacobian_matrix
    <repro.poly.system.PolynomialSystem.jacobian_matrix>`."""
    return _point_pass(system, x, precision, "jacobian")


def _system_jacobian(system, x0, t0=None):
    """``PolynomialSystem.jacobian`` on the unbatched point pass."""
    values = list(x0)
    if len(values) + 1 == system.variables:
        values = values + [0 if t0 is None else t0]
        return unbatched_jacobian_matrix(system, values)[:, :-1]
    return unbatched_jacobian_matrix(system, values)


def _homotopy_jacobian(homotopy, x0, t0=0.0):
    """``dH/dx`` of a :class:`~repro.poly.homotopy.Homotopy` at one point
    on either backend: the unbatched start and target Jacobians
    combined with scalar ``MultiDouble`` ``gamma``, ``1 - t`` and ``t``
    in the operand order of the library's plane core."""
    n = homotopy.dimension
    point = homotopy.target_system._coerce_point(x0)
    if homotopy.backend == "complex" and not isinstance(point, MDComplexArray):
        point = MDComplexArray(point, MDArray.zeros(point.shape, point.limbs))
    prec = point.precision
    jg = unbatched_jacobian_matrix(homotopy.start_system, point)
    jf = unbatched_jacobian_matrix(homotopy.target_system, point)
    t_md = MultiDouble(t0, prec)
    s_md = MultiDouble(1, prec) - t_md
    a_s = MultiDouble(homotopy.gamma.real, prec) * s_md
    b_s = MultiDouble(homotopy.gamma.imag, prec) * s_md
    if homotopy.backend == "complex":
        return jg * ComplexMultiDouble(a_s, b_s) + jf * t_md
    top = jg[:n] * a_s - jg[n:] * b_s + jf[:n] * t_md
    bottom = jg[:n] * b_s + jg[n:] * a_s + jf[n:] * t_md
    return MDArray(np.concatenate([top.data, bottom.data], axis=1))


def unbatched_jacobian(jacobian):
    """The Jacobian callable ``jacobian(x0, t0)`` of a tracker: the bound
    ``jacobian`` of a :class:`~repro.poly.homotopy.Homotopy` or a
    :class:`~repro.poly.system.PolynomialSystem` evaluates through
    :func:`unbatched_jacobian_matrix` (the homotopy's start and target
    Jacobians combined per path); any other callable is returned
    unchanged."""
    owner = getattr(jacobian, "__self__", None)
    if isinstance(owner, Homotopy) and jacobian == owner.jacobian:
        return lambda x0, t0=0.0: _homotopy_jacobian(owner, x0, t0)
    if isinstance(owner, PolynomialSystem) and jacobian == owner.jacobian:
        return lambda x0, t0=None: _system_jacobian(owner, x0, t0)
    return jacobian


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
