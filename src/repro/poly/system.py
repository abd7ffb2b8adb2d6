"""Polynomial systems over monomial supports, vectorized limb-major.

The paper's workload is Newton's method for Taylor-series solutions of
*polynomial homotopies*; this module supplies the missing first-class
input object.  A :class:`PolynomialSystem` stores a system of ``n_e``
polynomial equations in ``n_v`` variables by its monomial support:

* one table of **distinct power products** ``x^a`` shared by all
  equations *and all partial derivatives* — the exponent vectors are
  collected once at construction, so every power product is computed
  exactly once per evaluation and reused everywhere (the
  arithmetic-circuit style evaluation the paper's Section on polynomial
  evaluation and differentiation is built on);
* per-equation padded term tables (power-product index + multiple
  double coefficient) for the values, and per-entry tables for the
  Jacobian (coefficient times exponent, derivative power-product
  index).

Evaluation is fully vectorized on the limb-major
:class:`~repro.vec.mdarray.MDArray` layout: the variable power table is
built level by level (one batched multiplication per degree), the
power products are reduced with a ones-padded pairwise (binary tree)
product (:func:`repro.vec.linalg.cauchy_product_reduce`, the tree of
:meth:`MDArray.prod <repro.vec.mdarray.MDArray.prod>`), and each
equation is one coefficient weighting plus a zero-padded pairwise term
reduction — a handful of vectorized limb launches regardless of how
many monomials the system carries.  Every multiplication is a batched
Cauchy product through :func:`repro.vec.linalg.cauchy_product`, which
is what lets a
``PolynomialSystem`` be handed **directly** to
:func:`repro.series.newton.newton_series`,
:func:`repro.series.tracker.track_path` and the batched
:func:`repro.batch.fleet.track_paths` fleet (they generate the
residual/Jacobian adapters from the object).  There is one
power-product pass, the series evaluator, and it carries a leading
batch axis: the fleet hands it every path's series at once
(:meth:`PolynomialSystem.residual_fleet`) and every path's head at
once (:meth:`PolynomialSystem.jacobian_fleet`), and one series vector
is a batch of one through the same code.  A point is an order-0 series:
:meth:`~PolynomialSystem.evaluate`,
:meth:`~PolynomialSystem.jacobian_matrix` and
:meth:`~PolynomialSystem.evaluate_with_jacobian` run the pass on a
batch of one with one coefficient per series, where every Cauchy
product is the elementwise product.

The scalar loop-per-monomial test oracle (``tests/oracles/poly.py``)
replays the identical power table, product trees and term reductions on
:class:`~repro.md.number.MultiDouble` and scalar-series elements, and
is **bit-identical** to this vectorized path at every paper precision —
the same contract its scalar series (``tests/oracles/series.py``) hold
against :class:`~repro.series.truncated.TruncatedSeries`.  The same
module keeps the unbatched vectorized series evaluator and the
unbatched point pass, real and complex, which every batch slice must
equal bit for bit.  Operation
counts live in :func:`repro.md.opcounts.polynomial_counts`; the
analytic launch trace in
:func:`repro.perf.costmodel.polynomial_evaluation_trace` (which the
numeric path itself records through, keeping the two launch-identical).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..gpu.kernel import KernelTrace
from ..md.constants import get_precision
from ..md.number import ComplexMultiDouble, MultiDouble
from ..md.opcounts import polynomial_counts
from ..obs.events import get_recorder
from ..obs.profile import attach_trace, profiled
from ..vec import linalg
from ..vec.complexmd import MDComplexArray, map_planes
from ..vec.mdarray import MDArray

__all__ = ["PolynomialSystem"]

#: Scalar coefficient types accepted in term lists (complex
#: coefficients make the system a native complex one — no symbolic
#: realification required).
_COEFFICIENT_TYPES = (int, float, complex, Fraction, str, MultiDouble, ComplexMultiDouble)

#: Coefficient/point scalar types that mark data as complex.
_COMPLEX_SCALARS = (complex, ComplexMultiDouble)


def _coefficient_parts(coefficient):
    """Split a coefficient into (real, imaginary) scalars usable by
    :class:`MultiDouble` — the separated-plane storage of complex
    coefficients."""
    if isinstance(coefficient, ComplexMultiDouble):
        return coefficient.real, coefficient.imag
    if isinstance(coefficient, complex):
        return coefficient.real, coefficient.imag
    return coefficient, 0


def _normalize_exponents(exponents, variables):
    """Coerce a term's exponents to a tuple of ``variables`` ints."""
    if isinstance(exponents, dict):
        out = [0] * variables
        for index, power in exponents.items():
            out[int(index)] = int(power)
        exponents = out
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != variables:
        raise ValueError(
            f"expected {variables} exponents per monomial, got {len(exponents)}"
        )
    if any(e < 0 for e in exponents):
        raise ValueError("monomial exponents must be nonnegative")
    return exponents


def _merge_terms(terms, variables):
    """Collect like monomials (coefficients added exactly when both are
    rational) into a deterministic graded-lexicographic term order."""
    merged = {}
    for coefficient, exponents in terms:
        exponents = _normalize_exponents(exponents, variables)
        if exponents in merged:
            merged[exponents] = merged[exponents] + coefficient
        else:
            merged[exponents] = coefficient
    ordered = sorted(merged, key=lambda e: (-sum(e), tuple(-x for x in e)))
    return [(merged[e], e) for e in ordered if _nonzero(merged[e])]


def _nonzero(coefficient) -> bool:
    if isinstance(coefficient, MultiDouble):
        return coefficient.to_fraction() != 0
    if isinstance(coefficient, ComplexMultiDouble):
        return (
            coefficient.real.to_fraction() != 0
            or coefficient.imag.to_fraction() != 0
        )
    return coefficient != 0


class PolynomialSystem:
    """A polynomial system stored by its (shared) monomial support."""

    def __init__(self, terms, variables=None):
        """Build from per-equation term lists.

        Parameters
        ----------
        terms:
            One list per equation of ``(coefficient, exponents)`` pairs,
            where ``exponents`` is a length-``variables`` sequence of
            nonnegative ints (or a ``{variable index: exponent}`` dict).
            Like monomials are merged; term order is canonicalized
            (graded lexicographic), which is part of the bit-identity
            contract with the reference evaluator.
        variables:
            Number of variables; inferred from the first exponent
            sequence when omitted.
        """
        equations = [list(eq) for eq in terms]
        if not equations:
            raise ValueError("a polynomial system needs at least one equation")
        if variables is None:
            for eq in equations:
                for _, exponents in eq:
                    if isinstance(exponents, dict):
                        continue
                    variables = len(tuple(exponents))
                    break
                if variables is not None:
                    break
            if variables is None:
                raise ValueError(
                    "pass variables= explicitly when every exponent is a dict"
                )
        variables = int(variables)
        if variables < 1:
            raise ValueError("a polynomial system needs at least one variable")
        self._variables = variables
        self._terms = [_merge_terms(eq, variables) for eq in equations]
        if any(not eq for eq in self._terms):
            raise ValueError("every equation needs at least one nonzero term")
        #: whether any coefficient is complex (native complex system)
        self._complex_coefficients = any(
            isinstance(coefficient, _COMPLEX_SCALARS)
            for eq in self._terms
            for coefficient, _ in eq
        )
        self._build_tables()
        #: per-(precision, kind) cache of the coefficient arrays
        self._coefficient_cache = {}

    # ------------------------------------------------------------------
    # support tables
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        variables = self._variables
        zero = (0,) * variables
        support = {zero}
        for eq in self._terms:
            for _, exponents in eq:
                support.add(exponents)
                for j in range(variables):
                    if exponents[j] > 0:
                        lowered = list(exponents)
                        lowered[j] -= 1
                        support.add(tuple(lowered))
        ordered = sorted(support)
        self._product_exponents = np.array(ordered, dtype=np.int64)
        index_of = {exponents: i for i, exponents in enumerate(ordered)}
        self._max_degree = int(self._product_exponents.max()) if ordered else 0

        # evaluation term tables, padded to the widest equation with
        # (zero coefficient, power product 1) slots — the padded
        # multiplications and additions are really executed, and the
        # reference evaluator replays them
        term_slots = max(len(eq) for eq in self._terms)
        n_eq = len(self._terms)
        self._term_slots = term_slots
        self._term_index = np.zeros((n_eq, term_slots), dtype=np.int64)
        self._term_values = [[0] * term_slots for _ in range(n_eq)]
        for i, eq in enumerate(self._terms):
            for s, (coefficient, exponents) in enumerate(eq):
                self._term_index[i, s] = index_of[exponents]
                self._term_values[i][s] = coefficient

        # Jacobian tables: entry (i, j) holds the terms of dF_i/dx_j
        jac_terms = [
            [[] for _ in range(variables)] for _ in range(n_eq)
        ]
        for i, eq in enumerate(self._terms):
            for coefficient, exponents in eq:
                for j in range(variables):
                    if exponents[j] == 0:
                        continue
                    lowered = list(exponents)
                    lowered[j] -= 1
                    jac_terms[i][j].append(
                        (_scale_coefficient(coefficient, exponents[j]), tuple(lowered))
                    )
        jacobian_slots = max(
            (len(entry) for row in jac_terms for entry in row), default=0
        )
        jacobian_slots = max(jacobian_slots, 1)
        self._jacobian_slots = jacobian_slots
        self._jacobian_index = np.zeros(
            (n_eq, variables, jacobian_slots), dtype=np.int64
        )
        self._jacobian_values = [
            [[0] * jacobian_slots for _ in range(variables)] for _ in range(n_eq)
        ]
        for i in range(n_eq):
            for j in range(variables):
                for s, (coefficient, exponents) in enumerate(jac_terms[i][j]):
                    self._jacobian_index[i, j, s] = index_of[exponents]
                    self._jacobian_values[i][j][s] = coefficient

    def _coefficient_arrays(self, limbs: int, complex_data: bool = False):
        """The evaluation and Jacobian coefficient arrays at a precision
        (each scalar rounded once, cached per precision and kind).

        With ``complex_data=True`` the arrays are
        :class:`MDComplexArray` values (real coefficients get exact
        zero imaginary planes) so evaluation runs natively complex.
        """
        complex_data = bool(complex_data or self._complex_coefficients)
        key = (limbs, complex_data)
        if key not in self._coefficient_cache:
            prec = get_precision(limbs)
            n_eq, t_slots = len(self._terms), self._term_slots
            planes = 2 if complex_data else 1
            data = np.zeros((planes, prec.limbs, n_eq, t_slots))
            for i in range(n_eq):
                for s in range(t_slots):
                    re, im = _coefficient_parts(self._term_values[i][s])
                    data[0, :, i, s] = MultiDouble(re, prec).limbs
                    if complex_data:
                        data[1, :, i, s] = MultiDouble(im, prec).limbs
            jac = np.zeros(
                (planes, prec.limbs, n_eq, self._variables, self._jacobian_slots)
            )
            for i in range(n_eq):
                for j in range(self._variables):
                    for s in range(self._jacobian_slots):
                        re, im = _coefficient_parts(self._jacobian_values[i][j][s])
                        jac[0, :, i, j, s] = MultiDouble(re, prec).limbs
                        if complex_data:
                            jac[1, :, i, j, s] = MultiDouble(im, prec).limbs
            if complex_data:
                self._coefficient_cache[key] = (
                    MDComplexArray(MDArray(data[0]), MDArray(data[1])),
                    MDComplexArray(MDArray(jac[0]), MDArray(jac[1])),
                )
            else:
                self._coefficient_cache[key] = (MDArray(data[0]), MDArray(jac[0]))
        return self._coefficient_cache[key]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def equations(self) -> int:
        return len(self._terms)

    @property
    def variables(self) -> int:
        return self._variables

    @property
    def complex_coefficients(self) -> bool:
        """Whether any coefficient is complex (the system then
        evaluates natively complex even at real points, and the series
        drivers promote real start points to the complex staircase)."""
        return self._complex_coefficients

    @property
    def dimension(self) -> int:
        """Alias for :attr:`variables` (square systems)."""
        return self._variables

    @property
    def terms(self) -> list:
        """The canonical per-equation term lists (coefficient, exponents)."""
        return [list(eq) for eq in self._terms]

    @property
    def monomials(self) -> int:
        """Monomials actually present across the equations."""
        return sum(len(eq) for eq in self._terms)

    @property
    def distinct_products(self) -> int:
        """Distinct power products shared across equations and
        derivatives (including the constant product ``1``)."""
        return int(self._product_exponents.shape[0])

    @property
    def max_degree(self) -> int:
        """Highest single-variable exponent (depth of the power table)."""
        return self._max_degree

    @property
    def degrees(self) -> tuple:
        """Total degree of every equation (the Bézout numbers of the
        total-degree homotopy)."""
        return tuple(
            max(sum(exponents) for _, exponents in eq) for eq in self._terms
        )

    @property
    def total_degree(self) -> int:
        """Product of the equation degrees (the Bézout path count)."""
        total = 1
        for degree in self.degrees:
            total *= max(degree, 1)
        return total

    @property
    def shape(self) -> dict:
        """Problem-shape metadata (benchmark records, repr)."""
        return {
            "equations": self.equations,
            "n": self.variables,
            "degree": max(self.degrees),
            "monomials": self.monomials,
            "products": self.distinct_products,
        }

    def counts(self, order: int = 0, complex_data: bool = False, batch: int = 1):
        """Operation counts of one evaluation/differentiation at a
        truncation order (see :func:`repro.md.opcounts.polynomial_counts`);
        a complex-coefficient system always counts complex.  With
        ``batch > 1`` the counts describe one fleet-wide batched pass:
        operations scale by the batch, launches stay flat."""
        return polynomial_counts(
            self.equations,
            self.variables,
            monomials=self.monomials,
            products=self.distinct_products,
            max_degree=self.max_degree,
            term_slots=self._term_slots,
            jacobian_slots=self._jacobian_slots,
            order=order,
            complex_data=bool(complex_data or self._complex_coefficients),
            batch=batch,
        )

    # ------------------------------------------------------------------
    # point evaluation (an order-0 batch of one through the series pass)
    # ------------------------------------------------------------------
    def _coerce_point(self, x, precision=None):
        if isinstance(x, (MDArray, MDComplexArray)):
            point = x if precision is None else x.astype(precision)
        else:
            values = list(x)
            prec = get_precision(
                precision
                if precision is not None
                else next(
                    (
                        v.precision
                        for v in values
                        if isinstance(v, (MultiDouble, ComplexMultiDouble))
                    ),
                    2,
                )
            )
            if any(isinstance(v, _COMPLEX_SCALARS) for v in values):
                point = MDComplexArray.from_multidoubles(
                    [
                        v
                        if isinstance(v, ComplexMultiDouble)
                        else ComplexMultiDouble(
                            MultiDouble(v.real, prec) if isinstance(v, complex) else MultiDouble(v, prec),
                            MultiDouble(v.imag, prec) if isinstance(v, complex) else MultiDouble(0, prec),
                        )
                        for v in values
                    ],
                    prec.limbs,
                )
            else:
                point = MDArray.from_multidoubles(
                    [MultiDouble(v, prec) for v in values], prec.limbs
                )
        if self._complex_coefficients and not isinstance(point, MDComplexArray):
            # a complex-coefficient system evaluates complex even at a
            # real point — promote with an exact zero imaginary plane
            point = MDComplexArray(point, MDArray.zeros(point.shape, point.limbs))
        if point.shape != (self._variables,):
            raise ValueError(
                f"expected a point with {self._variables} components, "
                f"got shape {point.shape}"
            )
        return point

    def _point_pass(self, x, precision, trace, device, *, evaluate, jacobian):
        """The order-0 series pass at one point: the coerced point is
        viewed as planes of element shape ``(1, variables, 1)``, and
        slice 0 of the values (``(equations,)``) and of the Jacobian
        (``(equations, variables)``) comes back, ``None`` for the one
        not asked for."""
        point = self._coerce_point(x, precision)
        planes = map_planes(point, lambda data: data[:, None, :, None])
        return [
            None if result is None else map_planes(result, lambda data: data[:, 0, ..., 0])
            for result in self._series_pass(
                planes, evaluate=evaluate, jacobian=jacobian, trace=trace, device=device
            )
        ]

    @profiled("poly_eval")
    def evaluate(self, x, precision=None, *, trace=None, device="V100") -> MDArray:
        """Evaluate every equation at a point, shape ``(equations,)``.

        ``x`` is an :class:`MDArray` of shape ``(variables,)`` or a
        sequence of scalars.  With ``trace`` given, the kernel launches
        are recorded through
        :func:`repro.perf.costmodel.polynomial_evaluation_trace` (the
        shared launch structure of the numeric and analytic paths).
        """
        values, _ = self._point_pass(
            x, precision, trace, device, evaluate=True, jacobian=False
        )
        return values

    @profiled("poly_jacobian")
    def jacobian_matrix(
        self, x, precision=None, *, trace=None, device="V100"
    ) -> MDArray:
        """The Jacobian ``dF_i/dx_j`` at a point, shape
        ``(equations, variables)``."""
        _, matrix = self._point_pass(
            x, precision, trace, device, evaluate=False, jacobian=True
        )
        return matrix

    @profiled("poly_eval_jacobian")
    def evaluate_with_jacobian(
        self, x, precision=None, *, trace=None, device="V100"
    ) -> tuple:
        """Values and Jacobian from **one** shared power-product pass —
        the payoff of the shared-monomial tables."""
        values, matrix = self._point_pass(
            x, precision, trace, device, evaluate=True, jacobian=True
        )
        return values, matrix

    def jacobian(self, x0, t0=None) -> MDArray:
        """Tracker-facing Jacobian adapter ``jacobian(x0[, t0])``.

        Mirrors :meth:`__call__`: when the system carries one more
        variable than unknowns, the continuation parameter ``t0``
        (default 0, the expansion point of
        :func:`~repro.series.newton.newton_series`) fills the last
        variable and the returned Jacobian is restricted to the
        unknown columns; otherwise ``t0`` is ignored — the system does
        not depend on the parameter.  Either way the object can be
        handed to :func:`~repro.series.tracker.track_path` /
        :func:`~repro.batch.fleet.track_paths` directly; handed this
        bound method, the fleet calls :meth:`jacobian_fleet` instead,
        which runs the same order-0 pass over a whole sub-batch.
        """
        values = list(x0)
        if len(values) + 1 == self._variables:
            values = values + [0 if t0 is None else t0]
            return self.jacobian_matrix(values)[:, :-1]
        return self.jacobian_matrix(values)

    # ------------------------------------------------------------------
    # vectorized truncated-series evaluation (batched; one series vector
    # is a batch of one)
    # ------------------------------------------------------------------
    def _series_planes(self, x):
        """The batched limb planes of a series argument, element shape
        ``(b, variables, K+1)``, and whether ``x`` was one series vector.

        Raw planes pass through; a series vector (or component list) is
        viewed with a leading batch axis of one.  A complex-coefficient
        system promotes real arguments with exact zero imaginary planes.
        """
        from ..series.complexvec import ComplexTruncatedSeries, ComplexVectorSeries
        from ..series.vector import VectorSeries

        single = not (isinstance(x, (MDArray, MDComplexArray)) and x.ndim == 3)
        if single:
            if not isinstance(x, (VectorSeries, ComplexVectorSeries)):
                components = list(x)
                if any(isinstance(c, ComplexTruncatedSeries) for c in components):
                    x = ComplexVectorSeries.from_components(components)
                else:
                    x = VectorSeries.from_components(components)
            if x.dimension != self._variables:
                raise ValueError(
                    f"expected {self._variables} component series, got {x.dimension}"
                )
            planes = map_planes(x.coefficients, lambda data: data[:, None])
        else:
            planes = x
            if planes.shape[1] != self._variables:
                raise ValueError(
                    f"expected batched planes over {self._variables} variables, "
                    f"got {planes.shape[1]}"
                )
        if self._complex_coefficients and not isinstance(planes, MDComplexArray):
            planes = MDComplexArray(planes, MDArray.zeros(planes.shape, planes.limbs))
        return planes, single

    def _series_products(self, series_coefficients, limbs: int):
        """Power products over a leading batch axis, element shape
        ``(b, variables, K+1)`` in, ``(b, products, K+1)`` out.

        One shared power table (one batched Cauchy product per degree)
        serves the whole batch, then one gather and one ones-padded
        pairwise product reduction over the variables axis.  Batch
        slices never mix: the limb kernels are elementwise over leading
        axes and the reduction trees have a fixed shape, so slice ``p``
        does not depend on its batch mates.
        """
        if isinstance(series_coefficients, MDComplexArray):
            _, batch, variables, terms = series_coefficients.real.data.shape
            table_re = np.zeros(
                (limbs, batch, self._max_degree + 1, variables, terms)
            )
            table_im = np.zeros_like(table_re)
            table_re[0, :, 0, :, 0] = 1.0  # the exact complex one series
            if self._max_degree >= 1:
                table_re[:, :, 1] = series_coefficients.real.data
                table_im[:, :, 1] = series_coefficients.imag.data
                power = series_coefficients
                for degree in range(2, self._max_degree + 1):
                    power = linalg.cauchy_product(power, series_coefficients)
                    table_re[:, :, degree] = power.real.data
                    table_im[:, :, degree] = power.imag.data
            select = (self._product_exponents, np.arange(self._variables))
            gathered = MDComplexArray(
                MDArray(table_re[:, :, select[0], select[1], :]),
                MDArray(table_im[:, :, select[0], select[1], :]),
            )
            return linalg.cauchy_product_reduce(gathered)
        series_data = series_coefficients.data
        m, batch, variables, terms = series_data.shape
        table = np.zeros((limbs, batch, self._max_degree + 1, variables, terms))
        table[0, :, 0, :, 0] = 1.0  # the exact one series
        if self._max_degree >= 1:
            table[:, :, 1] = series_data
            power = MDArray(series_data)
            x = MDArray(series_data)
            for degree in range(2, self._max_degree + 1):
                power = linalg.cauchy_product(power, x)
                table[:, :, degree] = power.data
        gathered = table[
            :, :, self._product_exponents, np.arange(self._variables), :
        ]
        return linalg.cauchy_product_reduce(MDArray(gathered))

    @staticmethod
    def _reduce_series_slots(coefficients, index, products):
        """Gather the ``(b, products, K+1)`` power products through a
        padded slot table, weight each slot by its coefficient and
        reduce the slot axis pairwise: the term pass (``index`` of shape
        ``(equations, slots)``) and the Jacobian pass (``(equations,
        variables, slots)``) of the series evaluator."""
        gathered = map_planes(products, lambda data: data[:, :, index])
        weights = map_planes(coefficients, lambda data: data[:, None, ..., None])
        return (weights * gathered).sum(axis=index.ndim)

    def _series_pass(self, planes, *, evaluate, jacobian, trace, device):
        """The one shared power-product pass, on batched planes of
        element shape ``(b, variables, K+1)``: the values (element shape
        ``(b, equations, K+1)``) if ``evaluate``, the Jacobian
        (``(b, equations, variables, K+1)``) if ``jacobian``, ``None``
        for the one not asked for.  The launches of the pass are
        recorded into ``trace`` once.  Point evaluation runs it at
        order 0 on a batch of one."""
        batch, _, terms = planes.shape
        limbs = planes.limbs
        complex_data = isinstance(planes, MDComplexArray)
        products = self._series_products(planes, limbs)
        results = [
            self._reduce_series_slots(coefficients, index, products) if wanted else None
            for wanted, coefficients, index in zip(
                (evaluate, jacobian),
                self._coefficient_arrays(limbs, complex_data),
                (self._term_index, self._jacobian_index),
            )
        ]
        if trace is not None:
            self._record_trace(
                trace,
                limbs,
                device,
                evaluate=evaluate,
                jacobian=jacobian,
                order=terms - 1,
                complex_data=complex_data,
                batch=batch,
            )
        return results

    def evaluate_series(self, x, *, trace=None, device="V100"):
        """Telemetry shim over :meth:`_evaluate_series_impl`.

        With a recorder active, the evaluation runs under a
        ``poly_eval_series`` stage span; when the caller shares no
        trace, a probe :class:`~repro.gpu.kernel.KernelTrace` is
        recorded into so the span still carries the analytic kernel
        cost of the pass (the probe never leaves this frame, and the
        arithmetic is identical either way).
        """
        recorder = get_recorder()
        if not recorder.enabled:
            return self._evaluate_series_impl(x, trace=trace, device=device)
        probe = trace if trace is not None else KernelTrace(device, label="poly series evaluation")
        already = len(probe.launches) if trace is not None else 0
        with recorder.span("poly_eval_series") as span:
            result = self._evaluate_series_impl(x, trace=probe, device=device)
            attach_trace(span, probe, start=already)
        return result

    def _evaluate_series_impl(self, x, *, trace=None, device="V100"):
        """Evaluate on a system of truncated power series.

        ``x`` is a :class:`~repro.series.vector.VectorSeries` (or a
        sequence of :class:`~repro.series.truncated.TruncatedSeries`) of
        dimension ``variables``; the result is a ``VectorSeries`` of
        dimension ``equations`` at the same truncation order.  Every
        multiplication is a batched Cauchy product, so the launch count
        is independent of the monomial count and linear only in
        ``log2`` of the variables and term slots.

        A :class:`~repro.series.complexvec.ComplexVectorSeries` (or
        complex component series) evaluates **natively complex** on the
        separated-plane kernels and returns a ``ComplexVectorSeries``;
        a complex-coefficient system promotes real arguments the same
        way — no symbolic realification anywhere.

        An :class:`MDArray` / :class:`MDComplexArray` of element shape
        ``(b, variables, K+1)`` — raw limb planes with a **leading
        batch axis**, the path fleet's operand — returns raw planes of
        element shape ``(b, equations, K+1)``: one shared power table
        serves the whole batch, so the launch count is flat in ``b``.
        A series vector is a batch of one through the same code.
        """
        from ..series.complexvec import ComplexVectorSeries
        from ..series.vector import VectorSeries

        planes, single = self._series_planes(x)
        values, _ = self._series_pass(
            planes, evaluate=True, jacobian=False, trace=trace, device=device
        )
        if not single:
            return values
        values = map_planes(values, lambda data: data[:, 0])
        if isinstance(values, MDComplexArray):
            return ComplexVectorSeries(values)
        return VectorSeries(values)

    def jacobian_series(self, x, *, trace=None, device="V100"):
        """Telemetry shim over :meth:`_jacobian_series_impl` — the
        series-argument Jacobian of one series vector or of batched
        planes (see :meth:`evaluate_series` for the span/probe
        mechanics)."""
        recorder = get_recorder()
        if not recorder.enabled:
            return self._jacobian_series_impl(x, trace=trace, device=device)
        probe = trace if trace is not None else KernelTrace(
            device, label="poly series jacobian"
        )
        already = len(probe.launches) if trace is not None else 0
        with recorder.span("poly_jacobian_series") as span:
            result = self._jacobian_series_impl(x, trace=probe, device=device)
            attach_trace(span, probe, start=already)
        return result

    def _jacobian_series_impl(self, x, *, trace=None, device="V100"):
        """The Jacobian ``dF_i/dx_j`` on truncated-series arguments.

        Accepts the same arguments as :meth:`evaluate_series` and
        returns **raw limb planes**: element shape ``(equations,
        variables, K+1)`` for one series vector, ``(b, equations,
        variables, K+1)`` for batched ``(b, variables, K+1)`` input —
        both from the power-product pass of the evaluation.
        """
        planes, single = self._series_planes(x)
        _, matrices = self._series_pass(
            planes, evaluate=False, jacobian=True, trace=trace, device=device
        )
        return map_planes(matrices, lambda data: data[:, 0]) if single else matrices

    def residual_fleet(self, coefficients, t_heads, *, trace=None, device="V100"):
        """Fleet-wide batched residual evaluation for the path fleet
        (:func:`repro.batch.fleet.track_paths`).

        ``coefficients`` holds every path's unknown series as raw limb
        planes of element shape ``(b, n, K+1)``; ``t_heads`` gives the
        per-path expansion points of the continuation parameter (one
        per path, ``ValueError`` otherwise), consumed only when the
        system carries the parameter as one extra trailing variable
        (``variables == n + 1`` — the parametric form :meth:`__call__`
        supports); a square system ignores them.  Returns the
        evaluation planes, element shape ``(b, equations, K+1)``, with
        slice ``p`` bit-identical to ``self(x_p, t_p + s)`` on path
        ``p``'s own series.
        """
        batch, unknowns, terms = coefficients.shape
        if unknowns + 1 == self._variables:
            t_planes = _parameter_planes(
                t_heads, batch, terms - 1, get_precision(coefficients.limbs)
            )
            coefficients = _append_variable(coefficients, t_planes)
        return self.evaluate_series(coefficients, trace=trace, device=device)

    def jacobian_fleet(self, heads, t_heads):
        """Fleet-wide Jacobians at the heads of a sub-batch of paths
        (:func:`repro.batch.fleet.track_paths`).

        ``heads`` holds every path's point as limb planes of element
        shape ``(b, n)``, ``t_heads`` one parameter value per path
        (``ValueError`` otherwise, before any evaluation).  A
        parametric system (``variables == n + 1``) appends ``t_p``,
        rounded as :meth:`jacobian` rounds it, as its last variable and
        drops that column, as :meth:`residual_fleet` does; a square
        system does not depend on ``t_heads``.  Returns Jacobians of element shape
        ``(b, equations, n)`` from one order-0 pass of
        :meth:`jacobian_series`, slice ``p`` bit-identical to
        ``self.jacobian(x_p, t_p)``.
        """
        batch, unknowns = heads.shape
        t_planes = _parameter_planes(t_heads, batch, 0, get_precision(heads.limbs))
        planes = map_planes(heads, lambda data: data[..., None])
        if unknowns + 1 != self._variables:
            matrices = self.jacobian_series(planes)
            return map_planes(matrices, lambda data: data[..., 0])
        planes = _append_variable(planes, t_planes)
        matrices = self.jacobian_series(planes)
        return map_planes(matrices, lambda data: data[..., :-1, 0])

    def __call__(self, x, t=None):
        """Residual adapter ``system(x, t)`` for the series solvers.

        ``x`` is the list of unknown series the Newton staircase /
        tracker supplies; ``t`` (the parameter series) is appended as
        the last variable when the system carries one more variable
        than unknowns, and ignored otherwise (a plain ``F(x)`` does not
        depend on it).
        """
        values = list(x)
        if t is not None and len(values) + 1 == self._variables:
            values = values + [t]
        if len(values) != self._variables:
            raise ValueError(
                f"expected {self._variables} (or {self._variables - 1}) "
                f"arguments, got {len(values)}"
            )
        return self.evaluate_series(values).components()

    # ------------------------------------------------------------------
    # trace plumbing
    # ------------------------------------------------------------------
    def _record_trace(
        self,
        trace,
        limbs,
        device,
        *,
        evaluate=True,
        jacobian=False,
        order=0,
        complex_data=False,
        batch=1,
    ) -> None:
        from ..perf.costmodel import polynomial_evaluation_trace

        polynomial_evaluation_trace(
            self.equations,
            self.variables,
            self.distinct_products,
            self.max_degree,
            self._term_slots,
            limbs,
            order=order,
            jacobian_slots=self._jacobian_slots if jacobian else None,
            evaluate=evaluate,
            device=device,
            complex_data=bool(complex_data or self._complex_coefficients),
            batch=batch,
            trace=trace,
        )

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"PolynomialSystem(equations={self.equations}, "
            f"variables={self.variables}, monomials={self.monomials}, "
            f"products={self.distinct_products})"
        )


def _parameter_planes(t_heads, batch: int, order: int, prec) -> MDArray:
    """The per-path parameter series ``t_p + s`` as batched limb planes
    of element shape ``(b, K+1)``.

    Path ``p`` contributes the linear series ``[t_p, 1, 0, ...]`` —
    exactly the coefficients of ``TruncatedSeries.variable(order, prec,
    head=t_p)``, ``t_p`` rounded once as ``MultiDouble(t_p, prec)``, so
    a fleet-wide residual equals the per-path call on that series bit
    for bit; at order 0 these are the parameter values the Jacobians
    take.  ``t_heads`` must hold one head per path.
    """
    if len(t_heads) != batch:
        raise ValueError(
            f"t_heads must hold one expansion point per path: got "
            f"{len(t_heads)} for a batch of {batch}"
        )
    data = np.zeros((prec.limbs, batch, order + 1))
    for p, head in enumerate(t_heads):
        data[:, p, 0] = MultiDouble(head, prec).limbs
    if order >= 1:
        data[0, :, 1] = 1.0
    return MDArray(data)


def _append_variable(planes, values: MDArray):
    """Append real planes of element shape ``(b, K+1)`` as one extra
    trailing variable of batched ``(b, n, K+1)`` planes (with an exact
    zero imaginary plane on complex planes)."""
    column = values.data[:, :, None, :]
    if isinstance(planes, MDComplexArray):
        return MDComplexArray(
            MDArray(np.concatenate([planes.real.data, column], axis=2)),
            MDArray(
                np.concatenate([planes.imag.data, np.zeros_like(column)], axis=2)
            ),
        )
    return MDArray(np.concatenate([planes.data, column], axis=2))


def _scale_coefficient(coefficient, factor: int):
    """``coefficient * factor`` with exact arithmetic where possible
    (the Jacobian coefficients are derived once at construction; both
    evaluation paths then round the same stored value)."""
    if isinstance(coefficient, MultiDouble):
        return coefficient * factor
    if isinstance(coefficient, str):
        return Fraction(coefficient) * factor
    return coefficient * factor
