"""Operation counts of multiple double arithmetic (paper Table 1).

Two sets of numbers coexist:

* :data:`PAPER_TABLE1` — the counts reported in the paper for the
  CAMPARY-generated arithmetic (double double, quad double, octo
  double).  These are the multipliers the paper uses when converting
  kernel operation tallies into flop counts.
* :func:`measured_counts` — the counts of *this library's* expansion
  arithmetic, measured by executing it on
  :class:`repro.md.counting.CountingFloat` limbs.

The GPU flop counters (:mod:`repro.gpu.counters`) can use either set;
the experiment harness defaults to the paper's multipliers so the
reported gigaflop numbers are directly comparable with the paper's
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import generic
from .counting import OpCounter, count_operation

__all__ = [
    "OperationCosts",
    "PAPER_TABLE1",
    "paper_costs",
    "measured_counts",
    "measured_costs",
    "cost_table",
    "SeriesOperationCounts",
    "SERIES_OPERATIONS",
    "COMPLEX_SERIES_OPERATIONS",
    "series_newton_orders",
    "pairwise_addition_count",
    "pairwise_reduction_levels",
    "series_counts",
    "complex_series_counts",
    "series_flops",
    "series_launches",
    "series_cost_table",
    "PolynomialOperationCounts",
    "polynomial_counts",
]


@dataclass(frozen=True)
class OperationCosts:
    """Double precision flop cost of one multiple double +, -, *, /.

    ``average`` is the mean over the three distinct rows of Table 1
    (add, mul, div — subtraction costs the same as addition), the number
    the paper uses to predict precision-doubling overhead factors
    (37.7, 439.3, 2379.0 for 2d, 4d, 8d).
    """

    limbs: int
    add: float
    sub: float
    mul: float
    div: float

    @property
    def average(self) -> float:
        return (self.add + self.mul + self.div) / 3.0

    def cost_of(self, kind: str) -> float:
        """Cost of one operation of the given kind (``add``, ``sub``,
        ``mul``, ``div``, ``fma`` = mul+add)."""
        if kind == "fma":
            return self.mul + self.add
        return float(getattr(self, kind))


#: Table 1 of the paper: total double precision operations per multiple
#: double operation, for double double (2), quad double (4) and octo
#: double (8).  Hardware double precision costs one flop per operation.
PAPER_TABLE1 = {
    1: OperationCosts(1, add=1, sub=1, mul=1, div=1),
    2: OperationCosts(2, add=20, sub=20, mul=23, div=70),
    4: OperationCosts(4, add=89, sub=89, mul=336, div=893),
    8: OperationCosts(8, add=269, sub=269, mul=1742, div=5126),
}

#: The per-precision averages quoted in the paper's abstract and Table 1
#: caption (used to *predict* the precision-doubling overhead factors).
PAPER_AVERAGES = {2: 37.7, 4: 439.3, 8: 2379.0}


def paper_costs(limbs: int) -> OperationCosts:
    """Return the paper's Table 1 costs for a supported limb count.

    For limb counts not covered by Table 1 the measured costs of this
    library are returned instead (so the generic precisions remain
    usable in the performance model).
    """
    if limbs in PAPER_TABLE1:
        return PAPER_TABLE1[limbs]
    return measured_costs(limbs)


@lru_cache(maxsize=None)
def measured_counts(limbs: int) -> dict:
    """Measure the op counts of this library's expansion arithmetic.

    Returns a dict mapping operation name to :class:`OpCounter`.
    """
    ops = {
        "add": generic.add,
        "sub": generic.sub,
        "mul": generic.mul,
        "div": generic.div,
    }
    return {name: count_operation(func, limbs) for name, func in ops.items()}


@lru_cache(maxsize=None)
def measured_costs(limbs: int) -> OperationCosts:
    """Measured total flop cost per multiple double operation."""
    if limbs == 1:
        return OperationCosts(1, add=1, sub=1, mul=1, div=1)
    counts = measured_counts(limbs)
    return OperationCosts(
        limbs,
        add=counts["add"].total,
        sub=counts["sub"].total,
        mul=counts["mul"].total,
        div=counts["div"].total,
    )


def cost_table(limb_counts=(2, 4, 8), source: str = "paper"):
    """Build a Table 1 style summary.

    Parameters
    ----------
    limb_counts:
        Which precisions to include.
    source:
        ``"paper"`` for the CAMPARY counts of Table 1, ``"measured"``
        for the counts of this library's arithmetic.

    Returns
    -------
    dict mapping limb count to a dict with ``add``, ``sub``, ``mul``,
    ``div``, ``average`` entries.
    """
    rows = {}
    for m in limb_counts:
        costs = paper_costs(m) if source == "paper" else measured_costs(m)
        rows[m] = {
            "add": costs.add,
            "sub": costs.sub,
            "mul": costs.mul,
            "div": costs.div,
            "average": costs.average,
        }
    return rows


# ---------------------------------------------------------------------------
# truncated power series operations (repro.series workloads)
# ---------------------------------------------------------------------------

#: Series operations catalogued by :func:`series_counts`.
SERIES_OPERATIONS = ("add", "sub", "scale", "mul", "reciprocal", "div", "sqrt", "exp", "log")

#: Series operations with a native complex (separated-plane) kernel,
#: catalogued by :func:`complex_series_counts` — the ring operations of
#: :class:`repro.series.complexvec.ComplexTruncatedSeries`.
COMPLEX_SERIES_OPERATIONS = ("add", "sub", "scale", "mul")


@dataclass(frozen=True)
class SeriesOperationCounts:
    """Multiple double operation counts of one truncated series
    operation at truncation order ``K`` (``K + 1`` coefficients).

    The counts mirror, kernel for kernel, the **batched** limb-major
    arithmetic executed by
    :class:`repro.series.truncated.TruncatedSeries`: elementwise
    operations touch every coefficient once, and the Cauchy product
    executes the full ``(K+1)²`` product grid in one launch followed
    by a zero-padded pairwise reduction tree per output coefficient
    (see :func:`repro.vec.linalg.cauchy_product`) — the padded zero
    additions are counted, because the kernels really execute them.
    The scalar series of the test oracle ``tests/oracles/series.py``
    replay the same reduction trees (their additions match these
    counts) but form only the ``(K+1)(K+2)/2`` products they actually
    need, so the ``mul`` entry of the Cauchy product describes the
    vectorized kernel's grid, not the reference loop.  ``launches``
    tallies the vectorized limb-kernel launches of the batched path
    (data-movement gathers and the scalar head operations of the
    Newton iterations are not launches).  The scalar transcendental
    head evaluations of ``exp`` and ``log`` (one call into
    :mod:`repro.md.functions`, independent of the order) are excluded,
    as they are negligible against the ``O(K^2)`` convolution work.
    """

    operation: str
    order: int
    add: float = 0.0
    sub: float = 0.0
    mul: float = 0.0
    div: float = 0.0
    sqrt: float = 0.0
    launches: float = 0.0

    @property
    def md_operations(self) -> float:
        """Total multiple double operations."""
        return self.add + self.sub + self.mul + self.div + self.sqrt

    def flops(self, limbs: int, source: str = "paper") -> float:
        """Double precision flop count at a precision.

        Square roots are charged like divisions, consistent with
        :meth:`repro.gpu.counters.OperationTally.flops`.
        """
        costs = paper_costs(limbs) if source == "paper" else measured_costs(limbs)
        return (
            self.add * costs.add
            + self.sub * costs.sub
            + self.mul * costs.mul
            + (self.div + self.sqrt) * costs.div
        )

    def __add__(self, other: "SeriesOperationCounts") -> "SeriesOperationCounts":
        return SeriesOperationCounts(
            self.operation,
            max(self.order, other.order),
            self.add + other.add,
            self.sub + other.sub,
            self.mul + other.mul,
            self.div + other.div,
            self.sqrt + other.sqrt,
            self.launches + other.launches,
        )

    def scaled_ops(self, factor: float) -> "SeriesOperationCounts":
        """The counts of ``factor`` repetitions of this operation."""
        return SeriesOperationCounts(
            self.operation,
            self.order,
            self.add * factor,
            self.sub * factor,
            self.mul * factor,
            self.div * factor,
            self.sqrt * factor,
            self.launches * factor,
        )

    def batched(self, batch: float) -> "SeriesOperationCounts":
        """The counts of one **batched** launch advancing ``batch``
        independent series at once: the operations scale linearly, the
        launch count stays flat — the batching contract of
        :mod:`repro.batch` (contrast :meth:`scaled_ops`, which repeats
        the launches too)."""
        return SeriesOperationCounts(
            self.operation,
            self.order,
            self.add * batch,
            self.sub * batch,
            self.mul * batch,
            self.div * batch,
            self.sqrt * batch,
            self.launches,
        )

    def _renamed(self, operation: str, order: int) -> "SeriesOperationCounts":
        return SeriesOperationCounts(
            operation,
            order,
            self.add,
            self.sub,
            self.mul,
            self.div,
            self.sqrt,
            self.launches,
        )


def series_newton_orders(order: int) -> tuple:
    """Truncation-order schedule of the Newton iterations on series.

    An iterate correct through order ``n`` becomes correct through
    ``2 n + 1`` after one Newton pass, so starting from the exact head
    (order 0) the schedule is ``1, 3, 7, ...`` clipped at ``order``.
    """
    orders = []
    n = 0
    while n < order:
        n = min(2 * n + 1, order)
        orders.append(n)
    return tuple(orders)


def pairwise_addition_count(n: int) -> int:
    """Additions per element reduced by the zero-padded pairwise tree.

    The reduction of :meth:`MDArray.sum <repro.vec.mdarray.MDArray.sum>`
    halves the sequence level by level (padding an odd half with an
    exact zero), so a length-``n`` column costs
    ``ceil(n/2) + ceil(n/4) + ...`` additions — slightly more than the
    ``n - 1`` of a sequential sum, in exchange for logarithmic depth.
    """
    total = 0
    while n > 1:
        n = (n + 1) // 2
        total += n
    return total


def pairwise_reduction_levels(n: int) -> int:
    """Levels (vectorized addition launches) of the pairwise tree."""
    levels = 0
    while n > 1:
        n = (n + 1) // 2
        levels += 1
    return levels


@lru_cache(maxsize=None)
def series_counts(operation: str, order: int, batch: int = 1) -> SeriesOperationCounts:
    """Multiple double operation counts of one series operation.

    Supported operations: ``add``, ``sub``, ``scale`` (coefficient-wise
    scalar multiply), ``mul`` (Cauchy product), ``reciprocal``, ``div``,
    ``sqrt``, ``exp`` and ``log``, all between series truncated at
    ``order``.  The Cauchy product is the batched kernel of
    :func:`repro.vec.linalg.cauchy_product`: one launch over the full
    ``(K+1)²`` product grid, then one zero-padded pairwise reduction of
    length ``K + 1`` per output coefficient.

    ``batch`` counts one launch advancing that many independent series
    at once (the leading batch axes of the limb-major kernels): the
    operations scale linearly with it, the launch counts do not.
    """
    if batch < 1:
        raise ValueError("the batch size must be at least 1")
    if batch != 1:
        return series_counts(operation, order).batched(batch)
    if order < 0:
        raise ValueError("the truncation order must be nonnegative")
    K = order
    terms = K + 1
    if operation == "add":
        return SeriesOperationCounts("add", K, add=terms, launches=1)
    if operation == "sub":
        return SeriesOperationCounts("sub", K, sub=terms, launches=1)
    if operation == "scale":
        return SeriesOperationCounts("scale", K, mul=terms, launches=1)
    if operation == "mul":
        return SeriesOperationCounts(
            "mul",
            K,
            mul=float(terms * terms),
            add=float(terms * pairwise_addition_count(terms)),
            launches=1 + pairwise_reduction_levels(terms),
        )
    if operation == "reciprocal":
        # one exact head division (scalar), then y <- y * (2 - x y)
        # per pass: two Cauchy products and one elementwise subtraction
        total = SeriesOperationCounts("reciprocal", K, div=1.0)
        for target in series_newton_orders(K):
            total = total + series_counts("mul", target).scaled_ops(2.0)
            total = total + SeriesOperationCounts(
                "reciprocal", target, sub=target + 1.0, launches=1
            )
        return total._renamed("reciprocal", K)
    if operation == "div":
        return (
            series_counts("reciprocal", K) + series_counts("mul", K)
        )._renamed("div", K)
    if operation == "sqrt":
        # one head square root (scalar), then y <- (y + x / y) / 2 per
        # pass: one division, one elementwise addition, one scale
        total = SeriesOperationCounts("sqrt", K, sqrt=1.0)
        for target in series_newton_orders(K):
            total = total + series_counts("div", target)
            total = total + SeriesOperationCounts(
                "sqrt", target, add=target + 1.0, mul=target + 1.0, launches=2
            )
        return total._renamed("sqrt", K)
    if operation == "exp":
        # y <- y * (1 + x - log y) per pass (head exp excluded)
        total = SeriesOperationCounts("exp", K)
        for target in series_newton_orders(K):
            total = total + series_counts("log", target)
            total = total + SeriesOperationCounts(
                "exp", target, sub=target + 1.0, add=target + 1.0, launches=2
            )
            total = total + series_counts("mul", target)
        return total._renamed("exp", K)
    if operation == "log":
        # log x = log c_0 + integral of x' / x (head log excluded)
        if K == 0:
            return SeriesOperationCounts("log", 0)
        total = SeriesOperationCounts("log", K, mul=float(K), launches=1)  # derivative
        total = total + series_counts("div", K - 1)
        total = total + SeriesOperationCounts(
            "log", K, div=float(K), launches=1
        )  # integral
        return total._renamed("log", K)
    raise ValueError(f"unknown series operation {operation!r}")


@lru_cache(maxsize=None)
def complex_series_counts(operation: str, order: int, batch: int = 1) -> SeriesOperationCounts:
    """Multiple double operation counts of one **complex** series
    operation on the separated-plane kernels
    (:class:`repro.series.complexvec.ComplexTruncatedSeries`).

    The counts mirror, kernel for kernel, the **channel-stacked**
    complex arithmetic of :class:`~repro.vec.complexmd.MDComplexArray`
    — the ~4x real-arithmetic factor of the paper's Table 5 with the
    launch counts of the implemented kernels:

    * ``add`` / ``sub`` — one real addition per plane, both planes in
      **one** stacked launch;
    * ``scale`` by a complex scalar — the four real products as one
      ``(2, 2)`` channel-grid multiply launch, then one addition
      launch combining the planes (``re = rr + (-ii)``,
      ``im = ri + ir``; the negation is exact, so the combine is one
      addition and one effective subtraction per coefficient);
    * ``mul`` (complex Cauchy product) — the real product grid
      executed over the four plane combinations in **one**
      channel-stacked launch sequence
      (:func:`repro.vec.linalg.cauchy_product` on complex operands:
      4x the multiplications and reduction additions, same launch
      count as the real grid), then the one-launch plane combine.
    """
    if batch < 1:
        raise ValueError("the batch size must be at least 1")
    if batch != 1:
        return complex_series_counts(operation, order).batched(batch)
    if order < 0:
        raise ValueError("the truncation order must be nonnegative")
    K = order
    terms = K + 1
    if operation == "add":
        return SeriesOperationCounts("add_complex", K, add=2.0 * terms, launches=1)
    if operation == "sub":
        return SeriesOperationCounts("sub_complex", K, sub=2.0 * terms, launches=1)
    if operation == "scale":
        return SeriesOperationCounts(
            "scale_complex",
            K,
            mul=4.0 * terms,
            add=float(terms),
            sub=float(terms),
            launches=2,
        )
    if operation == "mul":
        real = series_counts("mul", K)
        return SeriesOperationCounts(
            "mul_complex",
            K,
            mul=4.0 * real.mul,
            add=4.0 * real.add + terms,
            sub=float(terms),
            launches=real.launches + 1,
        )
    raise ValueError(
        f"unknown complex series operation {operation!r}; expected one of "
        f"{COMPLEX_SERIES_OPERATIONS}"
    )


def series_flops(
    operation: str,
    order: int,
    limbs: int,
    source: str = "paper",
    batch: int = 1,
    complex_data: bool = False,
) -> float:
    """Double precision flop count of one series operation at a
    precision, using the Table 1 multipliers (or the measured ones);
    linear in the ``batch`` size.  ``complex_data=True`` prices the
    separated-plane complex kernel (:func:`complex_series_counts`)."""
    counts = (
        complex_series_counts(operation, order, batch)
        if complex_data
        else series_counts(operation, order, batch)
    )
    return counts.flops(limbs, source)


def series_launches(
    operation: str, order: int, batch: int = 1, complex_data: bool = False
) -> float:
    """Vectorized limb-kernel launches of one series operation.

    This is the launch-count view of the batched structure: a scalar
    implementation needs ``O(K²)`` multiple double operations for a
    Cauchy product, the limb-major implementation needs
    ``1 + ceil(log2(K+1))`` launches — the number the analytic cost
    model compares against kernel launch overheads.  The count is
    **independent of the batch size** (one launch advances the whole
    batch); ``batch`` is accepted so call sites can state the fleet
    width they are accounting for.  ``complex_data=True`` counts the
    separated-plane complex kernel's launches.
    """
    counts = (
        complex_series_counts(operation, order, batch)
        if complex_data
        else series_counts(operation, order, batch)
    )
    return counts.launches


# ---------------------------------------------------------------------------
# polynomial system evaluation / differentiation (repro.poly workloads)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialOperationCounts:
    """Multiple double operation counts of evaluating (and
    differentiating) one polynomial system with the shared-monomial
    kernels of :mod:`repro.poly.system`.

    The counts mirror, kernel for kernel, the vectorized limb-major
    evaluation: a variable power table built level by level
    (``max_degree`` batched multiplications), one pairwise
    (binary tree) product reduction over the ``variables`` axis for all
    ``products`` distinct power products at once, then one
    coefficient-weighted pairwise term reduction per equation — and,
    for the Jacobian, one more weighting/reduction pass that **reuses
    the same power products** (they are computed once; ``shared``
    carries their cost exactly once).  Padded slots (multiplications by
    the exact one, additions of the exact zero) are counted because the
    kernels really execute them; the scalar test oracle
    ``tests/oracles/poly.py`` replays the identical operations.

    At ``order == 0`` the counts describe point evaluation; at
    ``order == K`` every multiplication is a truncated Cauchy product
    over ``K + 1`` coefficients (the full ``(K+1)²`` vectorized grid,
    as in :func:`series_counts`).
    """

    equations: int
    variables: int
    #: monomials actually present across the equations (before padding)
    monomials: int
    #: distinct power products shared across equations and derivatives
    products: int
    #: highest single-variable exponent (depth of the power table)
    max_degree: int
    #: padded terms per equation of the evaluation kernel
    term_slots: int
    #: padded terms per Jacobian entry
    jacobian_slots: int
    order: int
    #: power table + power products (computed once, reused everywhere)
    shared: SeriesOperationCounts
    #: coefficient weighting + term reduction of the equation values
    evaluation_terms: SeriesOperationCounts
    #: coefficient weighting + term reduction of the Jacobian entries
    jacobian_terms: SeriesOperationCounts

    @property
    def evaluation(self) -> SeriesOperationCounts:
        """One system evaluation (shared products + term reduction)."""
        return (self.shared + self.evaluation_terms)._renamed(
            "polynomial_evaluation", self.order
        )

    @property
    def jacobian(self) -> SeriesOperationCounts:
        """One Jacobian assembly paying for the shared products itself."""
        return (self.shared + self.jacobian_terms)._renamed(
            "polynomial_jacobian", self.order
        )

    @property
    def combined(self) -> SeriesOperationCounts:
        """Evaluation plus Jacobian with the power products computed
        **once** — the payoff of the shared-monomial structure."""
        return (
            self.shared + self.evaluation_terms + self.jacobian_terms
        )._renamed("polynomial_evaluation_with_jacobian", self.order)

    def evaluation_flops(self, limbs: int, source: str = "paper") -> float:
        return self.evaluation.flops(limbs, source)

    def jacobian_flops(self, limbs: int, source: str = "paper") -> float:
        return self.jacobian.flops(limbs, source)

    def combined_flops(self, limbs: int, source: str = "paper") -> float:
        return self.combined.flops(limbs, source)


@lru_cache(maxsize=None)
def polynomial_counts(
    equations: int,
    variables: int,
    *,
    monomials: int,
    products: int,
    max_degree: int,
    term_slots: int,
    jacobian_slots: int,
    order: int = 0,
    complex_data: bool = False,
    batch: int = 1,
) -> PolynomialOperationCounts:
    """Operation counts of the shared-monomial polynomial kernels.

    Parameters mirror the structural numbers a
    :class:`~repro.poly.system.PolynomialSystem` derives from its
    monomial support (see its :meth:`~repro.poly.system.PolynomialSystem.counts`
    method, which fills them in); ``order`` is the truncation order of
    the series arguments (0 for point evaluation).  With
    ``complex_data=True`` every multiplication is a complex
    (separated-plane) one — 4x the real multiplications plus the
    plane-combination additions/subtractions, 2x the reduction
    additions — matching :func:`complex_series_counts` and the complex
    tallies of :mod:`repro.core.stages`.  With ``batch > 1`` the counts
    describe one **fleet-wide batched** pass
    (:meth:`~repro.poly.system.PolynomialSystem.evaluate_series` over a
    leading batch axis): every operation total scales by the batch
    while the launch counts stay flat — the same transform
    :meth:`SeriesOperationCounts.batched` applies everywhere else.
    """
    if min(equations, variables, products, term_slots) < 1:
        raise ValueError("the polynomial shape numbers must be positive")
    if batch < 1:
        raise ValueError("the batch size must be at least 1")
    if batch != 1:
        base = polynomial_counts(
            equations,
            variables,
            monomials=monomials,
            products=products,
            max_degree=max_degree,
            term_slots=term_slots,
            jacobian_slots=jacobian_slots,
            order=order,
            complex_data=complex_data,
        )
        scale = float(batch)
        return PolynomialOperationCounts(
            equations=equations,
            variables=variables,
            monomials=monomials,
            products=products,
            max_degree=max_degree,
            term_slots=term_slots,
            jacobian_slots=jacobian_slots,
            order=order,
            shared=base.shared.batched(scale),
            evaluation_terms=base.evaluation_terms.batched(scale),
            jacobian_terms=base.jacobian_terms.batched(scale),
        )
    K = order
    terms = K + 1
    product_ops = (
        complex_series_counts("mul", K) if complex_data else series_counts("mul", K)
    )

    # power table: one batched series multiplication per degree level
    # (powers 0 and 1 are free; levels 2 .. max_degree each multiply all
    # variables' previous powers by the variables in one launch)
    shared = SeriesOperationCounts("poly_shared", K)
    for _ in range(max(max_degree - 1, 0)):
        shared = shared + product_ops.batched(float(variables))
    # pairwise product reduction over the variables axis (ones-padded):
    # one batched Cauchy launch sequence per halving level
    length = variables
    while length > 1:
        half = (length + 1) // 2
        shared = shared + product_ops.batched(float(products * half))
        length = half

    def _term_pass(name: str, rows: int, slots: int) -> SeriesOperationCounts:
        # coefficient weighting: one scalar-times-series launch
        if complex_data:
            counts = SeriesOperationCounts(
                name,
                K,
                mul=4.0 * rows * slots * terms,
                add=float(rows * slots * terms),
                sub=float(rows * slots * terms),
                launches=1,
            )
        else:
            counts = SeriesOperationCounts(
                name, K, mul=float(rows * slots * terms), launches=1
            )
        # pairwise term reduction (zero-padded)
        length = slots
        while length > 1:
            half = (length + 1) // 2
            counts = counts + SeriesOperationCounts(
                name,
                K,
                add=float(rows * half * terms) * (2.0 if complex_data else 1.0),
                launches=1,
            )
            length = half
        return counts._renamed(name, K)

    evaluation_terms = _term_pass("poly_terms", equations, term_slots)
    jacobian_terms = _term_pass(
        "poly_jacobian_terms", equations * variables, max(jacobian_slots, 1)
    )
    return PolynomialOperationCounts(
        equations=equations,
        variables=variables,
        monomials=monomials,
        products=products,
        max_degree=max_degree,
        term_slots=term_slots,
        jacobian_slots=jacobian_slots,
        order=order,
        shared=shared._renamed("poly_shared", K),
        evaluation_terms=evaluation_terms,
        jacobian_terms=jacobian_terms,
    )


def series_cost_table(order: int, limb_counts=(1, 2, 4, 8), source: str = "paper"):
    """Flop costs of every series operation at one truncation order.

    Returns a dict mapping operation name to a dict with the multiple
    double operation total and the per-precision double flop counts,
    the series analogue of :func:`cost_table`.
    """
    rows = {}
    for operation in SERIES_OPERATIONS:
        counts = series_counts(operation, order)
        rows[operation] = {
            "md_operations": counts.md_operations,
            **{m: counts.flops(m, source) for m in limb_counts},
        }
    return rows
