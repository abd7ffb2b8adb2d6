"""Stage names and operation-tally formulas of the kernel launches.

The paper's tables break the runtime of Algorithm 1 (tiled back
substitution) and Algorithm 2 (blocked Householder QR) into named
stages.  The constants below are those stage names; the ``tally_*``
functions give the multiple double operation counts of the standard
kernels (matrix-vector product, matrix-matrix product, rank-1 update,
triangular-tile inversion, ...) as a function of the problem shape.

The analytic cost model in :mod:`repro.perf.costmodel` builds every
launch's tally from these functions, and the numeric drivers record the
model's traces, so each launch is described once.  The unbatched test
oracle ``tests/oracles/dense.py`` describes the same launches inline
from the same formulas; comparing the model with it checks which
formula each launch applies to which shape, while the formulas
themselves are shared by both.
"""

from __future__ import annotations

from ..gpu.counters import OperationTally
from ..md.opcounts import pairwise_addition_count

__all__ = [
    "QR_STAGES",
    "BS_STAGES",
    "STAGE_BETA_V",
    "STAGE_BETA_RTV",
    "STAGE_UPDATE_R",
    "STAGE_COMPUTE_W",
    "STAGE_YWT",
    "STAGE_QWYT",
    "STAGE_YWTC",
    "STAGE_Q_ADD",
    "STAGE_R_ADD",
    "STAGE_INVERT_TILES",
    "STAGE_MULTIPLY_INVERSE",
    "STAGE_BACK_SUBSTITUTION",
    "STAGE_SERIES_CONVOLVE",
    "STAGE_POLY_POWERS",
    "STAGE_POLY_PRODUCTS",
    "STAGE_POLY_TERMS",
    "STAGE_POLY_JACOBIAN",
    "POLY_STAGES",
    "ceil_div",
    "tally_matvec",
    "tally_matmul",
    "tally_rank1_update",
    "tally_vector_add",
    "tally_matrix_add",
    "tally_axpy_vector",
    "tally_tile_inverse",
    "tally_householder_vector",
    "tally_compute_w_column",
    "tally_update_rhs",
    "tally_series_convolution",
    "tally_series_product",
    "tally_series_scale",
    "tally_series_add",
]

# ---------------------------------------------------------------------------
# stage names (legends of the paper's tables)
# ---------------------------------------------------------------------------

STAGE_BETA_V = "beta, v"
STAGE_BETA_RTV = "beta*R^T*v"
STAGE_UPDATE_R = "update R"
STAGE_COMPUTE_W = "compute W"
STAGE_YWT = "Y*W^T"
STAGE_QWYT = "Q*WY^T"
STAGE_YWTC = "YWT*C"
STAGE_Q_ADD = "Q + QWY"
STAGE_R_ADD = "R + YWTC"

#: Stage order of Algorithm 2 as reported in Tables 3-6.
QR_STAGES = (
    STAGE_BETA_V,
    STAGE_BETA_RTV,
    STAGE_UPDATE_R,
    STAGE_COMPUTE_W,
    STAGE_YWT,
    STAGE_QWYT,
    STAGE_YWTC,
    STAGE_Q_ADD,
    STAGE_R_ADD,
)

STAGE_INVERT_TILES = "invert diagonal tiles"
STAGE_MULTIPLY_INVERSE = "multiply with inverses"
STAGE_BACK_SUBSTITUTION = "back substitution"

#: Stage order of Algorithm 1 as reported in Tables 7-9.
BS_STAGES = (
    STAGE_INVERT_TILES,
    STAGE_MULTIPLY_INVERSE,
    STAGE_BACK_SUBSTITUTION,
)

#: Right-hand-side convolution of the linearized power series solves
#: (:mod:`repro.series.matrix_series`): the block Toeplitz structure of
#: the Jacobian couples series order ``k`` to all earlier orders.
STAGE_SERIES_CONVOLVE = "series convolution"

# Stages of the shared-monomial polynomial evaluation/differentiation
# kernels (:mod:`repro.poly.system`): the variable power table, the
# pairwise reduction of the distinct power products, the
# coefficient-weighted term reduction of the equation values, and the
# Jacobian assembly from the same shared power products.
STAGE_POLY_POWERS = "variable powers"
STAGE_POLY_PRODUCTS = "power products"
STAGE_POLY_TERMS = "term reduction"
STAGE_POLY_JACOBIAN = "jacobian assembly"

#: Stage order of one polynomial evaluation + differentiation pass.
POLY_STAGES = (
    STAGE_POLY_POWERS,
    STAGE_POLY_PRODUCTS,
    STAGE_POLY_TERMS,
    STAGE_POLY_JACOBIAN,
)


# ---------------------------------------------------------------------------
# tally formulas
# ---------------------------------------------------------------------------

def ceil_div(a: int, b: int) -> int:
    """Ceiling division (block counts of the kernel launch geometries)."""
    return -(-a // b)


def _complex_factor_mul(complex_data: bool) -> float:
    """Real multiplications per (possibly complex) multiplication."""
    return 4.0 if complex_data else 1.0


def _complex_factor_add(complex_data: bool) -> float:
    """Real additions per (possibly complex) addition."""
    return 2.0 if complex_data else 1.0


def tally_matvec(rows: int, cols: int, complex_data: bool = False) -> OperationTally:
    """``y = A x`` with ``A`` of shape ``(rows, cols)``.

    ``rows*cols`` multiplications and ``rows*(cols-1)`` additions; a
    complex multiplication costs four real multiplications and two real
    additions, a complex addition two real additions.
    """
    mults = rows * cols
    adds = rows * max(cols - 1, 0)
    return OperationTally(
        multiplications=mults * _complex_factor_mul(complex_data),
        additions=mults * (2.0 if complex_data else 0.0) + adds * _complex_factor_add(complex_data),
    )


def tally_matmul(rows: int, inner: int, cols: int, complex_data: bool = False) -> OperationTally:
    """``C = A B`` with shapes ``(rows, inner) x (inner, cols)``."""
    mults = rows * inner * cols
    adds = rows * max(inner - 1, 0) * cols
    return OperationTally(
        multiplications=mults * _complex_factor_mul(complex_data),
        additions=mults * (2.0 if complex_data else 0.0) + adds * _complex_factor_add(complex_data),
    )


def tally_rank1_update(rows: int, cols: int, complex_data: bool = False) -> OperationTally:
    """``A = A - v w^T`` over an ``(rows, cols)`` block (multiply and
    subtract per element)."""
    count = rows * cols
    return OperationTally(
        multiplications=count * _complex_factor_mul(complex_data),
        additions=count * (2.0 if complex_data else 0.0),
        subtractions=count * _complex_factor_add(complex_data),
    )


def tally_vector_add(n: int, complex_data: bool = False) -> OperationTally:
    """Element-wise addition of two vectors of length ``n``."""
    return OperationTally(additions=n * _complex_factor_add(complex_data))


def tally_matrix_add(rows: int, cols: int, complex_data: bool = False) -> OperationTally:
    """Element-wise addition of two ``(rows, cols)`` matrices (the
    ``Q+QWY`` and ``R+YWTC`` stages)."""
    return OperationTally(additions=rows * cols * _complex_factor_add(complex_data))


def tally_axpy_vector(n: int, complex_data: bool = False) -> OperationTally:
    """``y = y + alpha * x`` on vectors of length ``n``."""
    return OperationTally(
        multiplications=n * _complex_factor_mul(complex_data),
        additions=n * (2.0 if complex_data else 0.0) + n * _complex_factor_add(complex_data),
    )


def tally_tile_inverse(n: int, complex_data: bool = False) -> OperationTally:
    """Inversion of one ``n``-by-``n`` upper triangular tile.

    Every thread solves ``U v = e_k`` for one unit vector (Algorithm 1,
    stage 1): row ``i`` needs ``n - 1 - i`` multiply/subtract pairs and
    one division, for each of the ``n`` columns.
    """
    pairs = n * (n * (n - 1)) // 2
    divisions = n * n
    if complex_data:
        # a complex division costs ~4 mults, 2 adds, 2 divisions (via the
        # squared modulus of the denominator) plus the 4/2 of the multiply
        return OperationTally(
            multiplications=4.0 * pairs + 6.0 * divisions,
            additions=2.0 * pairs + 3.0 * divisions,
            subtractions=2.0 * pairs,
            divisions=2.0 * divisions,
        )
    return OperationTally(
        multiplications=float(pairs),
        subtractions=float(pairs),
        divisions=float(divisions),
    )


def tally_householder_vector(length: int, complex_data: bool = False) -> OperationTally:
    """Computation of one Householder vector and its ``beta``.

    Dominated by the inner product of the column with itself
    (``length`` multiply-adds), plus one square root and a handful of
    scalar operations; the trailing division by ``v^T v`` is counted as
    a single division.
    """
    mults = length * _complex_factor_mul(complex_data)
    adds = length * (2.0 if complex_data else 0.0) + max(length - 1, 0) * _complex_factor_add(complex_data)
    return OperationTally(
        multiplications=mults + 2,
        additions=adds + 2,
        divisions=2.0,
        square_roots=1.0,
    )


def tally_compute_w_column(rows: int, previous_columns: int, complex_data: bool = False) -> OperationTally:
    """One column of ``W``: ``z = -beta (v + W Y^T v)`` (formula 16).

    Two matrix-vector products with the ``previous_columns`` already
    accumulated columns, one vector addition and one scaling.
    """
    tally = tally_matvec(previous_columns, rows, complex_data)  # Y^T v
    tally = tally + tally_matvec(rows, previous_columns, complex_data)  # W (Y^T v)
    tally = tally + tally_vector_add(rows, complex_data)  # v + ...
    scale = OperationTally(multiplications=rows * _complex_factor_mul(complex_data))
    return tally + scale


def tally_update_rhs(n: int, complex_data: bool = False) -> OperationTally:
    """``b_j := b_j - A_{j,i} x_i`` (Algorithm 1, stage 2b): one
    ``n``-by-``n`` matrix-vector product and one vector subtraction."""
    tally = tally_matvec(n, n, complex_data)
    return tally + OperationTally(subtractions=n * _complex_factor_add(complex_data))


def tally_series_product(count: int, order: int = 0, complex_data: bool = False) -> OperationTally:
    """``count`` truncated Cauchy products at truncation ``order``.

    Each product executes the full ``(K+1)²`` grid of coefficient
    multiplications in one vectorized launch, then reduces every output
    coefficient with the zero-padded pairwise tree of
    :meth:`MDArray.sum <repro.vec.mdarray.MDArray.sum>` (the padded
    zero additions are counted because the kernel really executes
    them).  At ``order == 0`` this degenerates to one plain
    multiplication per product — the point-evaluation case of the
    polynomial kernels.  A complex Cauchy product runs the real grid
    four times (the separated-plane kernel of
    :func:`repro.vec.linalg.cauchy_product`) and combines the planes
    with one addition and one subtraction per output coefficient.
    """
    terms = order + 1
    mults = count * terms * terms
    adds = count * terms * pairwise_addition_count(terms)
    if complex_data:
        return OperationTally(
            multiplications=4.0 * mults,
            additions=4.0 * adds + count * terms,
            subtractions=float(count * terms),
        )
    return OperationTally(
        multiplications=float(mults),
        additions=float(adds),
    )


def tally_series_scale(count: int, order: int = 0, complex_data: bool = False) -> OperationTally:
    """``count`` scalar-times-series products (one multiplication per
    retained coefficient) — the coefficient weighting of the polynomial
    term kernels (4 multiplications, one addition and one subtraction
    per complex coefficient)."""
    terms = count * (order + 1)
    if complex_data:
        return OperationTally(
            multiplications=4.0 * terms,
            additions=float(terms),
            subtractions=float(terms),
        )
    return OperationTally(multiplications=float(terms))


def tally_series_add(count: int, order: int = 0, complex_data: bool = False) -> OperationTally:
    """``count`` series additions (one addition per retained
    coefficient; two on complex planes) — the pairwise term-reduction
    levels of the polynomial kernels."""
    return OperationTally(
        additions=float(count * (order + 1)) * _complex_factor_add(complex_data)
    )


def tally_series_convolution(n: int, terms: int, complex_data: bool = False) -> OperationTally:
    """``r_k = b_k - sum_{j=1..terms} A_j x_{k-j}`` on an ``n``-vector.

    One ``n``-by-``n`` matrix-vector product and one vector subtraction
    per already-computed series order that couples into order ``k``
    (the block Toeplitz right-hand-side update of the linearized power
    series solve)."""
    tally = OperationTally()
    for _ in range(terms):
        tally = tally + tally_matvec(n, n, complex_data)
        tally = tally + OperationTally(subtractions=n * _complex_factor_add(complex_data))
    return tally
