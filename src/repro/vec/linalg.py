"""Dense linear algebra on multiple double arrays.

These are the Python equivalents of the hand-written CUDA kernels of
the paper: matrix-vector products, matrix-matrix products, inner
products, norms and small helpers, all expressed with the vectorized
limb-major arithmetic of :class:`repro.vec.mdarray.MDArray` /
:class:`repro.vec.complexmd.MDComplexArray`.

The matrix product deliberately loops over the inner dimension and
performs one rank-1 style update per iteration: this mirrors the
paper's kernels, which do not stage tiles through shared memory
(because the high CGMA ratio of multiple double arithmetic makes the
global loads cheap relative to the computation) but instead keep the
running element of the product in registers.
"""

from __future__ import annotations

import numpy as np

from ..exec.backend import get_backend
from .complexmd import MDComplexArray, combine_product_grid
from .mdarray import MDArray, pairwise_reduce

__all__ = [
    "matvec",
    "matmul",
    "dot",
    "norm",
    "identity",
    "triu",
    "tril",
    "outer",
    "frobenius_norm",
    "residual_norm",
    "max_abs_entry",
    "transpose",
    "conjugate_transpose",
    "cauchy_product",
    "cauchy_product_reduce",
    "convolution_coefficient",
    "convolve_matvec",
    "horner",
]


def _is_complex(array) -> bool:
    return isinstance(array, MDComplexArray)


def _zeros_like_kind(template, shape):
    if _is_complex(template):
        return MDComplexArray.zeros(shape, template.limbs)
    return MDArray.zeros(shape, template.limbs)


def matvec(matrix, vector):
    """Matrix-vector product ``y = A x`` in multiple double arithmetic.

    ``A`` has shape ``(rows, cols)`` and ``x`` shape ``(cols,)``.  The
    product is evaluated as an element-wise multiply of every row with
    ``x`` followed by a pairwise sum reduction along the columns — the
    same structure as the paper's kernels where several blocks of
    threads cooperate on one matrix-vector product and finish with a sum
    reduction.
    """
    if matrix.ndim != 2 or vector.ndim != 1:
        raise ValueError("matvec expects a matrix and a vector")
    rows, cols = matrix.shape
    if vector.shape[0] != cols:
        raise ValueError(f"dimension mismatch: {matrix.shape} @ {vector.shape}")
    row_products = matrix * vector.reshape(1, cols)
    return row_products.sum(axis=1)


def matmul(a, b):
    """Matrix-matrix product ``C = A B`` in multiple double arithmetic.

    Evaluated as a loop over the inner dimension with a broadcasted
    outer-product update, so every iteration is one fully vectorized
    multiple double multiply-add over the whole output matrix.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects two matrices")
    n, k = a.shape
    k2, p = b.shape
    if k != k2:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    result = _zeros_like_kind(a, (n, p))
    for inner in range(k):
        col = a[:, inner].reshape(n, 1)
        row = b[inner, :].reshape(1, p)
        result = result + col * row
    return result


def dot(x, y, conjugate: bool = False):
    """Inner product of two vectors.

    With ``conjugate=True`` the first operand is conjugated (the
    Hermitian inner product used on complex data); for real data the
    flag has no effect.
    """
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("dot expects one-dimensional arrays")
    if conjugate and _is_complex(x):
        x = x.conj()
    return (x * y).sum(axis=0)


def outer(x, y):
    """Outer product of two vectors, shape ``(len(x), len(y))``."""
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("outer expects one-dimensional arrays")
    return x.reshape(x.shape[0], 1) * y.reshape(1, y.shape[0])


def norm(x):
    """Euclidean norm of a vector (a real MDArray scalar)."""
    if _is_complex(x):
        return x.abs2().sum(axis=0).sqrt()
    return x.dot(x).sqrt()


def frobenius_norm(a):
    """Frobenius norm of a matrix (a real MDArray scalar)."""
    if _is_complex(a):
        return a.abs2().sum().sqrt()
    return (a * a).sum().sqrt()


def residual_norm(a, x, b) -> float:
    """Double precision estimate of ``||b - A x||_2``.

    Used by the tests and examples to check that solutions reach the
    accuracy level of the working precision; the residual itself is
    computed in the working precision before the final rounding.
    """
    r = b - matvec(a, x)
    value = norm(r)
    if isinstance(value, MDComplexArray):  # pragma: no cover - defensive
        value = value.abs()
    return float(value.to_double())


def max_abs_entry(a) -> float:
    """Double precision magnitude of the largest entry of ``a``."""
    if _is_complex(a):
        return float(np.max(np.abs(a.to_complex())))
    return a.max_abs_double()


def identity(n, precision=2, complex_data: bool = False):
    """The ``n``-by-``n`` identity in the requested precision."""
    eye = np.eye(n)
    if complex_data:
        return MDComplexArray.from_complex(eye.astype(np.complex128), precision)
    return MDArray.from_double(eye, precision)


def triu(a, k: int = 0):
    """Upper triangular part of a matrix (zeroing below diagonal ``k``)."""
    mask = np.triu(np.ones(a.shape), k=k)
    return _apply_mask(a, mask)


def tril(a, k: int = 0):
    """Lower triangular part of a matrix (zeroing above diagonal ``k``)."""
    mask = np.tril(np.ones(a.shape), k=k)
    return _apply_mask(a, mask)


def _apply_mask(a, mask):
    if _is_complex(a):
        return MDComplexArray(_apply_mask(a.real, mask), _apply_mask(a.imag, mask))
    return MDArray(a.data * mask)


# ---------------------------------------------------------------------------
# triangular (series) convolutions — the kernels of repro.series
# ---------------------------------------------------------------------------

def _coerce_complex(array, limbs) -> MDComplexArray:
    """Promote a real operand to complex (exact zero imaginary plane)."""
    if _is_complex(array):
        return array
    return MDComplexArray(array, MDArray.zeros(array.shape, limbs))


def _cauchy_product_complex(a, b, order):
    """Complex truncated Cauchy product via **one** real product-grid
    launch: the four real combinations (``a_re b_re``, ``a_re b_im``,
    ``a_im b_re``, ``a_im b_im``) are stacked onto a leading ``(2, 2)``
    channel grid and convolved together, then combined with one
    subtraction and one addition launch — the four-real-multiplies
    structure the paper's Table 5 prices complex arithmetic at.
    """
    limbs = a.limbs if _is_complex(a) else b.limbs
    a = _coerce_complex(a, limbs)
    b = _coerce_complex(b, limbs)
    m = a.limbs
    tail = a.real.data.shape[1:]
    left = np.broadcast_to(
        np.stack([a.real.data, a.imag.data], axis=1)[:, :, None], (m, 2, 2) + tail
    )
    right = np.broadcast_to(
        np.stack([b.real.data, b.imag.data], axis=1)[:, None, :], (m, 2, 2) + b.real.data.shape[1:]
    )
    grid = cauchy_product(MDArray(left), MDArray(right), order)
    # grid[i, j] = cauchy(a_i, b_j): [0,0]=re*re, [0,1]=re*im, ...;
    # the shared one-launch plane combine folds the grid to complex
    return combine_product_grid(grid.data)


def cauchy_product(a, b, order=None):
    """Truncated Cauchy product along the *last* element axis.

    ``a`` and ``b`` are :class:`MDArray` values whose last element axis
    indexes series coefficients (shape ``(K+1,)`` for one series,
    ``(n, K+1)`` for a batch of ``n`` series); the result holds
    ``c_k = sum_{i=0..k} a_i b_{k-i}`` for ``k = 0 .. order`` (default:
    the shorter operand's truncation order).  Complex operands
    (:class:`MDComplexArray`, or one complex and one real operand)
    dispatch to the separated-plane complex kernel and return an
    :class:`MDComplexArray`.

    The kernel structure mirrors a one-thread-per-output-coefficient
    GPU launch: **all** pairwise products are formed in one vectorized
    multiple double multiplication (one launch over the ``(K+1)²``
    grid), the products are gathered onto anti-diagonals, and each
    output coefficient is reduced with the same zero-padded pairwise
    (binary tree) summation as :meth:`MDArray.sum` — the parallel sum
    reduction of the paper's kernels.  The scalar test oracle
    (``tests/oracles/series.py``) replays exactly this product grid and
    reduction tree, which is what makes the two paths bit-identical.
    With one coefficient asked for, the grid has one product per
    series, the gather moves nothing and the one-term sum returns its
    term, so the elementwise product is the whole kernel.
    """
    if _is_complex(a) or _is_complex(b):
        return _cauchy_product_complex(a, b, order)
    if a.ndim < 1 or b.ndim < 1:
        raise ValueError("cauchy_product expects at least one element axis")
    if a.shape[:-1] != b.shape[:-1]:
        raise ValueError(
            f"batch shape mismatch: {a.shape[:-1]} vs {b.shape[:-1]}"
        )
    if a.limbs != b.limbs:
        raise ValueError(f"precision mismatch: {a.limbs} vs {b.limbs} limbs")
    if order is None:
        order = min(a.shape[-1], b.shape[-1]) - 1
    terms = int(order) + 1
    if terms < 1:
        raise ValueError("the truncation order must be nonnegative")
    if terms > a.shape[-1] or terms > b.shape[-1]:
        raise ValueError(
            f"order {order} needs {terms} coefficients, operands carry "
            f"{a.shape[-1]} and {b.shape[-1]}"
        )
    adata = a.data[..., :terms]
    bdata = b.data[..., :terms]
    if terms == 1:
        return MDArray(adata) * MDArray(bdata)
    # one vectorized multiplication over the full product grid
    products = MDArray(adata[..., :, None]) * MDArray(bdata[..., None, :])
    # gather onto anti-diagonals: diagonals[..., i, k] = a_i * b_{k-i}
    # (backend hook: generic recomputes the index grids per call, fused
    # caches them per size — the gathered values are identical)
    diagonals = MDArray(get_backend().gather_antidiagonals(products.data, terms))
    # pairwise reduction over the i axis, one output coefficient per k
    return diagonals.sum(axis=diagonals.ndim - 2)


def convolution_coefficient(a, b, k):
    """A single convolution coefficient ``sum_j a_{k-j} b_j``.

    ``j`` runs over the coefficients of ``b``; terms whose index
    ``k - j`` falls outside ``a`` contribute exact zeros.  Reduction is
    the same zero-padded pairwise sum as :func:`cauchy_product`, so the
    result of extracting one coefficient matches the corresponding
    entry of the full product.  Used for Padé defects, where only the
    first unmatched coefficient of ``q·f`` is needed.  Complex operands
    dispatch to the separated-plane kernel (four real windowed
    convolutions combined with one subtraction and one addition).
    """
    if _is_complex(a) or _is_complex(b):
        limbs = a.limbs if _is_complex(a) else b.limbs
        a = _coerce_complex(a, limbs)
        b = _coerce_complex(b, limbs)
        m = a.limbs
        tail_a = a.real.data.shape[1:]
        tail_b = b.real.data.shape[1:]
        left = np.broadcast_to(
            np.stack([a.real.data, a.imag.data], axis=1)[:, :, None],
            (m, 2, 2) + tail_a,
        )
        right = np.broadcast_to(
            np.stack([b.real.data, b.imag.data], axis=1)[:, None, :],
            (m, 2, 2) + tail_b,
        )
        grid = convolution_coefficient(MDArray(left), MDArray(right), k)
        return combine_product_grid(grid.data)
    if a.ndim < 1 or b.ndim < 1:
        raise ValueError("convolution_coefficient expects an element axis")
    j = np.arange(b.shape[-1])
    source = int(k) - j
    valid = (source >= 0) & (source < a.shape[-1])
    window = np.where(valid, a.data[..., np.where(valid, source, 0)], 0.0)
    products = MDArray(window) * b
    return products.sum(axis=products.ndim - 1)


def horner(coefficients, points):
    """A stack of polynomials, each evaluated at its own point.

    ``coefficients`` holds the polynomials along its *last* element
    axis, constant term first (element shape ``(..., d+1)``), and
    ``points`` one point per polynomial (element shape ``(...)``) or
    one scalar for all; a real point array meets complex coefficients
    with an exact zero imaginary plane, as a real scalar does.  The
    sweep is ``d`` vectorized multiply-adds ``total * point + c_k``
    over the whole stack — the elementwise operations of a scalar
    Horner sweep, so every value carries the bits of its polynomial
    evaluated alone.
    """
    if _is_complex(coefficients) and isinstance(points, MDArray):
        points = _coerce_complex(points, coefficients.limbs)
    total = coefficients[..., -1].copy()
    for k in range(coefficients.shape[-1] - 2, -1, -1):
        total = total * points + coefficients[..., k]
    return total


def convolve_matvec(matrices, vectors):
    """Summed matrix-vector products ``sum_j A_j x_j``.

    ``matrices`` has shape ``(terms, n, n)`` and ``vectors``
    ``(terms, n)``; the result is the ``(n,)`` vector accumulated with
    pairwise sums — first within each matrix-vector product (as in
    :func:`matvec`), then across the terms.  This is the block Toeplitz
    right-hand-side update ``sum_j A_j x_{k-j}`` of the linearized
    power series solves, executed as one batched launch over all the
    coupling terms instead of one matvec per term.
    """
    if matrices.ndim != 3 or vectors.ndim != 2:
        raise ValueError("convolve_matvec expects (terms, n, n) and (terms, n)")
    terms, rows, cols = matrices.shape
    if vectors.shape != (terms, cols):
        raise ValueError(
            f"dimension mismatch: {matrices.shape} against {vectors.shape}"
        )
    row_products = matrices * vectors.reshape(terms, 1, cols)
    return row_products.sum(axis=2).sum(axis=0)


def cauchy_product_reduce(series_stack):
    """Pairwise Cauchy-product reduction of a stack of series.

    ``series_stack`` is an :class:`MDArray` whose **last** element axis
    indexes series coefficients and whose **second-to-last** element
    axis indexes the factors to be multiplied together (shape
    ``(..., L, K+1)``); the result of shape ``(..., K+1)`` is the
    truncated product of the ``L`` series, reduced with the same
    zero-padded pairwise (binary tree) scheme as :meth:`MDArray.sum
    <repro.vec.mdarray.MDArray.sum>` / :meth:`MDArray.prod
    <repro.vec.mdarray.MDArray.prod>` — an odd half is padded with the
    exact one series ``1 + 0 t + ...`` and the padded products are
    really executed.  Each level is one batched :func:`cauchy_product`
    launch sequence, so the multiplication depth is ``ceil(log2 L)``
    regardless of how many factors a power product carries.  This is
    the monomial-evaluation kernel of :mod:`repro.poly` on truncated
    series arguments.
    """
    if series_stack.ndim < 2:
        raise ValueError(
            "cauchy_product_reduce expects a factor axis and a coefficient axis"
        )
    if _is_complex(series_stack):
        # complex twin: the same pairwise tree on channel-stacked planes,
        # each combination one complex batched Cauchy product
        data = np.stack(
            [series_stack.real.data, series_stack.imag.data], axis=0
        )
        ax = data.ndim - 2  # the factor axis of the channel-stacked storage

        def combine_complex(first, second):
            a = MDComplexArray(MDArray(first[0]), MDArray(first[1]))
            b = MDComplexArray(MDArray(second[0]), MDArray(second[1]))
            c = cauchy_product(a, b)
            return np.stack([c.real.data, c.imag.data], axis=0)

        def complex_one_pad(shape):
            pad = np.zeros(shape)
            pad[0, 0, ..., 0] = 1.0  # the exact complex one series
            return pad

        out = pairwise_reduce(data, ax, combine_complex, complex_one_pad)
        return MDComplexArray(MDArray(out[0]), MDArray(out[1]))
    ax = series_stack.data.ndim - 2  # the factor axis of the storage array

    def combine(first, second):
        return cauchy_product(MDArray(first), MDArray(second)).data

    def one_series_pad(shape):
        pad = np.zeros(shape)
        pad[0, ..., 0] = 1.0  # the exact one series
        return pad

    return MDArray(
        pairwise_reduce(series_stack.data, ax, combine, one_series_pad)
    )


def transpose(a):
    """Plain transpose for real or complex matrices."""
    return a.T


def conjugate_transpose(a):
    """Transpose for real data, Hermitian transpose for complex data —
    the ``T``/``H`` dichotomy of the paper's update formulas."""
    if _is_complex(a):
        return a.H
    return a.T
