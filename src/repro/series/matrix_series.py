"""Linearized block-Toeplitz power series solves on batched right-hand sides.

A matrix series ``A(t) = A_0 + A_1 t + ... `` acting on an unknown
vector series ``x(t)`` produces the block *lower triangular Toeplitz*
system the paper's Section 1.1 describes: order ``k`` of
``A(t) x(t) = b(t)`` reads

    ``A_0 x_k = b_k - sum_{j=1..k} A_j x_{k-j}``.

Solving it therefore takes **one linear solve per series order, always
against the head matrix** ``A_0``.  This module factors ``A_0`` once
with the blocked Householder QR of :mod:`repro.core`, inverts the
diagonal tiles of its ``R`` once (stage 1 of Algorithm 1,
:func:`repro.batch.back_substitution.batched_invert_tiles`) and keeps
all the right-hand sides in one limb-major ``(n, K+1)`` coefficient
array:

* for a **constant head** (one matrix coefficient) every order
  decouples, so all the ``Q^H b_k`` products collapse into a single
  batched matrix-matrix launch against the whole right-hand-side
  array, followed by one substitution against the tile inverses
  (stage 2, :func:`~repro.batch.back_substitution.batched_substitution`)
  per order;
* when later matrix coefficients **couple** the orders, the solve
  walks the staircase order by order, with the right-hand-side
  convolution ``sum_j A_j x_{k-j}`` executed as one batched launch
  over all coupling terms (:func:`repro.vec.linalg.convolve_matvec`)
  and recorded as its own kernel stage
  (:data:`repro.core.stages.STAGE_SERIES_CONVOLVE`), then one ``Q^H r``
  product and one substitution per order.

A complex head takes real or complex right-hand sides (real ones are
promoted); a real head needs real ones.  The solve records the launches
of the cost model's :func:`repro.perf.costmodel.matrix_series_trace`
for its shape, including the batched ``Q^H B`` launch of the
constant-head path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..batch.back_substitution import batched_invert_tiles, batched_substitution
from ..core.blocked_qr import blocked_qr
from ..core.least_squares import resolve_tile_sizes
from ..core.tile_inverse import check_nonsingular
from ..gpu.kernel import KernelTrace
from ..obs.profile import profiled
from ..vec import linalg
from ..vec.complexmd import MDComplexArray
from ..vec.mdarray import MDArray
from .truncated import TruncatedSeries
from .vector import VectorSeries

__all__ = ["MatrixSeriesSolveResult", "solve_matrix_series", "series_from_vectors"]


@dataclass
class MatrixSeriesSolveResult:
    """Series solution of ``A(t) x(t) = b(t)`` with its kernel trace."""

    #: series coefficients of the solution, one ``(n,)`` array per order
    #: (views into :attr:`coefficient_array`)
    coefficients: list
    trace: KernelTrace
    tile_size: int
    bs_tile_size: int
    #: the whole solution as one batched ``(n, K+1)`` coefficient array
    #: (``None`` for complex data, which stays on the per-order layout)
    coefficient_array: object = None

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def dimension(self) -> int:
        return self.coefficients[0].shape[0]

    def vector_series(self) -> VectorSeries:
        """The solution as one :class:`~repro.series.vector.VectorSeries`."""
        if self.coefficient_array is None:
            raise TypeError(
                "complex solutions have no real VectorSeries view; read "
                "the per-order coefficients instead"
            )
        return VectorSeries(self.coefficient_array)

    def series(self) -> list:
        """One :class:`TruncatedSeries` per solution component."""
        return self.vector_series().components()

    def component(self, index: int) -> TruncatedSeries:
        """The series of one solution component."""
        return self.vector_series().component(index)


def series_from_vectors(vectors) -> list:
    """Transpose a list of per-order ``(n,)`` coefficient vectors into a
    list of ``n`` :class:`TruncatedSeries` (one limb-major stack)."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("need at least the order-zero coefficient vector")
    data = np.stack([v.data for v in vectors], axis=-1)
    return VectorSeries(MDArray(data)).components()


def _normalize_matrix_coefficients(matrix_coefficients):
    """Accept a single head matrix or a list of per-order matrices."""
    if isinstance(matrix_coefficients, (MDArray, MDComplexArray)):
        matrix_coefficients = [matrix_coefficients]
    matrix_coefficients = list(matrix_coefficients)
    if not matrix_coefficients:
        raise ValueError("need at least the head matrix A_0")
    head = matrix_coefficients[0]
    rows, cols = head.shape
    if rows != cols:
        raise ValueError("matrix series solves expect square matrices")
    for coefficient in matrix_coefficients[1:]:
        if coefficient.shape != head.shape:
            raise ValueError("all matrix series coefficients must share the shape")
        if coefficient.limbs != head.limbs:
            raise ValueError("all matrix series coefficients must share the precision")
    return matrix_coefficients


def _normalize_rhs(rhs_coefficients, n: int, complex_data: bool):
    """Normalize the right-hand side to its batched representation.

    Accepts a :class:`VectorSeries`, one batched ``(n, K+1)`` array, or
    the legacy list of per-order ``(n,)`` vectors.  Returns
    ``(batched, per_order)`` where ``batched`` is the ``(n, K+1)`` array
    (``None`` for complex data) and ``per_order`` the list of ``(n,)``
    columns.  Under a complex head (``complex_data``) real columns are
    promoted to complex ones with a zero imaginary part; under a real
    head a complex right-hand side raises ``ValueError``.
    """
    if isinstance(rhs_coefficients, VectorSeries):
        rhs_coefficients = rhs_coefficients.coefficients
    if isinstance(rhs_coefficients, MDArray) and rhs_coefficients.ndim == 2:
        if rhs_coefficients.shape[0] != n:
            raise ValueError("right-hand side length does not match the matrix")
        if rhs_coefficients.shape[1] < 1:
            raise ValueError("need at least the order-zero right-hand side")
        batched = rhs_coefficients
        per_order = [batched[:, k] for k in range(batched.shape[1])]
    else:
        per_order = list(rhs_coefficients)
        if not per_order:
            raise ValueError("need at least the order-zero right-hand side")
        for rhs in per_order:
            if rhs.shape[0] != n:
                raise ValueError("right-hand side length does not match the matrix")
        batched = None
    if complex_data:
        return None, [
            rhs
            if isinstance(rhs, MDComplexArray)
            else MDComplexArray(rhs, MDArray.zeros(rhs.shape, rhs.limbs))
            for rhs in per_order
        ]
    if any(isinstance(rhs, MDComplexArray) for rhs in per_order):
        raise ValueError(
            "a complex right-hand side needs a complex matrix; "
            "promote the matrix to MDComplexArray"
        )
    if batched is None:
        batched = MDArray(np.stack([v.data for v in per_order], axis=-1))
    return batched, per_order


@profiled("solve_matrix_series", trace_of=lambda result: result.trace)
def solve_matrix_series(
    matrix_coefficients,
    rhs_coefficients,
    *,
    tile_size=None,
    bs_tile_size=None,
    device="V100",
) -> MatrixSeriesSolveResult:
    """Solve ``A(t) x(t) = b(t)`` order by order.

    Parameters
    ----------
    matrix_coefficients:
        The series coefficients ``[A_0, A_1, ...]`` of the matrix (each
        an ``(n, n)`` :class:`~repro.vec.mdarray.MDArray`), or a single
        head matrix ``A_0`` for a constant (Jacobian-head) system.
    rhs_coefficients:
        The series coefficients of the right hand side: a batched
        ``(n, K+1)`` :class:`MDArray` (or
        :class:`~repro.series.vector.VectorSeries`), or the legacy list
        ``[b_0, b_1, ..., b_K]`` of ``(n,)`` arrays; the order count
        fixes the truncation order ``K`` of the solution.  Under a
        complex head real vectors are promoted to complex ones; a real
        head with complex vectors raises ``ValueError``.
    tile_size:
        Panel width of the one-off QR factorization of ``A_0``
        (defaults as in :func:`repro.core.least_squares.lstsq`).
    bs_tile_size:
        Tile size of the triangular solves against ``R`` (one tile
        inversion, then one substitution per order; defaults to
        ``tile_size``).
    device:
        Simulated device the kernel launches are attributed to.

    The result's trace holds the launches of
    :func:`repro.perf.costmodel.matrix_series_trace`.
    """
    from ..perf.costmodel import matrix_series_trace

    matrix_coefficients = _normalize_matrix_coefficients(matrix_coefficients)
    head = matrix_coefficients[0]
    n = head.shape[0]
    complex_data = isinstance(head, MDComplexArray)
    batched_rhs, rhs_list = _normalize_rhs(rhs_coefficients, n, complex_data)
    tile_size, bs_tile_size = resolve_tile_sizes(n, tile_size, bs_tile_size)

    order = len(rhs_list) - 1
    limbs = head.limbs
    matrix_terms = len(matrix_coefficients)

    qr = blocked_qr(head, tile_size, device=device)
    q_conjugate = linalg.conjugate_transpose(qr.Q)
    # stage 1 of Algorithm 1 once: every order solves against this R
    uppers = qr.R[:n, :n].reshape(1, n, n)
    inverses = batched_invert_tiles(uppers, bs_tile_size, device=device)
    check_nonsingular(uppers[0])

    def substitute(qhb):
        return batched_substitution(
            uppers, inverses, qhb.reshape(1, n), device=device
        ).x[0]

    solution = []
    if matrix_terms == 1:
        # constant head: the orders decouple, so all Q^H b_k products
        # run as one batched matrix-matrix launch over the whole
        # right-hand-side array
        if complex_data:
            rhs_matrix = _stack_complex_columns(rhs_list)
        else:
            rhs_matrix = batched_rhs
        qhb_all = linalg.matmul(q_conjugate, rhs_matrix)
        for k in range(order + 1):
            solution.append(substitute(qhb_all[:n, k]))
    else:
        # coupled orders: one convolution + Q^H r + substitution
        # per order, the convolution batched over the coupling terms
        if not complex_data:
            coupling = MDArray(
                np.stack([a.data for a in matrix_coefficients[1:]], axis=1)
            )
        for k in range(order + 1):
            rhs = rhs_list[k]
            terms = min(k, matrix_terms - 1)
            if terms > 0:
                if complex_data:
                    update = linalg.matvec(matrix_coefficients[1], solution[k - 1])
                    for j in range(2, terms + 1):
                        update = update + linalg.matvec(
                            matrix_coefficients[j], solution[k - j]
                        )
                    rhs = rhs - update
                else:
                    previous = MDArray(
                        np.stack(
                            [solution[k - j].data for j in range(1, terms + 1)],
                            axis=1,
                        )
                    )
                    rhs = rhs - linalg.convolve_matvec(
                        MDArray(coupling.data[:, :terms]), previous
                    )
            qhb = linalg.matvec(q_conjugate, rhs)
            solution.append(substitute(qhb[:n]))

    trace = matrix_series_trace(
        n,
        order,
        limbs,
        matrix_terms=matrix_terms,
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        device=device,
        complex_data=complex_data,
        trace=KernelTrace(device, label=f"matrix series solve dim={n} order={order}"),
    )
    coefficient_array = None
    if not complex_data:
        coefficient_array = MDArray(
            np.stack([v.data for v in solution], axis=-1)
        )
        solution = [coefficient_array[:, k] for k in range(order + 1)]
    return MatrixSeriesSolveResult(
        coefficients=solution,
        trace=trace,
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        coefficient_array=coefficient_array,
    )


def _stack_complex_columns(rhs_list):
    """Batch complex per-order vectors into one ``(n, K+1)`` array."""
    real = MDArray(np.stack([v.real.data for v in rhs_list], axis=-1))
    imag = MDArray(np.stack([v.imag.data for v in rhs_list], axis=-1))
    return MDComplexArray(real, imag)
