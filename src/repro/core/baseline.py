"""Baseline algorithms used for comparison and validation.

* :func:`unblocked_householder_qr` — the classical (non-blocked)
  Householder QR, applying each reflector to the whole trailing matrix;
  same arithmetic, no WY aggregation, hence no matrix-matrix products.
  The blocked algorithm of the paper is validated against it and the
  ablation benchmark compares their (simulated) kernel profiles.
* :func:`classical_back_substitution` — the sequential textbook back
  substitution (no tiling, no tile inversion), the serial baseline of
  Algorithm 1.
* :func:`numpy_lstsq_double` — hardware double precision reference via
  NumPy, used to show what the extra precision buys.
"""

from __future__ import annotations

import numpy as np

from ..gpu.kernel import KernelTrace
from ..gpu.memory import md_bytes
from ..vec import batched as vb
from ..vec import linalg
from ..vec.complexmd import MDComplexArray
from ..vec.mdarray import MDArray
from . import stages
from .tile_inverse import solve_upper_triangular_dense

__all__ = [
    "unblocked_householder_qr",
    "classical_back_substitution",
    "numpy_lstsq_double",
]


def unblocked_householder_qr(matrix, device="V100", trace=None):
    """Classical Householder QR without blocking.

    Returns ``(Q, R, trace)``.  Each reflector is applied immediately to
    the whole trailing matrix and accumulated into ``Q``; all work is
    matrix-vector shaped, which is why the blocked variant (rich in
    matrix-matrix products) is preferred on GPUs.
    """
    if matrix.ndim != 2:
        raise ValueError("expected a matrix")
    rows, cols = matrix.shape
    if rows < cols:
        raise ValueError("expected rows >= cols")
    complex_data = isinstance(matrix, MDComplexArray)
    limbs = matrix.limbs
    if trace is None:
        trace = KernelTrace(device, label=f"unblocked QR {rows}x{cols}")

    R = matrix.copy()
    Q = linalg.identity(rows, limbs, complex_data=complex_data)

    for j in range(cols):
        length = rows - j
        v, beta, _ = vb.batched_householder_vector(R[j:rows, j].reshape(1, length))
        v, beta = v[0], beta[0]
        trace.add(
            "householder",
            stages.STAGE_BETA_V,
            blocks=1,
            threads_per_block=min(length, 128),
            limbs=limbs,
            tally=stages.tally_householder_vector(length, complex_data),
            bytes_read=md_bytes(length, limbs, complex_data),
            bytes_written=md_bytes(length + 1, limbs, complex_data),
        )

        # apply the reflector to the trailing columns of R
        block = R[j:rows, j:cols]
        if complex_data:
            t = linalg.matvec(linalg.transpose(block), v.conj())
        else:
            t = linalg.matvec(linalg.transpose(block), v)
        w = t * beta
        R[j:rows, j:cols] = block - linalg.outer(v, w)
        trailing = cols - j
        trace.add(
            "apply_reflector_r",
            stages.STAGE_UPDATE_R,
            blocks=1,
            threads_per_block=min(length, 128),
            limbs=limbs,
            tally=stages.tally_matvec(trailing, length, complex_data)
            + stages.tally_rank1_update(length, trailing, complex_data),
            bytes_read=md_bytes(2 * length * trailing, limbs, complex_data),
            bytes_written=md_bytes(length * trailing, limbs, complex_data),
        )
        if length > 1:
            zero_tail = (
                MDComplexArray.zeros((length - 1,), limbs)
                if complex_data
                else MDArray.zeros((length - 1,), limbs)
            )
            R[j + 1 : rows, j] = zero_tail

        # accumulate Q := Q P  (columns j.. only)
        qblock = Q[:, j:rows]
        qv = linalg.matvec(qblock, v)
        qw = qv * beta
        Q[:, j:rows] = qblock - linalg.outer(qw, v.conj() if complex_data else v)
        trace.add(
            "apply_reflector_q",
            stages.STAGE_QWYT,
            blocks=1,
            threads_per_block=min(length, 128),
            limbs=limbs,
            tally=stages.tally_matvec(rows, length, complex_data)
            + stages.tally_rank1_update(rows, length, complex_data),
            bytes_read=md_bytes(2 * rows * length, limbs, complex_data),
            bytes_written=md_bytes(rows * length, limbs, complex_data),
        )

    return Q, R, trace


def classical_back_substitution(matrix, rhs, device="V100", trace=None):
    """Sequential, untiled back substitution ``U x = b``.

    Returns ``(x, trace)``; the trace contains one launch per row with a
    single thread block, which is what makes the baseline unable to
    occupy a GPU.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square upper triangular matrix")
    if rhs.shape[0] != matrix.shape[0]:
        raise ValueError("right-hand side length does not match")
    n = matrix.shape[0]
    complex_data = isinstance(matrix, MDComplexArray)
    if trace is None:
        trace = KernelTrace(device, label=f"classical back substitution dim={n}")
    x = solve_upper_triangular_dense(matrix, rhs)
    for i in range(n - 1, -1, -1):
        terms = n - 1 - i
        trace.add(
            "row_solve",
            stages.STAGE_BACK_SUBSTITUTION,
            blocks=1,
            threads_per_block=32,
            limbs=matrix.limbs,
            tally=stages.tally_matvec(1, max(terms, 1), complex_data)
            + stages.OperationTally(divisions=1),
            bytes_read=md_bytes(terms + 2, matrix.limbs, complex_data),
            bytes_written=md_bytes(1, matrix.limbs, complex_data),
        )
    return x, trace


def numpy_lstsq_double(matrix, rhs):
    """Hardware double precision least squares via NumPy (the ``1d``
    column of the paper's tables, morally).

    Accepts multiple double inputs (rounded to double) or plain NumPy
    arrays; returns the double precision solution as a NumPy array.
    """
    if isinstance(matrix, MDComplexArray):
        a = matrix.to_complex()
    elif isinstance(matrix, MDArray):
        a = matrix.to_double()
    else:
        a = np.asarray(matrix)
    if isinstance(rhs, MDComplexArray):
        b = rhs.to_complex()
    elif isinstance(rhs, MDArray):
        b = rhs.to_double()
    else:
        b = np.asarray(rhs)
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    return solution
