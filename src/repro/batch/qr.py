"""Batched blocked Householder QR: ``b`` factorizations per launch.

:func:`batched_blocked_qr` is the library's one implementation of
Algorithm 2 of the paper, executed on a ``(b, rows, cols)`` batch of
matrices (:func:`repro.core.blocked_qr.blocked_qr` runs it on a batch
of one): every stage — Householder vectors, panel updates, WY
accumulation, ``Q``/trailing-column updates — runs as **one**
vectorized limb operation over all ``b`` systems, so the kernel launch
count is flat in the batch size while the work per launch scales
linearly.  The driver records the launches of the cost model's
:func:`repro.perf.costmodel.batched_qr_trace` for its shape: the one
description of Algorithm 2's launch geometry, tallies and traffic.

The arithmetic per batch slice is bit-identical to the unbatched panel
loop kept as the test oracle ``tests/oracles/dense.py``: the batched
kernels of :mod:`repro.vec.batched` reuse the same generic limb
operations and the same pairwise reduction trees, and the panel logic
below follows the oracle's control flow statement for statement (there
is no data-dependent branching in the blocked QR other than the
zero-column degeneracy, which
:func:`repro.vec.batched.batched_householder_vector` patches per batch
member).

A singular or zero system poisons only its own batch slice (its
reflectors degenerate to the identity and later triangular solves
produce non-finite entries in that slice alone); its batch mates are
unaffected — the property the path fleets rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.kernel import KernelTrace
from ..obs.profile import profiled
from ..vec import batched as vb
from ..vec.complexmd import MDComplexArray, finite_mask
from ..vec.mdarray import MDArray

__all__ = ["BatchedQRResult", "batched_blocked_qr"]


@dataclass
class BatchedQRResult:
    """``b`` QR factorizations ``A_i = Q_i R_i`` with one shared trace."""

    #: orthogonal factors, shape ``(b, rows, rows)``
    Q: MDArray
    #: upper triangular factors, shape ``(b, rows, cols)``
    R: MDArray
    trace: KernelTrace
    tile_size: int
    tiles: int

    @property
    def batch(self) -> int:
        return self.R.shape[0]

    @property
    def shape(self) -> tuple:
        """Shape of one system (without the batch axis)."""
        return self.R.shape[1:]

    def system(self, index: int) -> tuple:
        """``(Q_i, R_i)`` of one batch member (copied)."""
        return self.Q[index].copy(), self.R[index].copy()

    def finite_systems(self) -> np.ndarray:
        """Boolean mask of batch members whose factors are finite.

        Storage is ``(m, b, rows, cols)``: the limb axis leads, so the
        reduction keeps only the batch axis."""
        return finite_mask(self.Q, axis=(0, 2, 3)) & finite_mask(
            self.R, axis=(0, 2, 3)
        )


@profiled("batched_qr", trace_of=lambda result: result.trace)
def batched_blocked_qr(matrices, tile_size, device="V100", trace=None) -> BatchedQRResult:
    """Factor ``A_i = Q_i R_i`` for a ``(b, rows, cols)`` batch.

    Parameters mirror :func:`repro.core.blocked_qr.blocked_qr`;
    ``matrices`` carries one extra leading batch axis.  Each batch
    slice of the result is bit-identical to factoring the corresponding
    matrix alone.  The launches are those of
    :func:`repro.perf.costmodel.batched_qr_trace`, appended to
    ``trace`` (a new trace by default).
    """
    from ..perf.costmodel import batched_qr_trace

    batch, rows, cols = _check_batch(matrices)
    n = tile_size
    if n <= 0 or cols % n != 0:
        raise ValueError(f"tile size {tile_size} must divide the column count {cols}")
    tiles = cols // n
    complex_data = isinstance(matrices, MDComplexArray)
    limbs = matrices.limbs
    if trace is None:
        trace = KernelTrace(
            device, label=f"batched QR b={batch} {rows}x{cols}, {tiles}x{n}"
        )

    R = matrices.copy()
    Q = vb.batched_identity(batch, rows, limbs, complex_data=complex_data)

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(tiles):
            col0 = k * n
            r = rows - col0  # panel height, from the diagonal block downwards

            # ----------------------------------------------------------
            # 1. panel factorization: Householder vectors column by column
            # ----------------------------------------------------------
            vectors, betas = [], []
            for l in range(n):
                j = col0 + l
                length = rows - j
                column = R[:, j:rows, j]  # (b, length)
                v, beta, _ = vb.batched_householder_vector(column)

                # t = beta * (panel block)^H v   (stage beta*R^T*v)
                block = R[:, j:rows, j : col0 + n]  # (b, length, col0 + n - j)
                t = vb.batched_matvec(
                    vb.batched_transpose(block),
                    v.conj() if complex_data else v,
                )
                w = t * beta.reshape(batch, 1)

                # rank-1 update of the panel (stage update R)
                R[:, j:rows, j : col0 + n] = block - vb.batched_outer(v, w)

                # the reflector annihilates the subdiagonal of column j exactly
                if length > 1:
                    zero_tail = (
                        MDComplexArray.zeros((batch, length - 1), limbs)
                        if complex_data
                        else MDArray.zeros((batch, length - 1), limbs)
                    )
                    R[:, j + 1 : rows, j] = zero_tail

                # embed v into the panel-height vector stored in Y
                padded = (
                    MDComplexArray.zeros((batch, r), limbs)
                    if complex_data
                    else MDArray.zeros((batch, r), limbs)
                )
                padded[:, l:] = v
                vectors.append(padded)
                betas.append(beta)

            # ----------------------------------------------------------
            # 2. aggregate the panel reflectors: W, Y and YWT = Y W^H
            # ----------------------------------------------------------
            W, Y = _batched_accumulate_wy(vectors, betas)
            YWT = vb.batched_matmul(Y, vb.batched_conjugate_transpose(W))

            # ----------------------------------------------------------
            # 3. update Q in two stages: QWY := Q * WY^H, then Q += QWY
            # ----------------------------------------------------------
            WYH = vb.batched_conjugate_transpose(YWT)
            QWY = vb.batched_matmul(Q[:, :, col0:rows], WYH)
            Q[:, :, col0:rows] = Q[:, :, col0:rows] + QWY

            # ----------------------------------------------------------
            # 4. update the trailing columns: YWTC := YWT * C, then R += YWTC
            # ----------------------------------------------------------
            if k < tiles - 1:
                C = R[:, col0:rows, col0 + n : cols]
                YWTC = vb.batched_matmul(YWT, C)
                R[:, col0:rows, col0 + n : cols] = C + YWTC

    trace.extend(batched_qr_trace(batch, rows, cols, n, limbs, device, complex_data))
    return BatchedQRResult(Q=Q, R=R, trace=trace, tile_size=n, tiles=tiles)


def _batched_accumulate_wy(vectors, betas):
    """WY accumulation over the batch (formula 16, one launch per column).

    Aggregates the panel reflectors into ``P_1 ... P_n = I + W Y^H``
    [Bischof & Van Loan 1987] from ``(b, r)`` vectors and ``(b,)``
    betas, with the columns of ``W`` following formula (16) of the
    paper, ``z = -beta (v + W Y^H v)`` (Hermitian transpose on complex
    data); each slice is bit-identical to the unbatched accumulation
    of the test oracle ``tests/oracles/dense.py``.
    """
    batch, r = vectors[0].shape
    n = len(vectors)
    limbs = vectors[0].limbs
    complex_data = isinstance(vectors[0], MDComplexArray)
    make_zeros = MDComplexArray.zeros if complex_data else MDArray.zeros
    W = make_zeros((batch, r, n), limbs)
    Y = make_zeros((batch, r, n), limbs)
    for l, (v, beta) in enumerate(zip(vectors, betas)):
        Y[:, :, l] = v
        beta_column = beta.reshape(batch, 1)
        if l == 0:
            z = -(v * beta_column)
        else:
            # z = -beta (v + W[:, :, :l] (Y[:, :, :l]^H v))
            yhv = vb.batched_matvec(
                vb.batched_conjugate_transpose(Y[:, :, :l]), v
            )
            wyhv = vb.batched_matvec(W[:, :, :l], yhv)
            z = -((v + wyhv) * beta_column)
        W[:, :, l] = z
    return W, Y


def _check_batch(matrices) -> tuple:
    if matrices.ndim != 3:
        raise ValueError("batched_blocked_qr expects a (b, rows, cols) batch")
    batch, rows, cols = matrices.shape
    if batch < 1:
        raise ValueError("the batch must contain at least one system")
    if rows < cols:
        raise ValueError("batched_blocked_qr expects rows >= cols")
    return batch, rows, cols
