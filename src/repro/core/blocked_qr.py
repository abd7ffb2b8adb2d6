"""Algorithm 2: blocked accelerated Householder QR.

The matrix is processed in ``N`` column panels ("tiles") of width
``n``.  For every panel, Householder vectors and betas are computed
column by column and immediately applied to the remaining panel columns
(stages ``beta, v``, ``beta*R^T*v`` and ``update R``); the reflectors
are then aggregated into the WY representation (stage ``compute W`` and
``Y*W^T``), and the orthogonal factor and the trailing columns are
updated with matrix-matrix products (stages ``Q*WY^T``, ``YWT*C``) and
matrix additions (``Q + QWY``, ``R + YWTC``) — the staging, the stage
names and the kernel launch geometry follow Section 3 of the paper.

:func:`blocked_qr` is a batch of one: it runs
:func:`repro.batch.qr.batched_blocked_qr`, the library's one
implementation of Algorithm 2, on a leading batch axis of 1 and returns
slice 0.  The numerics are executed for real on limb-major multiple
double arrays; every (simulated) kernel is recorded in a
:class:`~repro.gpu.kernel.KernelTrace` with its operation tally and
memory traffic so the performance model can attribute times at any
device, and so the per-stage breakdown of the paper's tables can be
regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.kernel import KernelTrace
from ..obs.profile import profiled

__all__ = ["QRResult", "blocked_qr"]


@dataclass
class QRResult:
    """QR factorization ``A = Q R`` together with its kernel trace."""

    Q: object
    R: object
    trace: KernelTrace
    tile_size: int
    tiles: int

    @property
    def shape(self) -> tuple:
        return self.R.shape


@profiled("blocked_qr", trace_of=lambda result: result.trace)
def blocked_qr(matrix, tile_size, device="V100", trace=None):
    """Factor ``A = Q R`` with the blocked accelerated Householder QR.

    Parameters
    ----------
    matrix:
        ``(M, cols)`` real or complex multiple double matrix with
        ``M >= cols``.
    tile_size:
        Panel width ``n``; must divide ``cols``.  The paper ties the
        number of threads per block to the tile size, and so do the
        launch records produced here.
    device:
        Simulated device for the kernel trace.
    trace:
        Optional existing trace to append to.

    Returns
    -------
    QRResult with ``Q`` of shape ``(M, M)`` and ``R`` of shape
    ``(M, cols)`` (upper triangular).
    """
    from ..batch.qr import batched_blocked_qr

    qr = batched_blocked_qr(
        matrix.reshape(1, *matrix.shape), tile_size, device=device, trace=trace
    )
    return QRResult(
        Q=qr.Q[0], R=qr.R[0], trace=qr.trace, tile_size=qr.tile_size, tiles=qr.tiles
    )
