"""Batched least squares: ``b`` solves ``min ||b_i - A_i x_i||`` per launch.

The combination reported in Table 11 of the paper — blocked Householder
QR plus tiled back substitution — executed over a ``(b, rows, cols)``
batch of matrices and ``(b, rows)`` right-hand sides, with the two
phases' traces kept separate
(:func:`repro.core.least_squares.lstsq` runs it on a batch of one).
Launches stay flat in ``b``; every batch slice of the solution is
bit-identical to the unbatched solver of the test oracle
``tests/oracles/dense.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.least_squares import resolve_tile_sizes
from ..gpu.kernel import KernelTrace
from ..obs.profile import profiled
from ..vec import batched as vb
from ..vec.complexmd import MDComplexArray, finite_mask
from ..vec.mdarray import MDArray
from .back_substitution import _check_rhs, batched_back_substitution
from .qr import batched_blocked_qr

__all__ = ["BatchedLeastSquaresResult", "batched_least_squares", "batched_solve"]


@dataclass
class BatchedLeastSquaresResult:
    """Solutions of ``b`` least squares problems with their traces."""

    #: solutions, shape ``(b, cols)``
    x: MDArray
    Q: MDArray
    R: MDArray
    qr_trace: KernelTrace
    bs_trace: KernelTrace
    tile_size: int

    @property
    def batch(self) -> int:
        return self.x.shape[0]

    @property
    def combined_trace(self) -> KernelTrace:
        trace = KernelTrace(
            self.qr_trace.device, label=f"batched least squares b={self.batch}"
        )
        trace.extend(self.qr_trace)
        trace.extend(self.bs_trace)
        return trace

    def finite_systems(self) -> np.ndarray:
        """Boolean mask of batch members with finite solutions."""
        return finite_mask(self.x, axis=(0, 2))


@profiled(
    "batched_lstsq",
    trace_of=lambda result: (result.qr_trace, result.bs_trace),
)
def batched_least_squares(
    matrices, rhs, tile_size=None, bs_tile_size=None, device="V100"
) -> BatchedLeastSquaresResult:
    """Solve ``min_x ||b_i - A_i x_i||`` for every system of a batch.

    Parameters mirror :func:`repro.core.least_squares.lstsq`;
    ``matrices`` has shape ``(b, rows, cols)`` (``rows >= cols``, shared
    by the whole batch) and ``rhs`` shape ``(b, rows)``.  Tile defaults
    resolve through the same rule for every batch size, so the launch
    sequence (and hence the numerics) of each slice match solving that
    system alone bit for bit.  A complex right-hand side needs a
    complex matrix; both must share the precision.
    """
    from ..perf.costmodel import _apply_qt_launch

    if matrices.ndim != 3:
        raise ValueError("batched_least_squares expects a (b, rows, cols) batch")
    batch, rows, cols = matrices.shape
    if rhs.ndim != 2 or rhs.shape != (batch, rows):
        raise ValueError("right-hand sides must have shape (b, rows)")
    _check_rhs(matrices, rhs)
    tile_size, bs_tile_size = resolve_tile_sizes(cols, tile_size, bs_tile_size)

    qr = batched_blocked_qr(matrices, tile_size, device=device)

    complex_data = isinstance(matrices, MDComplexArray)
    bs_trace = KernelTrace(
        device, label=f"batched least squares back substitution b={batch} dim={cols}"
    )
    qhb = vb.batched_apply_qt(qr.Q, rhs)
    bs_trace.record(
        _apply_qt_launch(rows, tile_size, matrices.limbs, complex_data).batched(batch)
    )

    uppers = qr.R[:, :cols, :cols]
    bs = batched_back_substitution(
        uppers, qhb[:, :cols], bs_tile_size, device=device, trace=bs_trace
    )

    return BatchedLeastSquaresResult(
        x=bs.x,
        Q=qr.Q,
        R=qr.R,
        qr_trace=qr.trace,
        bs_trace=bs.trace,
        tile_size=tile_size,
    )


def batched_solve(matrices, rhs, tile_size=None, device="V100") -> MDArray:
    """Solve a batch of square systems ``A_i x_i = b_i``; returns only
    the ``(b, dim)`` solution array."""
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError("batched_solve expects square systems; use batched_least_squares")
    return batched_least_squares(matrices, rhs, tile_size=tile_size, device=device).x
