"""Least squares solver: blocked Householder QR + tiled back substitution.

``min_x ||b - A x||_2`` is solved through ``A = Q R`` and the upper
triangular solve ``R x = Q^H b``, the combination reported in Table 11
of the paper.  The kernel traces of the two phases are kept separate
(the paper reports "QR" and "BS" rows independently) and are also
available combined.

:func:`lstsq` is a batch of one: it runs
:func:`repro.batch.least_squares.batched_least_squares` on a leading
batch axis of 1 and returns slice 0.  This module keeps the tile-size
rule (:func:`resolve_tile_sizes`) that every dense solver and its
cost-model twin share.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from ..gpu.kernel import KernelTrace
from ..obs.profile import profiled
from ..vec import linalg
from .tile_inverse import check_nonsingular

__all__ = ["LeastSquaresResult", "lstsq", "solve", "resolve_tile_sizes"]

#: Stage name of the ``Q^H b`` matrix-vector product that links the QR
#: factorization to the triangular solve.
STAGE_APPLY_QT = "Q^H * b"


@dataclass
class LeastSquaresResult:
    """Solution of a least squares problem with its execution traces."""

    x: object
    Q: object
    R: object
    qr_trace: KernelTrace
    bs_trace: KernelTrace
    tile_size: int

    @property
    def combined_trace(self) -> KernelTrace:
        trace = KernelTrace(self.qr_trace.device, label="least squares (QR + BS)")
        trace.extend(self.qr_trace)
        trace.extend(self.bs_trace)
        return trace

    def residual_norm(self, matrix, rhs) -> float:
        """Double precision estimate of ``||b - A x||_2``."""
        return linalg.residual_norm(matrix, self.x, rhs)


@profiled("lstsq", trace_of=lambda result: (result.qr_trace, result.bs_trace))
def lstsq(matrix, rhs, tile_size=None, bs_tile_size=None, device="V100"):
    """Solve ``min_x ||b - A x||`` in multiple double precision.

    Parameters
    ----------
    matrix:
        ``(M, p)`` real or complex multiple double matrix, ``M >= p``.
    rhs:
        Right-hand side of length ``M``, of the matrix's precision; real
        on a real matrix, real or complex on a complex one.
    tile_size:
        Panel width of the QR factorization (defaults to ``p // 8`` as in
        the paper's 1,024 = 8 x 128 runs, clamped to at least 1 and to a
        divisor of ``p``).
    bs_tile_size:
        Tile size of the back substitution (defaults to ``tile_size``).
    device:
        Simulated device for both traces.

    Raises
    ------
    ZeroDivisionError
        When a diagonal entry of ``R`` has a zero leading limb, as for
        a matrix with a zero column.
    """
    from ..batch.least_squares import batched_least_squares

    solution = batched_least_squares(
        matrix.reshape(1, *matrix.shape),
        rhs.reshape(1, *rhs.shape),
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        device=device,
    )
    cols = matrix.shape[1]
    check_nonsingular(solution.R[0, :cols, :cols])
    return LeastSquaresResult(
        x=solution.x[0],
        Q=solution.Q[0],
        R=solution.R[0],
        qr_trace=solution.qr_trace,
        bs_trace=solution.bs_trace,
        tile_size=solution.tile_size,
    )


def solve(matrix, rhs, tile_size=None, device="V100"):
    """Solve a square linear system ``A x = b`` (least squares with a
    square matrix); returns only the solution vector."""
    rows, cols = matrix.shape
    if rows != cols:
        raise ValueError("solve expects a square matrix; use lstsq otherwise")
    return lstsq(matrix, rhs, tile_size=tile_size, device=device).x


def _default_tile_size(cols: int) -> int:
    """The paper's default split: eight panels when possible."""
    if cols >= 8 and cols % 8 == 0:
        return cols // 8
    for candidate in range(min(128, cols), 0, -1):
        if cols % candidate == 0:
            return candidate
    return 1


def resolve_tile_sizes(cols: int, tile_size=None, bs_tile_size=None) -> tuple:
    """Resolve the QR panel width and back substitution tile defaults.

    The single source of the default rule shared by :func:`lstsq`, the
    series solvers (:mod:`repro.series`) and the analytic cost model
    (:mod:`repro.perf.costmodel`), whose traces the drivers record.
    A given tile size must be a positive integer (``ValueError``
    otherwise); whether it divides ``cols`` is left to the drivers.
    """
    for name, value in (("tile_size", tile_size), ("bs_tile_size", bs_tile_size)):
        if value is not None and (not isinstance(value, Integral) or value < 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if tile_size is None:
        tile_size = _default_tile_size(cols)
    if bs_tile_size is None:
        bs_tile_size = tile_size if cols % tile_size == 0 else _default_tile_size(cols)
    return tile_size, bs_tile_size
