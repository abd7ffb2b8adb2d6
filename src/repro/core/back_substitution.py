"""Algorithm 1: tiled accelerated back substitution.

The upper triangular coefficient matrix is divided into ``N`` tiles of
size ``n``.  Stage 1 inverts all diagonal tiles (one block of ``n``
threads per tile, all tiles in parallel); stage 2 walks the tiles from
the last to the first, computing ``x_i = U_i^{-1} b_i`` with one block
and updating every remaining right-hand side block
``b_j := b_j - A_{j,i} x_i`` with one block each, for a total of
``1 + N(N+1)/2`` kernel launches.

:func:`tiled_back_substitution` is a batch of one: it runs
:func:`repro.batch.back_substitution.batched_back_substitution`, the
library's one implementation of Algorithm 1, on a leading batch axis of
1 and returns slice 0.  That driver performs the arithmetic (on
:class:`~repro.vec.mdarray.MDArray` / complex data) and records one
:class:`~repro.gpu.kernel.KernelLaunch` per (simulated) kernel with the
operation tally and global memory traffic the paper's instrumentation
would report.  Where the batched driver lets a singular system poison
its own slice, this entry point raises ``ZeroDivisionError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.kernel import KernelTrace
from ..obs.profile import profiled
from .tile_inverse import check_nonsingular

__all__ = [
    "BackSubstitutionResult",
    "tiled_back_substitution",
    "solve_upper_triangular",
    "paper_launch_count",
    "TILE_INVERSION_EFFICIENCY",
    "BS_MULTIPLY_EFFICIENCY",
    "BS_UPDATE_EFFICIENCY",
]

#: Relative throughput of the tile inversion kernel: each thread walks a
#: serial row-by-row dependency chain with divergent trip counts, so it
#: sustains a much smaller fraction of the device's multiple double
#: throughput than the streaming matrix kernels.  Calibrated against the
#: "invert diagonal tiles" rows of Table 9.
TILE_INVERSION_EFFICIENCY = 0.45

#: Relative throughput of the x_i = U_i^{-1} b_i kernels (one block, each
#: thread accumulates one serial dot product); "multiply with inverses"
#: rows of Table 9.
BS_MULTIPLY_EFFICIENCY = 0.55

#: Relative throughput of the right-hand-side update kernels
#: ("back substitution" rows of Table 9).
BS_UPDATE_EFFICIENCY = 0.40


def paper_launch_count(tiles: int) -> int:
    """The ``1 + N(N+1)/2`` launch count quoted for Algorithm 1.

    The paper counts every right-hand-side block update as its own
    launch; this implementation groups the ``i-1`` simultaneous updates
    of step 2(b) into a single launch with ``i-1`` blocks (the work and
    the block tasks are identical), so its traces contain ``2N`` launches
    while the number of *block tasks* matches the paper's formula.
    """
    return 1 + tiles * (tiles + 1) // 2


@dataclass
class BackSubstitutionResult:
    """Solution of ``U x = b`` together with its kernel trace."""

    x: object
    trace: KernelTrace
    tile_size: int
    tiles: int

    @property
    def dimension(self) -> int:
        return self.tile_size * self.tiles


@profiled("tiled_back_substitution", trace_of=lambda result: result.trace)
def tiled_back_substitution(matrix, rhs, tile_size, device="V100", trace=None):
    """Solve the upper triangular system ``U x = b`` with Algorithm 1.

    Parameters
    ----------
    matrix:
        Upper triangular ``(dim, dim)`` multiple double matrix (real or
        complex).  Entries below the diagonal are ignored.
    rhs:
        Right-hand side of length ``dim``; real on a real matrix, real
        or complex on a complex one.
    tile_size:
        Size ``n`` of the diagonal tiles; must divide ``dim``.
    device:
        Simulated device the kernel launches are attributed to.
    trace:
        Optional existing :class:`KernelTrace` to append to (used by the
        least squares driver); a new one is created otherwise.

    Returns
    -------
    BackSubstitutionResult

    Raises
    ------
    ZeroDivisionError
        When a diagonal entry of ``matrix`` has a zero leading limb.
    """
    from ..batch.back_substitution import batched_back_substitution

    bs = batched_back_substitution(
        matrix.reshape(1, *matrix.shape),
        rhs.reshape(1, *rhs.shape),
        tile_size,
        device=device,
        trace=trace,
    )
    check_nonsingular(matrix)
    return BackSubstitutionResult(
        x=bs.x[0], trace=bs.trace, tile_size=bs.tile_size, tiles=bs.tiles
    )


def solve_upper_triangular(matrix, rhs, tile_size=None, device="V100", trace=None):
    """Convenience wrapper returning only the solution vector.

    When ``tile_size`` is omitted a tile size close to the square root
    of the dimension (rounded to a divisor) is chosen, mirroring the
    paper's observation that the two stages balance when ``n ~ N``.
    """
    if tile_size is None:
        tile_size = _default_tile_size(matrix.shape[0])
    return tiled_back_substitution(matrix, rhs, tile_size, device=device, trace=trace).x


def _default_tile_size(dim: int) -> int:
    best = 1
    target = dim ** 0.5
    for candidate in range(1, dim + 1):
        if dim % candidate == 0 and abs(candidate - target) < abs(best - target):
            best = candidate
    return best
