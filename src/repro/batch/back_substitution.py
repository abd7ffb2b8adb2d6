"""Batched tiled back substitution: ``b`` triangular solves per launch.

The library's one implementation of Algorithm 1 of the paper, on a
``(b, dim, dim)`` batch of upper triangular systems
(:func:`repro.core.back_substitution.tiled_back_substitution` runs it on
a batch of one): all diagonal tiles of **all** systems are inverted in
one launch, and every stage-2 step advances all ``b`` right-hand sides
at once.  The launch count is that of one system (flat in ``b``); the
block counts, tallies and memory traffic scale linearly.  The driver
records the launches of the cost model's
:func:`repro.perf.costmodel.batched_back_substitution_trace` for its
shape.

Per batch slice the arithmetic is bit-identical to the unbatched tile
inversion and stage-2 loop kept as the test oracle
``tests/oracles/dense.py``.  A singular system does **not** raise here
(the unbatched entry point does): its divisions produce non-finite
entries confined to its own batch slice (``finite_systems`` on the
result reports which members survived), so one bad system cannot take
down a fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.kernel import KernelTrace
from ..obs.profile import profiled
from ..vec import batched as vb
from ..vec.complexmd import MDComplexArray, finite_mask
from ..vec.mdarray import MDArray

__all__ = [
    "BatchedBackSubstitutionResult",
    "batched_invert_upper_triangular",
    "batched_back_substitution",
]


@dataclass
class BatchedBackSubstitutionResult:
    """Solutions of ``U_i x_i = b_i`` with one shared kernel trace."""

    #: solutions, shape ``(b, dim)``
    x: MDArray
    trace: KernelTrace
    tile_size: int
    tiles: int

    @property
    def batch(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.tile_size * self.tiles

    def finite_systems(self) -> np.ndarray:
        """Boolean mask of batch members with finite solutions."""
        return finite_mask(self.x, axis=(0, 2))


def batched_invert_upper_triangular(tiles_batch):
    """Invert a ``(b, n, n)`` batch of upper triangular tiles.

    Stage 1 of Algorithm 1: row ``i`` of every inverse is obtained from
    rows ``i+1 .. n-1`` with one fused multiply-subtract per previously
    solved row, then one division by the diagonal entry — the
    per-thread work of the paper's kernel, where thread ``k`` solves
    ``U v = e_k``.  Real or complex; a zero diagonal entry yields
    non-finite entries in that system's slice instead of raising.
    """
    if tiles_batch.ndim != 3 or tiles_batch.shape[1] != tiles_batch.shape[2]:
        raise ValueError("expected a (b, n, n) batch of square tiles")
    batch, n, _ = tiles_batch.shape
    complex_data = isinstance(tiles_batch, MDComplexArray)
    limbs = tiles_batch.limbs
    inverse = (
        MDComplexArray.zeros((batch, n, n), limbs)
        if complex_data
        else MDArray.zeros((batch, n, n), limbs)
    )
    identity_rows = np.eye(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            rhs = MDArray.from_double(
                np.broadcast_to(identity_rows[i], (batch, n)).copy(), limbs
            )
            if complex_data:
                rhs = MDComplexArray(rhs, MDArray.zeros((batch, n), limbs))
            if i < n - 1:
                # subtract U[i, i+1:] times the already computed rows
                contribution = vb.batched_matvec(
                    vb.batched_transpose(inverse[:, i + 1 :, :]),
                    tiles_batch[:, i, i + 1 :],
                )
                rhs = rhs - contribution
            inverse[:, i, :] = rhs / tiles_batch[:, i, i].reshape(batch, 1)
    return inverse


@profiled("batched_back_substitution", trace_of=lambda result: result.trace)
def batched_back_substitution(
    matrices, rhs, tile_size, device="V100", trace=None
) -> BatchedBackSubstitutionResult:
    """Solve ``U_i x_i = b_i`` for a ``(b, dim, dim)`` batch with
    Algorithm 1; parameters mirror the unbatched driver, ``matrices``
    and ``rhs`` carry one extra leading batch axis.  Complex matrices
    take real or complex right-hand sides; real matrices need real
    ones.  The launches are those of
    :func:`repro.perf.costmodel.batched_back_substitution_trace`,
    appended to ``trace`` (a new trace by default)."""
    from ..perf.costmodel import batched_back_substitution_trace

    batch, dim = _check_inputs(matrices, rhs)
    if tile_size <= 0 or dim % tile_size != 0:
        raise ValueError(f"tile size {tile_size} must divide the dimension {dim}")
    n = tile_size
    tiles = dim // n
    complex_data = isinstance(matrices, MDComplexArray)
    limbs = matrices.limbs
    if trace is None:
        trace = KernelTrace(
            device, label=f"batched back substitution b={batch} dim={dim} {n}x{tiles}"
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        # --------------------------------------------------------------
        # stage 1: invert all diagonal tiles of all systems (one launch)
        # --------------------------------------------------------------
        inverses = []
        for i in range(tiles):
            lo, hi = i * n, (i + 1) * n
            inverses.append(
                batched_invert_upper_triangular(matrices[:, lo:hi, lo:hi])
            )

        # --------------------------------------------------------------
        # stage 2: back substitution over the tiles
        # --------------------------------------------------------------
        x = (
            MDComplexArray.zeros((batch, dim), limbs)
            if complex_data
            else MDArray.zeros((batch, dim), limbs)
        )
        b = rhs.copy()
        if complex_data and not isinstance(b, MDComplexArray):
            b = MDComplexArray(b, MDArray.zeros(b.shape, limbs))
        for i in range(tiles - 1, -1, -1):
            lo, hi = i * n, (i + 1) * n
            # x_i := U_i^{-1} b_i for every system, one block each
            xi = vb.batched_matvec(inverses[i], b[:, lo:hi])
            x[:, lo:hi] = xi
            # b_j := b_j - A_{j,i} x_i for all j < i, one launch
            if i > 0:
                for j in range(i):
                    jlo, jhi = j * n, (j + 1) * n
                    update = vb.batched_matvec(matrices[:, jlo:jhi, lo:hi], xi)
                    b[:, jlo:jhi] = b[:, jlo:jhi] - update

    trace.extend(
        batched_back_substitution_trace(batch, tiles, n, limbs, device, complex_data)
    )
    return BatchedBackSubstitutionResult(x=x, trace=trace, tile_size=n, tiles=tiles)


def _check_inputs(matrices, rhs) -> tuple:
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError("expected a (b, dim, dim) batch of square matrices")
    batch, dim = matrices.shape[0], matrices.shape[1]
    if rhs.ndim != 2 or rhs.shape != (batch, dim):
        raise ValueError("right-hand sides must have shape (b, dim)")
    _check_rhs(matrices, rhs)
    return batch, dim


def _check_rhs(matrices, rhs) -> None:
    """Right-hand sides must share the matrices' precision, and a
    complex one needs complex matrices: the real drivers keep their
    iterates in real arrays."""
    if matrices.limbs != rhs.limbs:
        raise ValueError(
            "matrices and right-hand sides must share the precision, got "
            f"{matrices.limbs} and {rhs.limbs} limbs"
        )
    if isinstance(rhs, MDComplexArray) and not isinstance(matrices, MDComplexArray):
        raise ValueError(
            "a complex right-hand side needs a complex matrix; "
            "promote the matrix to MDComplexArray"
        )
