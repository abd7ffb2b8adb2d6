"""Batched tiled back substitution: ``b`` triangular solves per launch.

The library's one implementation of Algorithm 1 of the paper, on a
``(b, dim, dim)`` batch of upper triangular systems
(:func:`repro.core.back_substitution.tiled_back_substitution` runs it on
a batch of one), split into its two stages:

* :func:`batched_invert_tiles` — stage 1: the diagonal tiles of **all**
  systems are inverted, stacked into one
  :func:`batched_invert_upper_triangular` call (the one
  ``invert_tiles`` launch the cost model records);
* :func:`batched_substitution` — stage 2 against given inverses: every
  step advances all ``b`` right-hand sides at once.

:func:`batched_back_substitution` is their composition.  A solver that
meets the same triangular factor again — the series Newton staircase
of :mod:`repro.batch.fleet` and
:func:`repro.series.matrix_series.solve_matrix_series`, one solve per
series order against one factored head — inverts the tiles once and
runs only stage 2 per order.  The launch count is that of one system
(flat in ``b``); the block counts, tallies and memory traffic scale
linearly.  Each stage records the launches of its cost-model twin
(:func:`repro.perf.costmodel.batched_tile_inversion_trace`,
:func:`~repro.perf.costmodel.batched_substitution_trace`), which
concatenate to
:func:`~repro.perf.costmodel.batched_back_substitution_trace`.

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
from ..vec.complexmd import MDComplexArray, finite_mask, map_planes
from ..vec.mdarray import MDArray

__all__ = [
    "BatchedBackSubstitutionResult",
    "BatchedTileInverses",
    "batched_invert_upper_triangular",
    "batched_invert_tiles",
    "batched_substitution",
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


@dataclass
class BatchedTileInverses:
    """Stage 1 of Algorithm 1 on a batch: the inverted diagonal tiles
    of ``(b, dim, dim)`` upper triangular systems, ready for any number
    of :func:`batched_substitution` calls against the same systems."""

    #: one inverse per diagonal tile, each of element shape ``(b, n, n)``
    inverses: list
    trace: KernelTrace
    tile_size: int

    @property
    def tiles(self) -> int:
        return len(self.inverses)

    @property
    def batch(self) -> int:
        return self.inverses[0].shape[0]


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


@profiled("batched_tile_inversion", trace_of=lambda result: result.trace)
def batched_invert_tiles(
    matrices, tile_size, device="V100", trace=None
) -> BatchedTileInverses:
    """Stage 1 of Algorithm 1: invert the diagonal tiles of a
    ``(b, dim, dim)`` batch of upper triangular systems.

    ``tile_size`` must divide ``dim``.  The launch of
    :func:`repro.perf.costmodel.batched_tile_inversion_trace` is
    appended to ``trace`` (a new trace by default)."""
    from ..perf.costmodel import batched_tile_inversion_trace

    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError("expected a (b, dim, dim) batch of square matrices")
    batch, dim = matrices.shape[0], matrices.shape[1]
    tiles = _tile_count(dim, tile_size)
    n = tile_size
    if trace is None:
        trace = KernelTrace(
            device, label=f"batched tile inversion b={batch} dim={dim} {n}x{tiles}"
        )
    # the diagonal tiles of every system as one (tiles * b, n, n) batch,
    # tile-major: the row steps are elementwise over the batch, so one
    # inversion gives each tile the bits of its own
    stacked = batched_invert_upper_triangular(
        map_planes(matrices, lambda data: _diagonal_tiles(data, tiles, n))
    )
    inverses = [stacked[i * batch : (i + 1) * batch] for i in range(tiles)]
    complex_data = isinstance(matrices, MDComplexArray)
    trace.extend(
        batched_tile_inversion_trace(
            batch, tiles, n, matrices.limbs, device, complex_data
        )
    )
    return BatchedTileInverses(inverses=inverses, trace=trace, tile_size=n)


@profiled("batched_substitution", trace_of=lambda result: result.trace)
def batched_substitution(
    matrices, inverses, rhs, device="V100", trace=None
) -> BatchedBackSubstitutionResult:
    """Stage 2 of Algorithm 1: solve ``U_i x_i = b_i`` for a
    ``(b, dim, dim)`` batch against the inverted diagonal tiles
    ``inverses`` of the same matrices (a :class:`BatchedTileInverses`
    from :func:`batched_invert_tiles`, whose tile size it takes).

    Complex matrices take real or complex right-hand sides; real
    matrices need real ones.  The launches of
    :func:`repro.perf.costmodel.batched_substitution_trace` are
    appended to ``trace`` (a new trace by default)."""
    from ..perf.costmodel import batched_substitution_trace

    batch, dim = _check_inputs(matrices, rhs)
    n = inverses.tile_size
    tiles = inverses.tiles
    if inverses.batch != batch or n * tiles != dim:
        raise ValueError(
            f"tile inverses of {inverses.batch} systems of dimension {n * tiles} "
            f"do not match a ({batch}, {dim}, {dim}) batch"
        )
    complex_data = isinstance(matrices, MDComplexArray)
    limbs = matrices.limbs
    if trace is None:
        trace = KernelTrace(
            device, label=f"batched substitution b={batch} dim={dim} {n}x{tiles}"
        )

    x = (
        MDComplexArray.zeros((batch, dim), limbs)
        if complex_data
        else MDArray.zeros((batch, dim), limbs)
    )
    b = rhs.copy()
    if complex_data and not isinstance(b, MDComplexArray):
        b = MDComplexArray(b, MDArray.zeros(b.shape, limbs))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(tiles - 1, -1, -1):
            lo, hi = i * n, (i + 1) * n
            # x_i := U_i^{-1} b_i for every system, one block each
            xi = vb.batched_matvec(inverses.inverses[i], b[:, lo:hi])
            x[:, lo:hi] = xi
            # b_j := b_j - A_{j,i} x_i for all j < i, one launch
            for j in range(i):
                jlo, jhi = j * n, (j + 1) * n
                update = vb.batched_matvec(matrices[:, jlo:jhi, lo:hi], xi)
                b[:, jlo:jhi] = b[:, jlo:jhi] - update

    trace.extend(
        batched_substitution_trace(batch, tiles, n, limbs, device, complex_data)
    )
    return BatchedBackSubstitutionResult(x=x, trace=trace, tile_size=n, tiles=tiles)


@profiled("batched_back_substitution", trace_of=lambda result: result.trace)
def batched_back_substitution(
    matrices, rhs, tile_size, device="V100", trace=None
) -> BatchedBackSubstitutionResult:
    """Solve ``U_i x_i = b_i`` for a ``(b, dim, dim)`` batch with
    Algorithm 1: :func:`batched_invert_tiles`, then
    :func:`batched_substitution`.  Parameters mirror the unbatched
    driver, ``matrices`` and ``rhs`` carry one extra leading batch axis.
    Complex matrices take real or complex right-hand sides; real
    matrices need real ones.  The launches are those of
    :func:`repro.perf.costmodel.batched_back_substitution_trace`,
    appended to ``trace`` (a new trace by default)."""
    batch, dim = _check_inputs(matrices, rhs)
    tiles = _tile_count(dim, tile_size)
    if trace is None:
        trace = KernelTrace(
            device,
            label=f"batched back substitution b={batch} dim={dim} {tile_size}x{tiles}",
        )
    inverses = batched_invert_tiles(matrices, tile_size, device=device, trace=trace)
    return batched_substitution(matrices, inverses, rhs, device=device, trace=trace)


def _diagonal_tiles(data, tiles, n):
    """The ``(m, tiles * b, n, n)`` diagonal tiles of ``(m, b, dim,
    dim)`` limb-major storage, tile ``i`` of system ``s`` at batch index
    ``i * b + s``."""
    m, batch = data.shape[:2]
    blocks = data.reshape(m, batch, tiles, n, tiles, n)
    diagonal = np.diagonal(blocks, axis1=2, axis2=4)  # (m, b, n, n, tiles)
    return np.moveaxis(diagonal, -1, 1).reshape(m, tiles * batch, n, n)


def _tile_count(dim: int, tile_size: int) -> int:
    if tile_size <= 0 or dim % tile_size != 0:
        raise ValueError(f"tile size {tile_size} must divide the dimension {dim}")
    return dim // tile_size


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
