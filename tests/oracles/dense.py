"""The unbatched dense drivers: the reference for every dense identity test.

:func:`repro.core.blocked_qr.blocked_qr`,
:func:`repro.core.back_substitution.tiled_back_substitution` and
:func:`repro.core.least_squares.lstsq` are batches of one — each calls
its :mod:`repro.batch` driver on a leading batch axis of 1 — so the
library holds one implementation of Algorithms 1 and 2.  This module
keeps the unbatched code the batched drivers were built from, written
over :mod:`repro.vec.linalg`: the Householder panel loop, the WY
accumulation, the tile inversion and the tiled stage-2 loop (the two
stages of Algorithm 1 callable apart, as the series oracles call them:
one inversion per factored head, one substitution per order).

Every launch is recorded inline, next to the arithmetic it stands for.
The library's drivers record the traces of the analytic cost model
(:mod:`repro.perf.costmodel`), so these records are the one independent
description of Algorithms 1 and 2's launches: the cost model is checked
against them field by field (:func:`launch_records`), batched with
:meth:`KernelTrace.batched <repro.gpu.kernel.KernelTrace.batched>` for
the batched drivers.

The batched kernels of :mod:`repro.vec.batched` reuse the limb
arithmetic and reduction trees of :mod:`repro.vec.linalg`, so every
batch slice of a batched driver must equal these functions bit for bit.
The oracle shares those kernels but never calls a batched driver, so a
bug in the driver under test cannot hide in its own reference.  It
records no telemetry spans.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from repro.core import stages
from repro.core.back_substitution import (
    BS_MULTIPLY_EFFICIENCY,
    BS_UPDATE_EFFICIENCY,
    TILE_INVERSION_EFFICIENCY,
    BackSubstitutionResult,
)
from repro.core.blocked_qr import QRResult
from repro.core.least_squares import (
    STAGE_APPLY_QT,
    LeastSquaresResult,
    resolve_tile_sizes,
)
from repro.gpu.kernel import KernelTrace
from repro.gpu.memory import md_bytes
from repro.vec import linalg
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

__all__ = [
    "householder_vector",
    "apply_reflector_left",
    "reflector_matrix",
    "accumulate_wy",
    "wy_product",
    "invert_upper_triangular",
    "blocked_qr",
    "invert_tiles",
    "substitute",
    "tiled_back_substitution",
    "lstsq",
    "launch_records",
]


def _is_complex(x) -> bool:
    return isinstance(x, MDComplexArray)


def _zeros(complex_data, shape, limbs):
    return (MDComplexArray if complex_data else MDArray).zeros(shape, limbs)


# ----------------------------------------------------------------------
# Householder reflectors
# ----------------------------------------------------------------------
def householder_vector(x):
    """Compute the Householder vector ``v`` and scalar ``beta`` for ``x``.

    Returns ``(v, beta, s)`` where ``P = I - beta v v^H`` maps ``x`` to
    ``s e_1`` (``s`` has the magnitude of ``||x||`` with the sign/phase
    chosen to avoid cancellation, Golub & Van Loan, Algorithm 5.1.1).
    ``beta`` is a real scalar (:class:`MDArray` of shape ``()``); on a
    zero column ``beta`` is zero and ``v = e_1``, so the reflector
    degenerates to the identity.
    """
    if x.ndim != 1:
        raise ValueError("householder_vector expects a one-dimensional column")
    complex_data = _is_complex(x)
    norm_x = linalg.norm(x)  # real MDArray scalar
    norm_head = float(norm_x.to_double())

    v = x.copy()
    if norm_head == 0.0:
        # zero column: identity reflector
        beta = MDArray.zeros((), x.limbs)
        if complex_data:
            v[0] = 1.0 + 0.0j
            s = MDComplexArray.zeros((), x.limbs)
        else:
            v[0] = 1.0
            s = MDArray.zeros((), x.limbs)
        return v, beta, s

    x0 = x[0]
    if complex_data:
        # phase(x0) * ||x||, with phase = x0/|x0| (or 1 when x0 == 0)
        mod_x0 = float(np.abs(complex(x0.to_complex())))
        if mod_x0 == 0.0:
            phase = MDComplexArray.from_complex(np.asarray(1.0 + 0.0j), x.limbs).reshape(())
        else:
            phase = x0 / MDComplexArray(x0.abs(), MDArray.zeros((), x.limbs))
        s = -(phase * MDComplexArray(norm_x, MDArray.zeros((), x.limbs)))
        v[0] = x0 - s
    else:
        sign = 1.0 if float(x0.to_double()) >= 0.0 else -1.0
        # s = -sign * ||x||; the sign flip is an exact scaling so that
        # v[0] = x0 - s = x0 + sign*||x|| never cancels
        s = norm_x.scale_pow2(-sign)
        v[0] = x0 - s

    vtv = linalg.dot(v, v, conjugate=True)
    if complex_data:
        vtv = vtv.real  # the Hermitian inner product is real
    two = MDArray.from_double(np.asarray(2.0), x.limbs).reshape(())
    beta = two / vtv
    return v, beta, s


def apply_reflector_left(block, v, beta):
    """Apply ``P = I - beta v v^H`` from the left to ``block``.

    ``block`` has shape ``(len(v), cols)``; the update is
    ``block -= v (beta * (v^H block))`` — the ``beta*R^T*v`` matrix-vector
    product followed by the rank-1 ``update R`` of Algorithm 2.
    Returns the updated block.
    """
    if block.ndim != 2:
        raise ValueError("apply_reflector_left expects a matrix block")
    # t = v^H B, computed as B^T conj(v) so no extra conjugation is applied
    t = linalg.matvec(linalg.transpose(block), v.conj() if _is_complex(v) else v)
    return block - linalg.outer(v, t * beta)


def reflector_matrix(v, beta, size=None):
    """Materialise ``P = I - beta v v^H`` as a dense matrix."""
    n = v.shape[0] if size is None else size
    complex_data = _is_complex(v)
    eye = linalg.identity(n, v.limbs, complex_data=complex_data)
    vv = linalg.outer(v, v.conj() if complex_data else v)
    return eye - vv * beta


# ----------------------------------------------------------------------
# WY representation
# ----------------------------------------------------------------------
def accumulate_wy(vectors, betas, *, trace=None, threads_per_block=None):
    """Aggregate ``P_1 P_2 ... P_n = I + W Y^H`` [Bischof & Van Loan 1987].

    ``Y`` collects the Householder vectors, each of length ``r``, and
    the columns ``z`` of ``W`` follow formula (16) of the paper,
    ``z = -beta (v + W Y^H v)``.  When ``trace`` is given, one launch per
    column of ``W`` is recorded under the ``compute W`` stage.  Returns
    ``(W, Y)``, both of shape ``(r, n)``.
    """
    if not vectors:
        raise ValueError("at least one Householder vector is required")
    if len(vectors) != len(betas):
        raise ValueError("one beta per Householder vector is required")
    r = vectors[0].shape[0]
    n = len(vectors)
    complex_data = _is_complex(vectors[0])
    limbs = vectors[0].limbs
    W = _zeros(complex_data, (r, n), limbs)
    Y = _zeros(complex_data, (r, n), limbs)

    for l, (v, beta) in enumerate(zip(vectors, betas)):
        if v.shape[0] != r:
            raise ValueError("all Householder vectors must have the same length")
        Y[:, l] = v
        if l == 0:
            z = -(v * beta)
        else:
            # z = -beta (v + W[:, :l] (Y[:, :l]^H v))
            yhv = linalg.matvec(linalg.conjugate_transpose(Y[:, :l]), v)
            wyhv = linalg.matvec(W[:, :l], yhv)
            z = -((v + wyhv) * beta)
        W[:, l] = z
        if trace is not None:
            tpb = threads_per_block or min(r, 128)
            trace.add(
                "compute_w_column",
                stages.STAGE_COMPUTE_W,
                blocks=max(1, -(-r // tpb)),
                threads_per_block=tpb,
                limbs=limbs,
                tally=stages.tally_compute_w_column(r, l, complex_data),
                bytes_read=md_bytes(r * (2 * l + 1), limbs, complex_data),
                bytes_written=md_bytes(r, limbs, complex_data),
            )
    return W, Y


def wy_product(W, Y, *, trace=None, threads_per_block=None):
    """Compute ``YWT = Y W^H`` (``Y W^T`` on real data), formed once per
    panel (stage ``Y*W^T``) and reused for the ``Q`` and ``R`` updates."""
    r, n = Y.shape
    complex_data = _is_complex(Y)
    product = linalg.matmul(Y, linalg.conjugate_transpose(W))
    if trace is not None:
        tpb = threads_per_block or min(r, 128)
        trace.add(
            "ywt",
            stages.STAGE_YWT,
            blocks=max(1, -(-(r * r) // tpb)),
            threads_per_block=tpb,
            limbs=Y.limbs,
            tally=stages.tally_matmul(r, n, r, complex_data),
            bytes_read=md_bytes(2 * r * n, Y.limbs, complex_data),
            bytes_written=md_bytes(r * r, Y.limbs, complex_data),
        )
    return product


# ----------------------------------------------------------------------
# Algorithm 2: blocked Householder QR
# ----------------------------------------------------------------------
def blocked_qr(matrix, tile_size, device="V100", trace=None):
    """Factor ``A = Q R`` with the blocked accelerated Householder QR,
    one ``(M, cols)`` matrix at a time; returns a :class:`QRResult`."""
    if matrix.ndim != 2:
        raise ValueError("blocked_qr expects a matrix")
    rows, cols = matrix.shape
    if rows < cols:
        raise ValueError("blocked_qr expects rows >= cols (least squares shape)")
    n = tile_size
    if n <= 0 or cols % n != 0:
        raise ValueError(f"tile size {tile_size} must divide the column count {cols}")
    tiles = cols // n
    complex_data = _is_complex(matrix)
    limbs = matrix.limbs
    if trace is None:
        trace = KernelTrace(device, label=f"blocked QR {rows}x{cols}, {tiles}x{n}")

    R = matrix.copy()
    Q = linalg.identity(rows, limbs, complex_data=complex_data)

    for k in range(tiles):
        col0 = k * n
        r = rows - col0  # panel height, from the diagonal block downwards

        # 1. panel factorization: Householder vectors column by column
        vectors, betas = [], []
        for l in range(n):
            j = col0 + l
            length = rows - j
            v, beta, _ = householder_vector(R[j:rows, j])
            trace.add(
                "householder",
                stages.STAGE_BETA_V,
                blocks=max(1, -(-length // n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_householder_vector(length, complex_data),
                bytes_read=md_bytes(length, limbs, complex_data),
                bytes_written=md_bytes(length + 1, limbs, complex_data),
            )

            # t = beta * (panel block)^H v   (stage beta*R^T*v)
            panel_cols = col0 + n - j
            block = R[j:rows, j : col0 + n]
            t = linalg.matvec(linalg.transpose(block), v.conj() if complex_data else v)
            w = t * beta
            trace.add(
                "beta_rtv",
                stages.STAGE_BETA_RTV,
                blocks=max(1, -(-length // n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_matvec(panel_cols, length, complex_data)
                + stages.tally_matvec(panel_cols, 1, complex_data),
                bytes_read=md_bytes(length * panel_cols + length, limbs, complex_data),
                bytes_written=md_bytes(panel_cols, limbs, complex_data),
            )

            # rank-1 update of the panel (stage update R)
            R[j:rows, j : col0 + n] = block - linalg.outer(v, w)
            trace.add(
                "update_r",
                stages.STAGE_UPDATE_R,
                blocks=max(1, panel_cols),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_rank1_update(length, panel_cols, complex_data),
                bytes_read=md_bytes(length * panel_cols + length + panel_cols, limbs, complex_data),
                bytes_written=md_bytes(length * panel_cols, limbs, complex_data),
            )

            # the reflector annihilates the subdiagonal of column j exactly
            if length > 1:
                R[j + 1 : rows, j] = _zeros(complex_data, (length - 1,), limbs)

            # embed v into the panel-height vector stored in Y
            padded = _zeros(complex_data, (r,), limbs)
            padded[l:] = v
            vectors.append(padded)
            betas.append(beta)

        # 2. aggregate the panel reflectors: W, Y and YWT = Y W^H
        W, Y = accumulate_wy(vectors, betas, trace=trace, threads_per_block=n)
        YWT = wy_product(W, Y, trace=trace, threads_per_block=n)

        # 3. update Q in two stages: QWY := Q * WY^H, then Q += QWY
        QWY = linalg.matmul(Q[:, col0:rows], linalg.conjugate_transpose(YWT))
        trace.add(
            "q_wyt",
            stages.STAGE_QWYT,
            blocks=max(1, -(-(rows * r) // n)),
            threads_per_block=n,
            limbs=limbs,
            tally=stages.tally_matmul(rows, r, r, complex_data),
            bytes_read=md_bytes(rows * r + r * r, limbs, complex_data),
            bytes_written=md_bytes(rows * r, limbs, complex_data),
        )
        Q[:, col0:rows] = Q[:, col0:rows] + QWY
        trace.add(
            "q_add",
            stages.STAGE_Q_ADD,
            blocks=max(1, -(-(rows * r) // n)),
            threads_per_block=n,
            limbs=limbs,
            tally=stages.tally_matrix_add(rows, r, complex_data),
            bytes_read=md_bytes(2 * rows * r, limbs, complex_data),
            bytes_written=md_bytes(rows * r, limbs, complex_data),
        )

        # 4. update the trailing columns: YWTC := YWT * C, then R += YWTC
        if k < tiles - 1:
            c = cols - (col0 + n)
            C = R[col0:rows, col0 + n : cols]
            YWTC = linalg.matmul(YWT, C)
            trace.add(
                "ywt_c",
                stages.STAGE_YWTC,
                blocks=max(1, -(-(r * c) // n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_matmul(r, r, c, complex_data),
                bytes_read=md_bytes(r * r + r * c, limbs, complex_data),
                bytes_written=md_bytes(r * c, limbs, complex_data),
            )
            R[col0:rows, col0 + n : cols] = C + YWTC
            trace.add(
                "r_add",
                stages.STAGE_R_ADD,
                blocks=max(1, -(-(r * c) // n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_matrix_add(r, c, complex_data),
                bytes_read=md_bytes(2 * r * c, limbs, complex_data),
                bytes_written=md_bytes(r * c, limbs, complex_data),
            )

    return QRResult(Q=Q, R=R, trace=trace, tile_size=n, tiles=tiles)


# ----------------------------------------------------------------------
# Algorithm 1: tiled back substitution
# ----------------------------------------------------------------------
def invert_upper_triangular(tile):
    """Invert an upper triangular tile row by row (stage 1 of
    Algorithm 1); a zero leading limb on the diagonal raises
    ``ZeroDivisionError``."""
    if tile.ndim != 2 or tile.shape[0] != tile.shape[1]:
        raise ValueError("expected a square tile")
    head = tile.to_complex() if _is_complex(tile) else tile.to_double()
    if np.any(np.diag(head) == 0.0):
        raise ZeroDivisionError("singular tile: zero on the diagonal")
    n = tile.shape[0]
    complex_data = _is_complex(tile)
    inverse = _zeros(complex_data, (n, n), tile.limbs)
    identity = linalg.identity(n, tile.limbs, complex_data=complex_data)
    for i in range(n - 1, -1, -1):
        rhs = identity[i, :]
        if i < n - 1:
            # subtract U[i, i+1:] times the already computed rows
            contribution = linalg.matvec(
                linalg.transpose(inverse[i + 1 :, :]), tile[i, i + 1 :]
            )
            rhs = rhs - contribution
        inverse[i, :] = rhs / tile[i, i]
    return inverse


def invert_tiles(matrix, tile_size, trace):
    """Stage 1 of Algorithm 1: invert every diagonal tile of the upper
    triangular ``matrix`` (a zero diagonal leading limb raises
    ``ZeroDivisionError``) and record the one launch; returns the
    inverses, one ``(n, n)`` array per tile."""
    n = tile_size
    tiles = matrix.shape[0] // n
    complex_data = _is_complex(matrix)
    limbs = matrix.limbs
    inverses = [
        invert_upper_triangular(matrix[i * n : (i + 1) * n, i * n : (i + 1) * n])
        for i in range(tiles)
    ]
    # one launch, N blocks of n threads
    trace.add(
        "invert_tiles",
        stages.STAGE_INVERT_TILES,
        blocks=tiles,
        threads_per_block=n,
        limbs=limbs,
        tally=stages.tally_tile_inverse(n, complex_data).scaled(tiles),
        bytes_read=md_bytes(tiles * n * n, limbs, complex_data),
        bytes_written=md_bytes(tiles * n * n, limbs, complex_data),
        efficiency=TILE_INVERSION_EFFICIENCY,
    )
    return inverses


def substitute(matrix, inverses, rhs, trace):
    """Stage 2 of Algorithm 1: solve ``U x = b`` against the tile
    inverses of ``matrix`` from :func:`invert_tiles`, recording its
    launches; returns ``x``."""
    n = inverses[0].shape[0]
    tiles = len(inverses)
    complex_data = _is_complex(matrix)
    limbs = matrix.limbs
    x = _zeros(complex_data, (n * tiles,), limbs)
    b = rhs.copy()
    for i in range(tiles - 1, -1, -1):
        lo, hi = i * n, (i + 1) * n
        # x_i := U_i^{-1} b_i, one block of n threads
        xi = linalg.matvec(inverses[i], b[lo:hi])
        x[lo:hi] = xi
        trace.add(
            "multiply_inverse",
            stages.STAGE_MULTIPLY_INVERSE,
            blocks=1,
            threads_per_block=n,
            limbs=limbs,
            tally=stages.tally_matvec(n, n, complex_data),
            bytes_read=md_bytes(n * n + n, limbs, complex_data),
            bytes_written=md_bytes(n, limbs, complex_data),
            efficiency=BS_MULTIPLY_EFFICIENCY,
        )
        # b_j := b_j - A_{j,i} x_i for all j < i, one launch with i blocks
        if i > 0:
            for j in range(i):
                jlo, jhi = j * n, (j + 1) * n
                b[jlo:jhi] = b[jlo:jhi] - linalg.matvec(matrix[jlo:jhi, lo:hi], xi)
            trace.add(
                "update_rhs",
                stages.STAGE_BACK_SUBSTITUTION,
                blocks=i,
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_update_rhs(n, complex_data).scaled(i),
                bytes_read=md_bytes(i * (n * n + 2 * n), limbs, complex_data),
                bytes_written=md_bytes(i * n, limbs, complex_data),
                efficiency=BS_UPDATE_EFFICIENCY,
            )
    return x


def tiled_back_substitution(matrix, rhs, tile_size, device="V100", trace=None):
    """Solve the upper triangular system ``U x = b`` with Algorithm 1,
    one system at a time (:func:`invert_tiles`, then
    :func:`substitute`); returns a :class:`BackSubstitutionResult`."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("the coefficient matrix must be square")
    if rhs.ndim != 1 or rhs.shape[0] != matrix.shape[0]:
        raise ValueError("right-hand side length does not match the matrix")
    if matrix.limbs != rhs.limbs:
        raise ValueError("matrix and right-hand side must share the precision")
    dim = matrix.shape[0]
    if tile_size <= 0 or dim % tile_size != 0:
        raise ValueError(f"tile size {tile_size} must divide the dimension {dim}")
    n = tile_size
    tiles = dim // n
    if trace is None:
        trace = KernelTrace(device, label=f"back substitution dim={dim} {n}x{tiles}")
    inverses = invert_tiles(matrix, n, trace)
    x = substitute(matrix, inverses, rhs, trace)
    return BackSubstitutionResult(x=x, trace=trace, tile_size=n, tiles=tiles)


# ----------------------------------------------------------------------
# Table 11: least squares = QR, then Q^H b, then back substitution
# ----------------------------------------------------------------------
def lstsq(matrix, rhs, tile_size=None, bs_tile_size=None, device="V100"):
    """Solve ``min_x ||b - A x||`` for one system; the tile defaults
    resolve as in :func:`repro.core.least_squares.lstsq`."""
    rows, cols = matrix.shape
    if rhs.shape[0] != rows:
        raise ValueError("right-hand side length does not match the matrix")
    tile_size, bs_tile_size = resolve_tile_sizes(cols, tile_size, bs_tile_size)

    qr = blocked_qr(matrix, tile_size, device=device)

    bs_trace = KernelTrace(device, label=f"least squares back substitution dim={cols}")
    complex_data = _is_complex(matrix)
    qhb = linalg.matvec(linalg.conjugate_transpose(qr.Q), rhs)
    bs_trace.add(
        "apply_qt",
        STAGE_APPLY_QT,
        blocks=max(1, -(-rows // tile_size)),
        threads_per_block=tile_size,
        limbs=matrix.limbs,
        tally=stages.tally_matvec(rows, rows, complex_data),
        bytes_read=md_bytes(rows * rows + rows, matrix.limbs, complex_data),
        bytes_written=md_bytes(rows, matrix.limbs, complex_data),
    )
    bs = tiled_back_substitution(
        qr.R[:cols, :cols], qhb[:cols], bs_tile_size, device=device, trace=bs_trace
    )
    return LeastSquaresResult(
        x=bs.x,
        Q=qr.Q,
        R=qr.R,
        qr_trace=qr.trace,
        bs_trace=bs.trace,
        tile_size=tile_size,
    )


def launch_records(trace) -> list:
    """Every field of every launch of ``trace``, in order: the form two
    traces are compared in, exactly (a one-field change in one tally
    makes two traces differ)."""
    return [astuple(launch) for launch in trace.launches]
