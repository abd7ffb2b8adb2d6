"""Batched dense kernels: one limb-level launch advances ``b`` problems.

The paper's workloads are consumed in fleets — thousands of homotopy
paths per polynomial system, each needing its own small QR, triangular
solve and Padé construction.  Launching one kernel per problem wastes
the device on launch overhead; the batched kernels below carry a
**leading batch axis** ``(b, …)`` on their :class:`~repro.vec.mdarray.MDArray`
operands so that a single vectorized limb operation (the stand-in for
one CUDA launch) advances all ``b`` problems at once.

Bit-identity contract
---------------------
Every batched kernel reuses the *same* limb arithmetic (the active
:mod:`repro.exec` execution backend, broadcast over the batch axis —
the ``generic`` reference delegates to :mod:`repro.md.generic`, the
``fused`` backend runs the identical float sequence through its
scratch arena) and the *same*
zero-padded pairwise reduction trees (:meth:`MDArray.sum
<repro.vec.mdarray.MDArray.sum>`) as its unbatched counterpart in
:mod:`repro.vec.linalg`, reducing along the same element axes.  The
result of a batched call is therefore **bit-identical** to a Python
loop over the unbatched kernel — the property the batched solvers of
:mod:`repro.batch` inherit and the tests in ``tests/batch`` pin at
d/dd/qd/od.

Complex data (:class:`~repro.vec.complexmd.MDComplexArray`, separated
real/imaginary limb-major planes) batches through the same kernels:
the element-wise complex arithmetic broadcasts over the batch axis
exactly like the real arithmetic, so each complex batch slice is
bit-identical to the corresponding unbatched complex kernel — the
contract the native complex path fleets rely on.
"""

from __future__ import annotations

import numpy as np

from ..md.constants import get_precision
from .complexmd import MDComplexArray
from .linalg import _is_complex, _zeros_like_kind
from .mdarray import MDArray

__all__ = [
    "stack",
    "unstack",
    "batched_transpose",
    "batched_conjugate_transpose",
    "batched_matvec",
    "batched_matmul",
    "batched_dot",
    "batched_norm",
    "batched_outer",
    "batched_identity",
    "batched_apply_qt",
    "batched_householder_vector",
]


def stack(arrays):
    """Stack unbatched operands along a new leading batch axis.

    ``b`` arrays of element shape ``s`` become one array of element
    shape ``(b, *s)``; the limbs are copied, not renormalized, so the
    stacked problems are the originals bit for bit.  A batch of
    :class:`MDComplexArray` operands stacks both planes and stays
    complex.
    """
    arrays = list(arrays)
    if not arrays:
        raise ValueError("cannot stack an empty batch")
    complex_data = _is_complex(arrays[0])
    if any(_is_complex(a) != complex_data for a in arrays):
        raise ValueError("cannot mix real and complex batch members")
    limbs = arrays[0].limbs
    if any(a.limbs != limbs for a in arrays):
        raise ValueError("all batch members must share the precision")
    if any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("all batch members must share the element shape")
    if complex_data:
        return MDComplexArray(
            MDArray(np.stack([a.real.data for a in arrays], axis=1)),
            MDArray(np.stack([a.imag.data for a in arrays], axis=1)),
        )
    return MDArray(np.stack([a.data for a in arrays], axis=1))


def unstack(batch) -> list:
    """The inverse of :func:`stack`: one copied array per batch item."""
    if batch.ndim < 1:
        raise ValueError("unstack expects a leading batch axis")
    if _is_complex(batch):
        return [batch[i].copy() for i in range(batch.shape[0])]
    return [MDArray(batch.data[:, i].copy()) for i in range(batch.shape[0])]


def batched_transpose(a):
    """Transpose (no conjugation) of every matrix in a ``(b, rows, cols)``
    batch."""
    if a.ndim != 3:
        raise ValueError("batched_transpose expects a (b, rows, cols) batch")
    if _is_complex(a):
        return MDComplexArray(batched_transpose(a.real), batched_transpose(a.imag))
    return MDArray(np.swapaxes(a.data, 2, 3))


def batched_conjugate_transpose(a):
    """Transpose for real batches, Hermitian transpose for complex ones —
    the batched twin of :func:`repro.vec.linalg.conjugate_transpose`."""
    if _is_complex(a):
        return MDComplexArray(batched_transpose(a.real), -batched_transpose(a.imag))
    return batched_transpose(a)


def batched_matvec(matrices, vectors):
    """``y_i = A_i x_i`` for every ``i`` in a ``(b, rows, cols)`` batch.

    The products and the pairwise column reduction are the ones of
    :func:`repro.vec.linalg.matvec`, broadcast over the batch axis, so
    each batch slice is bit-identical to the unbatched product (real
    and complex alike).
    """
    if matrices.ndim != 3 or vectors.ndim != 2:
        raise ValueError("batched_matvec expects (b, rows, cols) and (b, cols)")
    b, rows, cols = matrices.shape
    if vectors.shape != (b, cols):
        raise ValueError(
            f"dimension mismatch: {matrices.shape} against {vectors.shape}"
        )
    row_products = matrices * vectors.reshape(b, 1, cols)
    return row_products.sum(axis=2)


def batched_matmul(a, b):
    """``C_i = A_i B_i`` over a batch, as one broadcast rank-1 update per
    inner index (the loop structure of :func:`repro.vec.linalg.matmul`)."""
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("batched_matmul expects two (b, ·, ·) batches")
    batch, n, k = a.shape
    batch2, k2, p = b.shape
    if batch != batch2 or k != k2:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    result = _zeros_like_kind(a, (batch, n, p))
    for inner in range(k):
        col = a[:, :, inner].reshape(batch, n, 1)
        row = b[:, inner, :].reshape(batch, 1, p)
        result = result + col * row
    return result


def batched_dot(x, y):
    """Inner products of a ``(b, n)`` batch of vector pairs, shape ``(b,)``."""
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("batched_dot expects (b, n) operands")
    return (x * y).sum(axis=1)


def batched_norm(x) -> MDArray:
    """Euclidean norms of a ``(b, n)`` batch, shape ``(b,)`` (a real
    array also for complex data, as in :func:`repro.vec.linalg.norm`)."""
    if _is_complex(x):
        return x.abs2().sum(axis=1).sqrt()
    return batched_dot(x, x).sqrt()


def batched_outer(x, y):
    """Outer products ``x_i y_i^T`` over a batch, shape ``(b, n, p)``."""
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("batched_outer expects (b, n) operands")
    b, n = x.shape
    p = y.shape[1]
    return x.reshape(b, n, 1) * y.reshape(b, 1, p)


def batched_identity(batch: int, n: int, precision=2, complex_data: bool = False):
    """``b`` copies of the ``n``-by-``n`` identity, shape ``(b, n, n)``."""
    limbs = get_precision(precision).limbs
    eye = np.broadcast_to(np.eye(n), (batch, n, n)).copy()
    if complex_data:
        return MDComplexArray(
            MDArray.from_double(eye, limbs),
            MDArray.zeros((batch, n, n), limbs),
        )
    return MDArray.from_double(eye, limbs)


def batched_apply_qt(q, rhs):
    """``Q_i^H b_i`` over a batch — the product linking the batched QR
    to the batched triangular solves (plain transpose on real data)."""
    return batched_matvec(batched_conjugate_transpose(q), rhs)


def batched_householder_vector(x):
    """Householder vectors and betas for a ``(b, n)`` batch of columns.

    Returns ``(v, beta, s)`` with ``v`` of shape ``(b, n)`` and
    ``beta`` of shape ``(b,)`` (always real), such that every reflector
    ``P_i = I - beta_i v_i v_i^H`` maps column ``x_i`` to ``s_i e_1``
    with ``beta_i = 2 / (v_i^H v_i)`` — the formulation of Section 3 of
    the paper, with the sign choice ``s = -sign(x_0) ||x||`` of Golub &
    Van Loan, Algorithm 5.1.1, so that ``v_0 = x_0 - s`` never cancels.
    A zero column degenerates to the identity reflector (``beta = 0``,
    ``v = e_1``, ``s = 0``), patched per batch member without disturbing
    its batch mates.  On complex data the sign choice becomes a phase
    choice (``s = -phase(x_0) ||x||``), with zero-modulus heads patched
    to phase 1 per member.  Every slice matches the unbatched
    Householder vector of the test oracle ``tests/oracles/dense.py``
    bit for bit.
    """
    if x.ndim != 2:
        raise ValueError("batched_householder_vector expects a (b, n) batch")
    if _is_complex(x):
        return _batched_householder_complex(x)
    b, _ = x.shape
    limbs = x.limbs

    norm_x = batched_norm(x)  # (b,)
    norm_head = norm_x.to_double()
    zero_mask = norm_head == 0.0

    v = x.copy()
    x0 = x[:, 0]
    sign = np.where(x0.to_double() >= 0.0, 1.0, -1.0)
    # s = -sign * ||x||, an exact scaling; v_0 = x_0 - s never cancels
    s = norm_x.scale_pow2(-sign)
    v[:, 0] = x0 - s

    with np.errstate(divide="ignore", invalid="ignore"):
        vtv = batched_dot(v, v)
        two = MDArray.from_double(np.full(b, 2.0), limbs)
        beta = two / vtv

    if np.any(zero_mask):
        # degenerate columns: identity reflector, patched in place so the
        # healthy batch members keep their bits
        beta = MDArray(np.where(zero_mask, 0.0, beta.data))
        s = MDArray(np.where(zero_mask, 0.0, s.data))
        e1 = np.zeros_like(v.data[:, :, 0])
        e1[0] = 1.0
        v_data = v.data.copy()
        v_data[:, :, 0] = np.where(zero_mask, e1, v_data[:, :, 0])
        v = MDArray(v_data)
    return v, beta, s


def _batched_householder_complex(x):
    """Complex branch of :func:`batched_householder_vector`."""
    b, _ = x.shape
    limbs = x.limbs

    norm_x = batched_norm(x)  # real (b,)
    zero_mask = norm_x.to_double() == 0.0

    v = x.copy()
    x0 = x[:, 0]  # complex (b,)
    mod_x0 = x0.abs()  # real (b,)
    mod_mask = mod_x0.to_double() == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # phase = x0 / |x0|, zero-modulus members patched to the exact 1
        phase = x0 / MDComplexArray(mod_x0, MDArray.zeros((b,), limbs))
    if np.any(mod_mask):
        one = np.zeros_like(phase.real.data)
        one[0] = 1.0
        phase = MDComplexArray(
            MDArray(np.where(mod_mask, one, phase.real.data)),
            MDArray(np.where(mod_mask, 0.0, phase.imag.data)),
        )
    s = -(phase * MDComplexArray(norm_x, MDArray.zeros((b,), limbs)))
    v[:, 0] = x0 - s

    with np.errstate(divide="ignore", invalid="ignore"):
        vtv = batched_dot(v.conj(), v).real  # the Hermitian product is real
        two = MDArray.from_double(np.full(b, 2.0), limbs)
        beta = two / vtv

    if np.any(zero_mask):
        beta = MDArray(np.where(zero_mask, 0.0, beta.data))
        s = MDComplexArray(
            MDArray(np.where(zero_mask, 0.0, s.real.data)),
            MDArray(np.where(zero_mask, 0.0, s.imag.data)),
        )
        e1 = np.zeros_like(v.real.data[:, :, 0])
        e1[0] = 1.0
        v_real = v.real.data.copy()
        v_imag = v.imag.data.copy()
        v_real[:, :, 0] = np.where(zero_mask, e1, v_real[:, :, 0])
        v_imag[:, :, 0] = np.where(zero_mask, 0.0, v_imag[:, :, 0])
        v = MDComplexArray(MDArray(v_real), MDArray(v_imag))
    return v, beta, s
