"""Fused NumPy execution backend: same float sequence, array-level kernels.

Every method of :class:`FusedBackend` computes **bitwise identical**
results to the generic backend (and therefore to the scalar reference
world) because IEEE double arithmetic is deterministic: an operation
reorganization changes results only if it changes *which* elementwise
float operations feed which.  The kernels below keep the generic term
orders, EFT formulas and renormalization chains exactly, and only
change how the work is issued:

* every micro-op writes into preallocated arena scratch via ``out=``
  instead of allocating a temporary (no value change);
* each (kernel, launch shape) pair owns one cached scratch *bundle*
  (:meth:`repro.exec.arena.ScratchArena.bundle`, least recently used
  out beyond a fixed byte budget), so issuing an operation costs one
  dict probe instead of one allocation per EFT step (no value change);
* independent EFTs run as one stacked ufunc over a ``(k,) + shape``
  workspace axis — e.g. both limb pairs of a double double addition, or
  all error terms of a ``vecsum`` pass — computing the same elementwise
  formulas in one call (no value change);
* Veltkamp splits of input limbs are computed once and reused across
  the partial products that share them — the generic code recomputes
  them, deterministically producing the same halves (no value change);
* the renormalization runs in place on one term-major workspace stack:
  the sequential head chain ``s_i = fl(a_i + s_{i+1})`` is the only
  data-dependent part of :func:`repro.md.renorm.vecsum`, so the chain
  runs as ``n-1`` adds and the error terms — each depending only on
  ``(a_i, s_i, s_{i+1})`` — follow as five stacked ufuncs (no value
  change);
* launch *configuration* that depends only on sizes — pairwise
  reduction halves, Cauchy anti-diagonal gather indices — is resolved
  to views / cached index arrays instead of being recomputed and
  copied per call (no value change).

One-limb launches (``m = 1``, every operand one limb) first try the
plain IEEE double kernels of :mod:`repro.exec.onelimb`, exactly as the
generic backend does; the kernels below run the launches those decline.

The oracle for all of this is the existing bit-identity suite: the
vectorized-vs-scalar-reference tests plus ``tests/exec`` compare the
two backends limb for limb.

On a CuPy array module the same kernels become real device launches;
the arena then pools device buffers.  (NumPy is the only module
exercised in CI.)
"""

from __future__ import annotations

import math

import numpy as np

from ..md.eft import SPLITTER
from ..md.renorm import GUARD_LIMBS
from . import onelimb
from .generic import GenericBackend

__all__ = ["FusedBackend"]

# module-level ufunc handles: skips one attribute lookup per micro-op,
# which is measurable at the small launch shapes of the QR tiles
_add = np.add
_sub = np.subtract
_mul = np.multiply
_div = np.divide
_neg = np.negative
_eq = np.equal
_sqrt = np.sqrt
_copyto = np.copyto
_empty = np.empty


# ---------------------------------------------------------------------------
# term layouts — where each partial product lands in the workspace stack
# ---------------------------------------------------------------------------
# The generic kernels bucket partial products by order and flatten the
# buckets before renormalizing; the renormalization is order-sensitive,
# so the fused kernels must place each term at exactly the flatten
# position the generic code gives it.  The placement depends only on
# the limb counts, so it is computed once per (nx, ny, m) and cached.

_MUL_LAYOUTS: dict = {}
_SQR_LAYOUTS: dict = {}
_MUL_DOUBLE_LAYOUTS: dict = {}
_ANTIDIAGONALS: dict = {}


def _mul_layout(nx, ny, m):
    key = (nx, ny, m)
    cached = _MUL_LAYOUTS.get(key)
    if cached is not None:
        return cached
    buckets = [[] for _ in range(m + 1)]
    pairs = []
    for i in range(min(nx, m)):
        for j in range(min(ny, m - i)):
            pairs.append((i, j))
            buckets[i + j].append(("p", i, j))
            if i + j + 1 <= m:
                buckets[i + j + 1].append(("e", i, j))
    corr = [(i, m - i) for i in range(min(nx, m + 1)) if 0 <= m - i < ny]
    if corr:
        buckets[m].append(("corr",))
    flat = [term for bucket in buckets for term in bucket]
    rows = {term: row for row, term in enumerate(flat)}
    cached = (pairs, corr, rows, len(flat))
    _MUL_LAYOUTS[key] = cached
    return cached


def _sqr_layout(n, m):
    key = (n, m)
    cached = _SQR_LAYOUTS.get(key)
    if cached is not None:
        return cached
    buckets = [[] for _ in range(m + 1)]
    steps = []  # kernel steps in generic loop order
    for i in range(min(n, m)):
        if 2 * i < m:
            steps.append(("sq", i))
            buckets[2 * i].append(("p", i))
            if 2 * i + 1 <= m:
                buckets[2 * i + 1].append(("e", i))
        elif 2 * i == m:
            steps.append(("diag", i))
            buckets[m].append(("d", i))
        for j in range(i + 1, min(n, m - i)):
            steps.append(("off", i, j))
            buckets[i + j].append(("P", i, j))
            if i + j + 1 <= m:
                buckets[i + j + 1].append(("E", i, j))
    corr = [(i, m - i) for i in range(min(n, m + 1)) if i < m - i < n]
    if corr:
        buckets[m].append(("corr",))
    flat = [term for bucket in buckets for term in bucket]
    rows = {term: row for row, term in enumerate(flat)}
    cached = (steps, corr, rows, len(flat))
    _SQR_LAYOUTS[key] = cached
    return cached


def _mul_double_layout(nx, m):
    key = (nx, m)
    cached = _MUL_DOUBLE_LAYOUTS.get(key)
    if cached is not None:
        return cached
    buckets = [[] for _ in range(m + 1)]
    for i in range(min(nx, m)):
        buckets[i].append(("p", i))
        buckets[i + 1].append(("e", i))
    tail = nx > m
    if tail:
        buckets[m].append(("t",))
    flat = [term for bucket in buckets for term in bucket]
    rows = {term: row for row, term in enumerate(flat)}
    cached = (min(nx, m), tail, rows, len(flat))
    _MUL_DOUBLE_LAYOUTS[key] = cached
    return cached


def _antidiagonal_index(terms):
    """Cached gather indices for the Cauchy anti-diagonal transpose."""
    cached = _ANTIDIAGONALS.get(terms)
    if cached is None:
        rows = np.arange(terms)[:, None]
        cols = np.arange(terms)[None, :] - rows
        invalid = cols < 0
        cached = (rows, np.where(invalid, 0, cols), invalid)
        _ANTIDIAGONALS[terms] = cached
    return cached


# tile geometry: large launches stream through L2-resident chunks of
# the scratch bundles — the limb kernels are elementwise (independent
# per element), so chunked execution computes the same floats; this is
# the host-side analogue of a gridDim > 1 launch staging tiles through
# shared memory, and it is what keeps the whole EFT chain's working
# set cache-resident instead of making one full-array memory pass per
# micro-op
_TILE = 32768
_TILE_MIN = 65536


class FusedBackend(GenericBackend):
    """Fused ``out=``/arena kernels, bit-identical to :class:`GenericBackend`."""

    name = "fused"

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @staticmethod
    def _norm(stack):
        # a 0-d element shape indexes to numpy scalars, which cannot be
        # ufunc out= targets; give it one broadcast element axis instead
        return stack.reshape((stack.shape[0], 1)) if stack.ndim == 1 else stack

    def _run_broadcast(self, into, operands, m):
        """Slow path: mixed element shapes or 0-d operands."""
        shape = np.broadcast_shapes(*(op.shape[1:] for op in operands))
        normed = tuple(self._norm(op) for op in operands)
        if not shape:
            out = _empty((m, 1))
            into(*normed, m, out)
            return out.reshape((m,))
        out = _empty((m, *shape))
        n0 = shape[0]
        plane = out[0].size
        if plane >= _TILE_MIN and n0 > 1:
            step = _TILE // (plane // n0)
            if step < 1:
                step = 1
            if step < n0:
                # chunk along the leading element axis; operands that
                # broadcast along it (size 1, or aligned to the tail)
                # feed every chunk whole
                ndim = out.ndim
                for lo in range(0, n0, step):
                    hi = lo + step
                    if hi > n0:
                        hi = n0
                    into(
                        *(
                            op[:, lo:hi]
                            if op.ndim == ndim and op.shape[1] == n0
                            else op
                            for op in normed
                        ),
                        m,
                        out[:, lo:hi],
                    )
                return out
        into(*normed, m, out)
        return out

    def _run_elementwise(self, into, operands, m, shape):
        out = _empty((m, *shape))
        plane = out[0].size
        n0 = shape[0]
        if plane >= _TILE_MIN and n0 > 1:
            # chunk along the leading element axis — no contiguity
            # requirement, so reduction-tree views tile too
            step = _TILE // (plane // n0)
            if step < 1:
                step = 1
            if step < n0:
                for lo in range(0, n0, step):
                    hi = lo + step
                    if hi > n0:
                        hi = n0
                    into(*(op[:, lo:hi] for op in operands), m, out[:, lo:hi])
                return out
        into(*operands, m, out)
        return out

    def add(self, x, y, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.add(x, y, m)
        if out is not None:
            return out
        shape = x.shape[1:]
        if shape and y.shape[1:] == shape:
            return self._run_elementwise(self._add_into, (x, y), m, shape)
        return self._run_broadcast(self._add_into, (x, y), m)

    def sub(self, x, y, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.sub(x, y, m)
        if out is not None:
            return out
        shape = x.shape[1:]
        if shape and y.shape[1:] == shape:
            return self._run_elementwise(self._sub_into, (x, y), m, shape)
        return self._run_broadcast(self._sub_into, (x, y), m)

    def mul(self, x, y, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.mul(x, y, m)
        if out is not None:
            return out
        shape = x.shape[1:]
        if shape and y.shape[1:] == shape:
            return self._run_elementwise(self._mul_into, (x, y), m, shape)
        return self._run_broadcast(self._mul_into, (x, y), m)

    def div(self, x, y, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.div(x, y, m)
        if out is not None:
            return out
        shape = x.shape[1:]
        if shape and y.shape[1:] == shape:
            return self._run_elementwise(self._div_into, (x, y), m, shape)
        return self._run_broadcast(self._div_into, (x, y), m)

    def sqr(self, x, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.sqr(x, m)
        if out is not None:
            return out
        shape = x.shape[1:]
        if shape:
            return self._run_elementwise(self._sqr_into, (x,), m, shape)
        return self._run_broadcast(self._sqr_into, (x,), m)

    def fma(self, x, y, z, m=None):
        if m is None:
            m = x.shape[0]
        shape = x.shape[1:]
        if shape and y.shape[1:] == shape and z.shape[1:] == shape:
            return self._run_elementwise(self._fma_into, (x, y, z), m, shape)
        return self._run_broadcast(self._fma_into, (x, y, z), m)

    def sqrt(self, x, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.sqrt(x, m)
        if out is not None:
            return out
        shape = x.shape[1:]
        if shape:
            return self._run_elementwise(self._sqrt_into, (x,), m, shape)
        return self._run_broadcast(self._sqrt_into, (x,), m)

    def renormalize(self, limbs, m):
        limbs = [np.asarray(limb, dtype=np.float64) for limb in limbs]
        n = len(limbs)
        shape = np.broadcast_shapes(*(limb.shape for limb in limbs))
        work_shape = shape if shape else (1,)
        out = _empty((m, *work_shape))
        (work,) = self.arena.bundle(
            ("renorm_in", n, work_shape), ((n, *work_shape),)
        )
        for row, limb in enumerate(limbs):
            _copyto(work[row], limb)
        self._renorm_stack(work, n, m, out)
        return out.reshape((m, *shape))

    # ------------------------------------------------------------------
    # launch-configuration hooks
    # ------------------------------------------------------------------
    def split_reduction_operands(self, work, axis, pad):
        # the reference backend copies the halves out with np.take; the
        # halves are read-only inputs to combine(), which returns fresh
        # storage, so views carry the same values with no copy passes
        n = work.shape[axis]
        half = (n + 1) // 2
        lead = (slice(None),) * axis
        first = work[lead + (slice(0, half),)]
        second = work[lead + (slice(half, n),)]
        if n % 2 == 1:
            pad_shape = list(first.shape)
            pad_shape[axis] = 1
            second = np.concatenate([second, pad(pad_shape)], axis=axis)
        return first, second

    def gather_antidiagonals(self, data, terms):
        # same fancy-index gather as the reference, but the index grids
        # and validity mask are launch configuration — cached per size —
        # and the exact zeros land via an in-place masked fill instead
        # of a second full-size where() pass
        rows, cols, invalid = _antidiagonal_index(terms)
        gathered = data[..., rows, cols]
        _copyto(gathered, 0.0, where=invalid)
        return gathered

    # ------------------------------------------------------------------
    # EFT primitives on planes (out= into scratch)
    # ------------------------------------------------------------------
    def _two_sum_into(self, a, b, s, err, t1, t2):
        # s = a + b; bb = s - a; err = (a - (s - bb)) + (b - bb)
        _add(a, b, out=s)
        _sub(s, a, out=t1)  # bb
        _sub(s, t1, out=t2)
        _sub(a, t2, out=t2)  # a - (s - bb)
        _sub(b, t1, out=t1)  # b - bb; b must be read before err is written
        _add(t2, t1, out=err)

    def _split_into(self, a, hi, lo, t):
        # Veltkamp: t = SPLITTER * a; hi = t - (t - a); lo = a - hi
        _mul(SPLITTER, a, out=t)
        _sub(t, a, out=lo)
        _sub(t, lo, out=hi)
        _sub(a, hi, out=lo)

    def _prod_err_into(self, p, ahi, alo, bhi, blo, err, t1, t2):
        # err = ((ahi*bhi - p) + ahi*blo + alo*bhi) + alo*blo
        _mul(ahi, bhi, out=t1)
        _sub(t1, p, out=t1)
        _mul(ahi, blo, out=t2)
        _add(t1, t2, out=t1)
        _mul(alo, bhi, out=t2)
        _add(t1, t2, out=t1)
        _mul(alo, blo, out=t2)
        _add(t1, t2, out=err)

    # ------------------------------------------------------------------
    # renormalization on a term-major workspace stack (in place)
    # ------------------------------------------------------------------
    def _vecsum_window(self, work, lo, hi, chain, bb, t1, t2):
        """One :func:`~repro.md.renorm.vecsum` pass over ``work[lo:hi]``.

        The head chain is sequential (each sum feeds the next); the
        error terms depend only on chain values already computed, so
        they run as five stacked ufuncs over the whole window.
        """
        length = hi - lo  # >= 2
        chain[length - 1] = work[hi - 1]
        for k in range(length - 2, -1, -1):
            _add(work[lo + k], chain[k + 1], out=chain[k])
        terms = work[lo : hi - 1]
        heads = chain[: length - 1]
        prev = chain[1:length]  # the running sum each term was added to
        vbb = bb[: length - 1]
        v1 = t1[: length - 1]
        v2 = t2[: length - 1]
        _sub(heads, terms, out=vbb)
        _sub(heads, vbb, out=v2)
        _sub(terms, v2, out=v2)  # a - (s - bb)
        _sub(prev, vbb, out=v1)  # b - bb
        _add(v2, v1, out=work[lo + 1 : hi])
        work[lo] = chain[0]

    def _renorm_stack(self, work, n, m, out):
        """Renormalize ``n`` term rows of ``work`` into ``m`` output limbs,
        replaying :func:`repro.md.renorm.renormalize` exactly."""
        shape = work.shape[1:]
        chain, bb, t1, t2, pad, tz = self.arena.bundle(
            ("renorm", n, shape),
            (
                (n, *shape),
                (n - 1, *shape),
                (n - 1, *shape),
                (n - 1, *shape),
                shape,
                shape,
            ),
        )
        if n < m:
            # generic pads with work[0] * 0.0 + 0.0 computed from the
            # original first term — capture it before extraction
            _mul(work[0], 0.0, out=pad)
            _add(pad, 0.0, out=pad)
        n_extract = min(n, m + GUARD_LIMBS)
        if n >= 2:
            for k in range(n_extract):
                if n - k >= 2:
                    self._vecsum_window(work, k, n, chain, bb, t1, t2)
                    self._vecsum_window(work, k, n, chain, bb, t1, t2)
        if n_extract > m:
            # bubble exact zeros towards the tail before truncating;
            # one stacked scan decides whether any swap can fire at all
            # (if no head row holds an exact zero, every generic swap
            # pass is the identity — skipping it changes no values)
            nm1 = n_extract - 1
            (mstack,) = self.arena.bundle(
                ("renorm_mask_stack", nm1, shape), ((nm1, *shape),), bool
            )
            _eq(work[:nm1], 0.0, out=mstack)
            if mstack.any():
                (mask,) = self.arena.bundle(
                    ("renorm_mask", shape), (shape,), bool
                )
                for _ in range(GUARD_LIMBS):
                    for i in range(nm1):
                        _eq(work[i], 0.0, out=mask)
                        if mask.any():
                            _mul(work[i], 0.0, out=tz)
                            _copyto(work[i], work[i + 1], where=mask)
                            _copyto(work[i + 1], tz, where=mask)
            out[...] = work[:m]
        elif n_extract == m:
            out[...] = work[:m]
        else:
            out[:n_extract] = work[:n_extract]
            for row in range(n_extract, m):
                out[row] = pad

    # ------------------------------------------------------------------
    # addition
    # ------------------------------------------------------------------
    def _add_into(self, x, y, m, out):
        if x.shape[0] == 2 and y.shape[0] == 2 and m == 2:
            self._dd_add_into(x, y, out)
            return
        self._add_general_into(x, y, m, out)

    def _sub_into(self, x, y, m, out):
        (neg,) = self.arena.bundle(("sub", y.shape), (y.shape,))
        _neg(y, out=neg)
        self._add_into(x, neg, m, out)

    def _add_general_into(self, x, y, m, out):
        nx, ny = x.shape[0], y.shape[0]
        shape = out.shape[1:]
        n = nx + ny
        (work,) = self.arena.bundle(("add", nx, ny, shape), ((n, *shape),))
        pos = 0
        for i in range(max(nx, ny)):
            if i < nx:
                work[pos] = x[i]
                pos += 1
            if i < ny:
                work[pos] = y[i]
                pos += 1
        self._renorm_stack(work, n, m, out)

    @staticmethod
    def _dd_add_bundle(shape):
        def build(xp):
            ss = xp.empty((2, *shape))
            ee = xp.empty((2, *shape))
            u1 = xp.empty((2, *shape))
            u2 = xp.empty((2, *shape))
            # the per-limb views are part of the cached bundle: basic
            # indexing costs a fresh view object per call otherwise
            return (
                ss, ee, u1, u2, xp.empty(shape), xp.empty(shape),
                ss[0], ss[1], ee[0], ee[1],
            )

        return build

    def _dd_add_into(self, x, y, out):
        shape = out.shape[1:]
        if x.shape[1:] == shape and y.shape[1:] == shape:
            # both limb pairs in one stacked two_sum over the limb axis
            ss, ee, u1, u2, u, w, s1, t1, s2, t2 = self.arena.bundle(
                ("dd_add", shape), build=self._dd_add_bundle(shape)
            )
            _add(x, y, ss)
            _sub(ss, x, u1)  # bb
            _sub(ss, u1, u2)
            _sub(x, u2, u2)
            _sub(y, u1, u1)
            _add(u2, u1, ee)
        else:
            s1, s2, t1, t2, u, w = self.arena.bundle(
                ("dd_add_mixed", shape), (shape,) * 6
            )
            self._two_sum_into(x[0], y[0], s1, s2, u, w)
            self._two_sum_into(x[1], y[1], t1, t2, u, w)
        _add(s2, t1, s2)
        # quick_two_sum(s1, s2)
        _add(s1, s2, u)
        _sub(u, s1, w)
        _sub(s2, w, s2)
        s1 = u
        _add(s2, t2, s2)
        # quick_two_sum into the output limbs
        o0, o1 = out[0], out[1]
        _add(s1, s2, o0)
        _sub(o0, s1, w)
        _sub(s2, w, o1)

    # ------------------------------------------------------------------
    # multiplication
    # ------------------------------------------------------------------
    def _mul_into(self, x, y, m, out):
        if x.shape[0] == 2 and y.shape[0] == 2 and m == 2:
            self._dd_mul_into(x, y, out)
            return
        self._mul_general_into(x, y, m, out)

    def _dd_mul_into(self, x, y, out):
        shape = out.shape[1:]
        xs, ys = x.shape[1:], y.shape[1:]
        p1, p2, t1, t2, ahi, alo, at, bhi, blo, bt = self.arena.bundle(
            ("dd_mul", shape, xs, ys),
            (shape, shape, shape, shape, xs, xs, xs, ys, ys, ys),
        )
        x0, x1 = x[0], x[1]
        y0, y1 = y[0], y[1]
        _mul(x0, y0, p1)
        # Veltkamp splits of the leading limbs, inlined
        _mul(SPLITTER, x0, at)
        _sub(at, x0, alo)
        _sub(at, alo, ahi)
        _sub(x0, ahi, alo)
        _mul(SPLITTER, y0, bt)
        _sub(bt, y0, blo)
        _sub(bt, blo, bhi)
        _sub(y0, bhi, blo)
        self._prod_err_into(p1, ahi, alo, bhi, blo, p2, t1, t2)
        _mul(x0, y1, t2)
        _add(p2, t2, p2)
        _mul(x1, y0, t2)
        _add(p2, t2, p2)
        # quick_two_sum(p1, p2) into the output limbs
        o0, o1 = out[0], out[1]
        _add(p1, p2, o0)
        _sub(o0, p1, t1)
        _sub(p2, t1, o1)

    def _mul_general_into(self, x, y, m, out):
        nx, ny = x.shape[0], y.shape[0]
        pairs, corr, rows, n_terms = _mul_layout(nx, ny, m)
        if n_terms == 0:
            zt = (x[0] * 0.0) + 0.0  # generic zero(m, like=x[0])
            for row in range(m):
                _copyto(out[row], zt)
            return
        shape = out.shape[1:]
        xs, ys = x.shape[1:], y.shape[1:]
        cx, cy = min(nx, m), min(ny, m)
        work, xhi, xlo, xt, yhi, ylo, yt, t1, t2 = self.arena.bundle(
            ("mul", nx, ny, m, shape, xs, ys),
            (
                (n_terms, *shape),
                (cx, *xs),
                (cx, *xs),
                xs,
                (cy, *ys),
                (cy, *ys),
                ys,
                shape,
                shape,
            ),
        )
        # Veltkamp halves of the input limbs, computed once (the generic
        # code recomputes them per partial product — deterministically,
        # so reuse changes nothing)
        for i in range(cx):
            self._split_into(x[i], xhi[i], xlo[i], xt)
        for j in range(cy):
            self._split_into(y[j], yhi[j], ylo[j], yt)
        for i, j in pairs:
            prow = work[rows[("p", i, j)]]
            _mul(x[i], y[j], out=prow)
            erow = rows.get(("e", i, j))
            if erow is not None:
                self._prod_err_into(
                    prow, xhi[i], xlo[i], yhi[j], ylo[j], work[erow], t1, t2
                )
        if corr:
            crow = work[rows[("corr",)]]
            (i0, j0), rest = corr[0], corr[1:]
            _mul(x[i0], y[j0], out=crow)
            for i, j in rest:
                _mul(x[i], y[j], out=t2)
                _add(crow, t2, out=crow)
        self._renorm_stack(work, n_terms, m, out)

    def _mul_double_into(self, x, d, m, out):
        """``x`` times one double plane ``d`` (the long-division helper)."""
        nx = x.shape[0]
        n_limbs, tail, rows, n_terms = _mul_double_layout(nx, m)
        shape = out.shape[1:]
        xs, ds = x.shape[1:], d.shape
        work, xhi, xlo, xt, dhi, dlo, dt, t1, t2 = self.arena.bundle(
            ("mul_double", nx, m, shape, xs, ds),
            (
                (n_terms, *shape),
                (n_limbs, *xs),
                (n_limbs, *xs),
                xs,
                ds,
                ds,
                ds,
                shape,
                shape,
            ),
        )
        for i in range(n_limbs):
            self._split_into(x[i], xhi[i], xlo[i], xt)
        self._split_into(d, dhi, dlo, dt)
        for i in range(n_limbs):
            prow = work[rows[("p", i)]]
            _mul(x[i], d, out=prow)
            self._prod_err_into(
                prow, xhi[i], xlo[i], dhi, dlo, work[rows[("e", i)]], t1, t2
            )
        if tail:
            _mul(x[m], d, out=work[rows[("t",)]])
        self._renorm_stack(work, n_terms, m, out)

    def _sqr_into(self, x, m, out):
        n = x.shape[0]
        steps, corr, rows, n_terms = _sqr_layout(n, m)
        if n_terms == 0:
            zt = (x[0] * 0.0) + 0.0
            for row in range(m):
                _copyto(out[row], zt)
            return
        shape = out.shape[1:]
        xs = x.shape[1:]
        c = min(n, m)
        work, xhi, xlo, xt, t1, t2, t3 = self.arena.bundle(
            ("sqr", n, m, shape, xs),
            ((n_terms, *shape), (c, *xs), (c, *xs), xs, shape, shape, shape),
        )
        for i in range(c):
            self._split_into(x[i], xhi[i], xlo[i], xt)
        for step in steps:
            if step[0] == "sq":
                i = step[1]
                prow = work[rows[("p", i)]]
                _mul(x[i], x[i], out=prow)
                erow = rows.get(("e", i))
                if erow is not None:
                    # two_sqr err: ((hi*hi - p) + (hi*lo + hi*lo)) + lo*lo
                    _mul(xhi[i], xhi[i], out=t1)
                    _sub(t1, prow, out=t1)
                    _mul(xhi[i], xlo[i], out=t2)
                    _add(t2, t2, out=t2)
                    _add(t1, t2, out=t1)
                    _mul(xlo[i], xlo[i], out=t2)
                    _add(t1, t2, out=work[erow])
            elif step[0] == "diag":
                i = step[1]
                _mul(x[i], x[i], out=work[rows[("d", i)]])
            else:  # off-diagonal pair, doubled
                _, i, j = step
                _mul(x[i], x[j], out=t1)  # p (kept undoubled for err)
                erow = rows.get(("E", i, j))
                if erow is not None:
                    self._prod_err_into(
                        t1, xhi[i], xlo[i], xhi[j], xlo[j], t2, t3, work[erow]
                    )
                    _add(t2, t2, out=work[erow])
                _add(t1, t1, out=work[rows[("P", i, j)]])
        if corr:
            crow = work[rows[("corr",)]]
            (i0, j0), rest = corr[0], corr[1:]
            _mul(x[i0], x[j0], out=crow)
            _add(crow, crow, out=crow)
            for i, j in rest:
                _mul(x[i], x[j], out=t2)
                _add(t2, t2, out=t2)
                _add(crow, t2, out=crow)
        self._renorm_stack(work, n_terms, m, out)

    # ------------------------------------------------------------------
    # division / fma / square root
    # ------------------------------------------------------------------
    def _div_into(self, x, y, m, out):
        nx = x.shape[0]
        shape = out.shape[1:]
        quot, rem, rem2, md = self.arena.bundle(
            ("div", nx, m, shape),
            ((m + 1, *shape), (nx, *shape), (nx, *shape), (nx, *shape)),
        )
        rem[...] = x
        for k in range(m + 1):
            _div(rem[0], y[0], out=quot[k])
            if k < m:
                # r = sub(r, mul_double(y, qk, len(r)))
                self._mul_double_into(y, quot[k], nx, md)
                _neg(md, out=md)
                self._add_into(rem, md, nx, rem2)
                rem, rem2 = rem2, rem
        self._renorm_stack(quot, m + 1, m, out)

    def _fma_into(self, x, y, z, m, out):
        mt = m + 1 if x.shape[0] >= m else m
        pshape = np.broadcast_shapes(x.shape[1:], y.shape[1:])
        (prod,) = self.arena.bundle(("fma", mt, pshape), ((mt, *pshape),))
        self._mul_into(x, y, mt, prod)
        self._add_into(prod, z, m, out)

    def _sqrt_into(self, x, m, out):
        shape = x.shape[1:]
        sf, tmp, yc, one, y2, xy2, resid, corr, ynew, root, root2, err = (
            self.arena.bundle(
                ("sqrt", m, shape),
                (shape, shape) + ((m, *shape),) * 10,
            )
        )
        (mask,) = self.arena.bundle(("sqrt_mask", shape), (shape,), bool)
        _eq(x[0], 0.0, out=mask)
        # y0 = 1 / sqrt(where(zero, 1.0, leading))
        _copyto(sf, x[0])
        _copyto(sf, 1.0, where=mask)
        _sqrt(sf, out=sf)
        _div(1.0, sf, out=sf)
        # y = from_double(y0, m): tail limbs are y0 * 0.0 + 0.0
        _copyto(yc[0], sf)
        if m > 1:
            _mul(sf, 0.0, out=tmp)
            _add(tmp, 0.0, out=tmp)
            for row in range(1, m):
                _copyto(yc[row], tmp)
        # one = from_double(x[0] * 0.0 + 1.0, m)
        _mul(x[0], 0.0, out=one[0])
        _add(one[0], 1.0, out=one[0])
        if m > 1:
            _mul(one[0], 0.0, out=tmp)
            _add(tmp, 0.0, out=tmp)
            for row in range(1, m):
                _copyto(one[row], tmp)
        iters = max(1, math.ceil(math.log2(max(m, 2))) + 1)
        for _ in range(iters):
            self._sqr_into(yc, m, y2)
            self._mul_into(x, y2, m, xy2)
            self._sub_into(one, xy2, m, resid)
            self._mul_into(yc, resid, m, corr)
            _mul(corr, 0.5, out=corr)  # scale_pow2
            self._add_into(yc, corr, m, ynew)
            yc, ynew = ynew, yc
        self._mul_into(x, yc, m, root)
        # one Newton correction on the root itself: root += (x - root^2)*y/2
        self._sqr_into(root, m, root2)
        self._sub_into(x, root2, m, err)
        self._mul_into(err, yc, m, corr)
        _mul(corr, 0.5, out=corr)
        self._add_into(root, corr, m, out)
        _copyto(out, 0.0, where=mask)
