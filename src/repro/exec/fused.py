"""Fused NumPy execution backend: same float sequence, array-level kernels.

Every method of :class:`FusedBackend` computes the generic backend's
results (and therefore the scalar reference world's): every non-NaN
bit is equal and NaNs sit at the same positions.  IEEE double
arithmetic is deterministic, so an operation reorganization changes
results only if it changes *which* elementwise float operations feed
which.  The one thing it leaves open is which NaN a NaN result
carries: of two NaN operands NumPy keeps one by operand order, and its
SIMD body and scalar tail choose differently (``np.add`` of +NaN and
-NaN over 257 elements gives +NaN in the first 256 and -NaN in the
last), so the sign or payload of a NaN can depend on launch width.
The kernels below keep the generic term orders, EFT formulas and
renormalization chains exactly, and only change how the work is
issued:

* every micro-op writes into scratch via ``out=`` instead of
  allocating a temporary; a kernel carves its scratch as views of one
  per-thread workspace (:class:`repro.exec.arena.ScratchArena`), and a
  kernel it calls carves above it, so issuing an operation allocates
  nothing but its output (no value change);
* a launch whose scratch would not fit the workspace runs in element
  chunks sized to fit, which also keeps each chunk's whole EFT chain
  cache-resident instead of making one full-array memory pass per
  micro-op; the kernels are elementwise, so chunks compute the same
  floats (no value change);
* independent EFTs run as one stacked ufunc over a ``(k,) + shape``
  workspace axis — e.g. both limb pairs of a double double addition, or
  all error terms of a ``vecsum`` pass — computing the same elementwise
  formulas in one call (no value change);
* Veltkamp splits of input limbs are computed once and reused across
  the partial products that share them — the generic code recomputes
  them, deterministically producing the same halves (no value change);
* the renormalization runs in place on one term-major workspace stack:
  the sequential head chain ``s_i = fl(a_i + s_{i+1})`` is the only
  data-dependent part of :func:`repro.md.renorm.vecsum`.  On planes of
  at most ``_SCAN_MAX_PLANE`` elements the chain runs as one
  ``np.add.accumulate`` scan, on wider ones as ``n-1`` adds, and the
  error terms — each depending only on ``(a_i, s_i, s_{i+1})`` — follow
  as five stacked ufuncs.  The scan adds in the other operand order,
  which changes no bit unless both operands are NaN; a scanned chain
  that ends in a NaN is recomputed by the loop (no value change, NaN
  bits included);
* launch *configuration* that depends only on sizes — pairwise
  reduction halves, Cauchy anti-diagonal gather indices — is resolved
  to views / cached index arrays instead of being recomputed and
  copied per call (no value change).

The launch order of ``add``, ``sub``, ``mul``, ``div``, ``sqr`` and
``sqrt``: one-limb launches (``m = 1``, every operand one limb) first
try the plain IEEE double kernels of :mod:`repro.exec.onelimb`, exactly
as the generic backend does; a launch whose output plane holds at most
a few elements then tries the narrow replay of
:mod:`repro.exec.narrow`, :mod:`repro.md.generic` itself run element by
element on Python floats, which skips a kernel's fixed per-call cost
(the QR's one-element norms and betas); the kernels below run the
launches both decline.

The oracle for all of this is the existing bit-identity suite: the
vectorized-vs-scalar-reference tests plus ``tests/exec`` compare the
two backends limb for limb, NaNs by position.

On a CuPy array module the same kernels become real device launches;
the workspace is then device memory.  (NumPy is the only module
exercised in CI.)
"""

from __future__ import annotations

import math

import numpy as np

from ..md.eft import SPLITTER
from ..md.renorm import GUARD_LIMBS
from . import narrow, onelimb
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
_isnan = np.isnan
_accumulate = np.add.accumulate
_copyto = np.copyto
_empty = np.empty

# the widest plane whose renormalization head chains run as one scan
# (see FusedBackend._vecsum_window)
_SCAN_MAX_PLANE = 256


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


def _cut(op, axis, ndim, n, part):
    """``op`` restricted to ``part`` along output axis ``axis`` (of
    ``ndim``), or whole where it broadcasts along that axis."""
    own = axis - (ndim - op.ndim)  # element axes align from the right
    if own < 1 or op.shape[own] != n:
        return op
    return op[(slice(None),) * own + (part,)]


class FusedBackend(GenericBackend):
    """Fused ``out=`` kernels on one bounded scratch workspace per thread,
    equal to :class:`GenericBackend` in every non-NaN bit and in where
    the NaNs are."""

    name = "fused"

    def __init__(self, xp=np):
        super().__init__(xp)
        self._planes: dict = {}  # see _scratch_planes
        # the narrow replay works on host floats: device arrays skip it
        self._replays = xp is np

    # ------------------------------------------------------------------
    # launches
    # ------------------------------------------------------------------
    def _launch(self, kernel, operands, m):
        """Run ``kernel(*operands, m, out, top)`` into a fresh
        ``(m,) + broadcast shape`` output, chunked so its scratch fits."""
        shape = operands[0].shape[1:]
        for op in operands:
            if op.shape[1:] != shape or not shape:
                # mixed element shapes broadcast against each other; a 0-d
                # element shape indexes to numpy scalars, which cannot be
                # ufunc out= targets, so it gets one broadcast element axis
                shape = np.broadcast_shapes(*(op.shape[1:] for op in operands))
                operands = tuple(
                    op.reshape((op.shape[0], 1)) if op.ndim == 1 else op
                    for op in operands
                )
                break
        out = _empty((m, *(shape or (1,))))
        fit = max(1, self.arena.capacity // self._scratch_planes(kernel, operands, m))
        if out.size // m <= fit:
            kernel(*operands, m, out, 0)
        else:
            self._run_chunks(kernel, operands, m, out, fit, 1)
        return out if shape else out.reshape((m,))

    def _scratch_planes(self, kernel, operands, m):
        """Workspace elements ``kernel`` carves per output element.

        A kernel carves the same buffers whatever the values, each at
        most one output plane per limb row, so the count depends only on
        the limb counts; it is measured once on a one-element launch."""
        key = (kernel.__func__, m, *map(len, operands))
        planes = self._planes.get(key)
        if planes is None:
            probe = [np.ones((op.shape[0], 1)) for op in operands]
            out = _empty((m, 1))
            with np.errstate(all="ignore"):
                planes = self.arena.high_water(lambda: kernel(*probe, m, out, 0))
            self._planes[key] = planes = max(planes, 1)
        return planes

    def _run_chunks(self, kernel, operands, m, out, fit, axis):
        """Run ``kernel`` over ``out``, whose limb planes hold more than
        ``fit`` elements, in chunks of at most ``fit`` cut along element
        axis ``axis`` (the axes before it are already down to one index);
        each chunk carves from offset 0."""
        n = out.shape[axis]
        row = out.size // m // n  # elements per index along axis
        step = fit // row
        lead = (slice(None),) * axis
        ndim = out.ndim
        for lo in range(0, n, step or 1):
            part = slice(lo, lo + (step or 1))
            parts = tuple(_cut(op, axis, ndim, n, part) for op in operands)
            if step:
                kernel(*parts, m, out[lead + (part,)], 0)
            else:  # one index along axis is still too big: cut the next
                self._run_chunks(kernel, parts, m, out[lead + (part,)], fit, axis + 1)

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def add(self, x, y, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.add(x, y, m)
        if out is None and self._replays:
            out = narrow.launch("add", m, x, y)
        if out is None:
            out = self._launch(self._add_into, (x, y), m)
        return out

    def sub(self, x, y, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.sub(x, y, m)
        if out is None and self._replays:
            out = narrow.launch("sub", m, x, y)
        if out is None:
            out = self._launch(self._sub_into, (x, y), m)
        return out

    def mul(self, x, y, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.mul(x, y, m)
        if out is None and self._replays:
            out = narrow.launch("mul", m, x, y)
        if out is None:
            out = self._launch(self._mul_into, (x, y), m)
        return out

    def div(self, x, y, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.div(x, y, m)
        if out is None and self._replays:
            out = narrow.launch("div", m, x, y)
        if out is None:
            out = self._launch(self._div_into, (x, y), m)
        return out

    def sqr(self, x, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.sqr(x, m)
        if out is None and self._replays:
            out = narrow.launch("sqr", m, x)
        if out is None:
            out = self._launch(self._sqr_into, (x,), m)
        return out

    def fma(self, x, y, z, m=None):
        if m is None:
            m = x.shape[0]
        return self._launch(self._fma_into, (x, y, z), m)

    def sqrt(self, x, m=None):
        if m is None:
            m = x.shape[0]
        out = onelimb.sqrt(x, m)
        if out is None and self._replays:
            out = narrow.launch("sqrt", m, x)
        if out is None:
            out = self._launch(self._sqrt_into, (x,), m)
        return out

    def renormalize(self, limbs, m):
        stacks = tuple(np.asarray(limb, dtype=np.float64)[None] for limb in limbs)
        return self._launch(self._renormalize_into, stacks, m)

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

        The head chain ``chain[k] = fl(work[lo + k] + chain[k + 1])`` is
        sequential (each sum feeds the next).  Issued as one add per
        term, it costs one call per term, which is the whole cost on a
        small plane; so on planes of at most ``_SCAN_MAX_PLANE`` elements
        it runs as one ``_accumulate`` of the reversed term rows into
        the reversed chain rows.  Above that the per-term loop is faster,
        because ``accumulate`` runs its inner loop once per element.

        The scan adds the running sum first where the loop adds the term
        first.  IEEE addition commutes, so the bits agree unless both
        operands are NaN, when NumPy keeps one of the two NaNs by
        operand order.  A NaN anywhere in the chain reaches
        ``chain[0]``, so a scanned chain whose ``chain[0]`` holds a NaN
        is recomputed by the loop, and every output bit, NaN signs and
        payloads included, is the loop's.

        The error terms depend only on chain values already computed,
        so they run as five stacked ufuncs over the whole window.
        """
        length = hi - lo  # >= 2
        head = chain[0]
        scanned = head.size <= _SCAN_MAX_PLANE
        if scanned:
            _accumulate(work[lo:hi][::-1], axis=0, out=chain[length - 1 :: -1])
            scanned = not _isnan(head).any()
        if not scanned:
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

    def _renormalize_into(self, *args):
        *stacks, m, out, top = args  # one single-limb stack per term
        n = len(stacks)
        work, top = self.arena.carve(top, (n, *out.shape[1:]))
        for row, stack in enumerate(stacks):
            _copyto(work[row], stack[0])
        self._renorm_stack(work, n, m, out, top)

    def _renorm_stack(self, work, n, m, out, top):
        """Renormalize ``n`` term rows of ``work`` into ``m`` output limbs,
        replaying :func:`repro.md.renorm.renormalize` exactly."""
        shape = work.shape[1:]
        block, top = self.arena.carve(top, (4 * n - 1, *shape))
        chain, pad, tz = block[:n], block[n], block[n + 1]
        bb, t1, t2 = block[n + 2 : 2 * n + 1], block[2 * n + 1 : 3 * n], block[3 * n :]
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
            masks, _ = self.arena.carve(top, (n_extract, *shape), dtype=np.bool_)
            mstack, mask = masks[:nm1], masks[nm1]
            _eq(work[:nm1], 0.0, out=mstack)
            if mstack.any():
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
    def _add_into(self, x, y, m, out, top):
        if x.shape[0] == 2 and y.shape[0] == 2 and m == 2:
            self._dd_add_into(x, y, out, top)
            return
        self._add_general_into(x, y, m, out, top)

    def _sub_into(self, x, y, m, out, top):
        neg, top = self.arena.carve(top, y.shape)
        _neg(y, out=neg)
        self._add_into(x, neg, m, out, top)

    def _add_general_into(self, x, y, m, out, top):
        nx, ny = x.shape[0], y.shape[0]
        shape = out.shape[1:]
        n = nx + ny
        work, top = self.arena.carve(top, (n, *shape))
        pos = 0
        for i in range(max(nx, ny)):
            if i < nx:
                work[pos] = x[i]
                pos += 1
            if i < ny:
                work[pos] = y[i]
                pos += 1
        self._renorm_stack(work, n, m, out, top)

    def _dd_add_into(self, x, y, out, top):
        shape = out.shape[1:]
        if x.shape[1:] == shape and y.shape[1:] == shape:
            # both limb pairs in one stacked two_sum over the limb axis;
            # one carved block, split by indexing (cheaper than one carve
            # per buffer at the small launch shapes of the QR tiles)
            block, _ = self.arena.carve(top, (10, *shape))
            ss, ee, u1, u2 = block[0:2], block[2:4], block[4:6], block[6:8]
            s1, t1, s2, t2 = block[0], block[1], block[2], block[3]
            u, w = block[8], block[9]
            _add(x, y, ss)
            _sub(ss, x, u1)  # bb
            _sub(ss, u1, u2)
            _sub(x, u2, u2)
            _sub(y, u1, u1)
            _add(u2, u1, ee)
        else:
            (s1, s2, t1, t2, u, w), _ = self.arena.carve(top, (6, *shape))
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
    def _mul_into(self, x, y, m, out, top):
        if x.shape[0] == 2 and y.shape[0] == 2 and m == 2:
            self._dd_mul_into(x, y, out, top)
            return
        self._mul_general_into(x, y, m, out, top)

    def _dd_mul_into(self, x, y, out, top):
        shape = out.shape[1:]
        xs, ys = x.shape[1:], y.shape[1:]
        (p1, p2, t1, t2), (ahi, alo, at), (bhi, blo, bt), _ = self.arena.carve(
            top, (4, *shape), (3, *xs), (3, *ys)
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

    def _mul_general_into(self, x, y, m, out, top):
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
        work, xhi, xlo, xt, yhi, ylo, yt, t1, t2, top = self.arena.carve(
            top,
            (n_terms, *shape),
            (cx, *xs),
            (cx, *xs),
            xs,
            (cy, *ys),
            (cy, *ys),
            ys,
            shape,
            shape,
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
        self._renorm_stack(work, n_terms, m, out, top)

    def _mul_double_into(self, x, d, m, out, top):
        """``x`` times one double plane ``d`` (the long-division helper)."""
        nx = x.shape[0]
        n_limbs, tail, rows, n_terms = _mul_double_layout(nx, m)
        shape = out.shape[1:]
        xs, ds = x.shape[1:], d.shape
        work, xhi, xlo, xt, dhi, dlo, dt, t1, t2, top = self.arena.carve(
            top,
            (n_terms, *shape),
            (n_limbs, *xs),
            (n_limbs, *xs),
            xs,
            ds,
            ds,
            ds,
            shape,
            shape,
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
        self._renorm_stack(work, n_terms, m, out, top)

    def _sqr_into(self, x, m, out, top):
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
        work, xhi, xlo, xt, t1, t2, t3, top = self.arena.carve(
            top, (n_terms, *shape), (c, *xs), (c, *xs), xs, shape, shape, shape
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
        self._renorm_stack(work, n_terms, m, out, top)

    # ------------------------------------------------------------------
    # division / fma / square root
    # ------------------------------------------------------------------
    def _div_into(self, x, y, m, out, top):
        nx = x.shape[0]
        shape = out.shape[1:]
        quot, rem, rem2, md, top = self.arena.carve(
            top, (m + 1, *shape), (nx, *shape), (nx, *shape), (nx, *shape)
        )
        rem[...] = x
        for k in range(m + 1):
            _div(rem[0], y[0], out=quot[k])
            if k < m:
                # r = sub(r, mul_double(y, qk, len(r)))
                self._mul_double_into(y, quot[k], nx, md, top)
                _neg(md, out=md)
                self._add_into(rem, md, nx, rem2, top)
                rem, rem2 = rem2, rem
        self._renorm_stack(quot, m + 1, m, out, top)

    def _fma_into(self, x, y, z, m, out, top):
        mt = m + 1 if x.shape[0] >= m else m
        pshape = np.broadcast_shapes(x.shape[1:], y.shape[1:])
        prod, top = self.arena.carve(top, (mt, *pshape))
        self._mul_into(x, y, mt, prod, top)
        self._add_into(prod, z, m, out, top)

    def _sqrt_into(self, x, m, out, top):
        shape = x.shape[1:]
        sf, tmp, yc, one, y2, xy2, resid, corr, ynew, root, root2, err, top = (
            self.arena.carve(top, shape, shape, *((m, *shape),) * 10)
        )
        mask, top = self.arena.carve(top, shape, dtype=np.bool_)
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
            self._sqr_into(yc, m, y2, top)
            self._mul_into(x, y2, m, xy2, top)
            self._sub_into(one, xy2, m, resid, top)
            self._mul_into(yc, resid, m, corr, top)
            _mul(corr, 0.5, out=corr)  # scale_pow2
            self._add_into(yc, corr, m, ynew, top)
            yc, ynew = ynew, yc
        self._mul_into(x, yc, m, root, top)
        # one Newton correction on the root itself: root += (x - root^2)*y/2
        self._sqr_into(root, m, root2, top)
        self._sub_into(x, root2, m, err, top)
        self._mul_into(err, yc, m, corr, top)
        _mul(corr, 0.5, out=corr)
        self._add_into(root, corr, m, out, top)
        _copyto(out, 0.0, where=mask)
