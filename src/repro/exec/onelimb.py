"""One-limb kernels: d launches as plain IEEE double arithmetic.

At ``m = 1`` every kernel of :mod:`repro.md.generic` is an error-free
transformation followed by a renormalization to one limb: ``add``
computes ``[v, err] = two_sum(x, y)``, ``mul`` computes ``[v, err] =
two_prod(x, y)``, and :func:`repro.md.renorm.renormalize` runs two
``vecsum`` passes and the zero-bubbling swaps over the pair.  When the
transformation is exact, ``v + err`` rounds to ``v``, so both passes
hand back ``[v, err]`` and the swaps only act on a zero head, which
leaves as ``+0.0`` whatever its sign.  So ``renormalize([v, err], 1)``
is ``v + 0.0``, and

* ``add``, ``sub``, ``mul`` and ``sqr`` are one IEEE operation plus
  ``+ 0.0``;
* ``div`` and ``sqrt`` replay the float sequence of
  :func:`repro.md.generic.div` and :func:`repro.md.generic.sqrt` at
  ``m = 1``, each renormalization reduced to that ``+ 0.0``.

The results are bitwise identical to the expansion path whenever every
transformation of the launch is exact and finite.  Each kernel checks
that for the whole launch and returns ``None`` when it cannot vouch for
it; the backend then runs the launch down its expansion path.  The
guards:

* a sum ``s = fl(a + b)`` needs ``|s| < 2**1022``.  Then either both
  operands lie below ``2**1023`` and no intermediate of 2Sum can
  overflow, or they lie within a factor two of each other, so the sum
  is exact (Sterbenz) and so is every step of 2Sum.  A finite ``s``
  alone is not enough: 2Sum of ``-3 * 2**970`` and the largest double
  overflows in ``s - a``.
* a product ``p = fl(a * b)`` needs ``|a|, |b| <`` :data:`SPLIT_THRESHOLD`
  (the Veltkamp splits stay finite), ``max|a| * max|b| < 2**1023`` (no
  product of split halves overflows) and ``min|a| * min|b| > 2**-969``
  over the nonzero operands (no product of split halves underflows, so
  Dekker's error term is exact; a zero operand gives an exact zero).

The bounds are taken over the whole launch, so one out-of-range
element sends the whole launch down the expansion path.  Non-finite
operands and results fail every guard.

Windows: one check per composite launch.  ``sqrt`` runs 15 of the step
guards above (9 products, 6 sums), ``div`` 3, and a pairwise sum tree
one per level.  Each of them first checks its operands once against a
window inside which every one of its step guards provably vouches.
Inside the window the same float sequence runs with plain IEEE steps
(each still settled with ``+ 0.0``); outside it the guarded sequence
runs unchanged.  So a launch is vouched for or declined exactly as the
step guards alone decide, and its bits do not change.  Below, ``u =
2**-53``; a product guard holds when both factors' maxima lie below
``2**996``, the product of the maxima ("maxima") below ``2**1023`` and
the product of the nonzero minima ("minima") above ``2**-969``.

* ``sqrt``, window :data:`SQRT_WINDOW`: a radicand with no negative
  element (``-0.0`` allowed) and every nonzero element in
  ``[2**-300, 2**300]``.  A nonzero ``x`` has ``sqrt(x)`` in
  ``[2**-150, 2**150]``.  The start ``y = fl(1 / fl(sqrt(x)))`` is
  ``1/sqrt(x)`` within a relative ``3u``, and each Newton update squares
  that error and adds at most ``3u`` of rounding, so every ``y`` stays
  within a relative ``8u`` and lies in ``[2**-151, 2**151]``; a zero
  element runs ``y = 1, 1.5, 2.25``.  Step by step:

  - ``y*y`` lies in ``[2**-302, 2**302]`` and ``x * y*y`` has factor
    maxima ``2**300 * 2**302`` and minima ``2**-300 * 2**-302``: the
    product guards hold.
  - ``p = fl(x * y*y)`` lies in ``[1/2, 2]`` (``0`` for a zero
    element), so ``resid = 1 - p`` is exact, at most ``1`` in size, and
    a nonzero one is a multiple of ``2**-53``.  Its sum guard holds, and
    so does the product guard of ``y * resid`` (maxima ``2**151``,
    minima ``2**-151 * 2**-53``); ``y + y*resid/2`` stays below
    ``2**152``.
  - ``root = fl(x * y)`` (maxima ``2**451``, minima ``2**-451``) is
    ``sqrt(x)`` within a relative ``10u``, so ``root*root`` lies in
    ``[2**-303, 2**303]``.  ``err = x - fl(root*root)`` is exact
    (Sterbenz) and, both operands being doubles of at least
    ``2**-303``, a multiple of ``2**-355``: its sum guard holds and
    ``err * y`` has maxima ``2**301 * 2**151``, minima ``2**-355 *
    2**-151``.  The last sum stays below ``2**152``.

  Outside the window: a negative element makes the start NaN, and the
  step guards decide the rest.
* ``div``, window :data:`DIV_WINDOW`: a dividend with every nonzero
  ``|x|`` in ``[2**-240, 2**240]`` and a divisor with every ``|y|`` in
  ``[2**-240, 2**240]`` (no zeros).  A nonzero quotient head ``q0 =
  fl(x / y)`` lies in ``[2**-480, 2**480]`` (rounding is monotone and
  the ends are doubles), so the product guard of ``y * q0`` holds
  (maxima ``2**720``, minima ``2**-720``; an all-zero ``q0`` has minimum
  ``inf``).  Element by element ``|y*q0| <= 2**241``, so ``r = x -
  fl(y*q0)`` stays below ``2**242``, ``|fl(r / y)| <= 2**482`` and the
  last sum ``q0 + r/y`` stays below ``2**483``: both sum guards hold.
* pairwise sum trees (:func:`sum_tree`): every level of
  :func:`repro.vec.mdarray.pairwise_reduce` over ``n`` terms adds two
  partial sums of disjoint term sets (or a term and a padded zero), so
  by induction a partial sum after ``L`` levels is at most ``(sum of its
  |terms|) * (1 + u)**L <= n * M * (1 + u)**ceil(log2 n)``, with ``M =
  max|x|`` over the whole stack.  The check is ``fl(fl(n * M) *``
  :data:`TREE_SLACK` ``) < 2**1022``; rounding is monotone and
  ``2**1022`` is a double, so it gives ``n * M * (1 - u) * (1 +
  2**-40) < 2**1022``, and since ``(1 + u)**63 / (1 - u) < 1 +
  2**-40``, every partial sum of every level stays below ``2**1022``:
  each level's sum guard vouches.  A NaN or an infinity fails the
  check.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..md.eft import SPLIT_THRESHOLD

__all__ = [
    "DIV_WINDOW",
    "PRODUCT_LIMIT",
    "PRODUCT_TINY",
    "SQRT_WINDOW",
    "SUM_LIMIT",
    "TREE_SLACK",
    "add",
    "div",
    "mul",
    "sqr",
    "sqrt",
    "sub",
    "sum_tree",
]

#: A sum is vouched for when its magnitude stays below this bound.
SUM_LIMIT = 2.0**1022
#: Bound on ``max|a| * max|b|`` over the operands of a vouched product.
PRODUCT_LIMIT = 2.0**1023
#: Bound under ``min|a| * min|b|`` over the nonzero operands of a
#: vouched product.
PRODUCT_TINY = 2.0**-969
#: ``(low, high)``: every step of a ``sqrt`` launch whose radicand has
#: no negative element and every nonzero element in ``[low, high]`` is
#: vouched for.
SQRT_WINDOW = (2.0**-300, 2.0**300)
#: ``(low, high)``: every step of a ``div`` launch whose dividend has
#: every nonzero magnitude, and whose divisor every magnitude, in
#: ``[low, high]`` is vouched for.
DIV_WINDOW = (2.0**-240, 2.0**240)
#: Rounding slack of the sum-tree bound ``n * max|x| * TREE_SLACK <
#: SUM_LIMIT``.
TREE_SLACK = 1.0 + 2.0**-40

# module-level ufunc handles, as in repro.exec.fused
_abs = np.abs
_max = np.maximum.reduce
_min = np.minimum.reduce
_plus = np.add
_minus = np.subtract
_sqrt = np.sqrt
_where = np.where

_ZERO = np.zeros(())
_ONE_BIT = np.uint64(1)
# the bit pattern of +0.0, minus one
_WRAPPED_ZERO = 2**64 - 1
_BITS = struct.Struct("<Q")
_DOUBLE = struct.Struct("<d")


class _Unvouched(Exception):
    """A guard failed: the launch goes down the expansion path."""


def _settle(v):
    """``renormalize([v, err], 1)`` of an exact pair: ``v``, with a
    zero of either sign as ``+0.0`` (``v`` is a fresh temporary)."""
    return _plus(v, _ZERO, out=v)


def _sum_guard(s):
    if not _max(_abs(s), axis=None, initial=0.0) < SUM_LIMIT:
        raise _Unvouched


def _smallest_nonzero(size):
    """The smallest nonzero element of the magnitudes ``size`` (a fresh
    temporary, which this overwrites), ``inf`` when all are zero.

    As unsigned integers, nonnegative doubles keep their order; minus
    one wraps the zeros to the top."""
    bits = size.view(np.uint64)
    _minus(bits, _ONE_BIT, out=bits)
    least = int(_min(bits, axis=None))
    if least == _WRAPPED_ZERO:
        return math.inf
    return _DOUBLE.unpack(_BITS.pack(least + 1))[0]


def _magnitudes(a):
    """The largest and the smallest nonzero ``|a|`` of a launch operand
    (``nan`` and ``inf`` propagate to the largest)."""
    size = _abs(a)
    big = float(_max(size, axis=None, initial=0.0))
    small = float(_min(size, axis=None, initial=math.inf))
    if small == 0.0:
        small = _smallest_nonzero(size)
    return big, small


def _product_guard(a, b):
    # Python floats: an overflowing bound reads inf and fails quietly,
    # and an underflowing one reads 0.0 and fails too
    big_a, small_a = _magnitudes(a)
    big_b, small_b = (big_a, small_a) if b is a else _magnitudes(b)
    if not (
        big_a < SPLIT_THRESHOLD
        and big_b < SPLIT_THRESHOLD
        and big_a * big_b < PRODUCT_LIMIT
        and small_a * small_b > PRODUCT_TINY
    ):
        raise _Unvouched


# ---------------------------------------------------------------------------
# one-limb steps: guarded (raise _Unvouched) and plain (a window vouched)
# ---------------------------------------------------------------------------

def _add(a, b):
    s = a + b
    _sum_guard(s)
    return _settle(s)


def _sub(a, b):
    # md.generic.sub adds the negation; fl(a + (-b)) is fl(a - b) bit for bit
    s = a - b
    _sum_guard(s)
    return _settle(s)


def _mul(a, b):
    _product_guard(a, b)
    return _settle(a * b)


def _sqr(a):
    _product_guard(a, a)
    return _settle(a * a)


def _plain_add(a, b):
    return _settle(a + b)


def _plain_sub(a, b):
    return _settle(a - b)


def _plain_mul(a, b):
    return _settle(a * b)


def _plain_sqr(a):
    return _settle(a * a)


#: ``(add, sub, mul, sqr)`` as the composite sequences take them
_GUARDED = (_add, _sub, _mul, _sqr)
_PLAIN = (_plain_add, _plain_sub, _plain_mul, _plain_sqr)


# ---------------------------------------------------------------------------
# composite sequences and their windows
# ---------------------------------------------------------------------------

def _quotient(x, y, steps):
    # md.generic.div at m = 1: two long-division quotient limbs, the
    # remainder through mul_double and sub, renormalized to one limb
    add, sub, mul, _ = steps
    q0 = x / y
    r = sub(x, mul(y, q0))
    return add(q0, r / y)


def _newton_sqrt(x, steps):
    # md.generic.sqrt at m = 1: Newton on the inverse square root
    # (two iterations), then one correction of the root itself
    add, sub, mul, sqr = steps
    zero = x == 0.0
    y = 1.0 / _sqrt(_where(zero, 1.0, x))
    for _ in range(2):
        # generic's one = x * 0.0 + 1.0 is 1.0: the window, or else the
        # product guard on (x, y * y), has already required a finite x
        resid = sub(1.0, mul(x, sqr(y)))
        y = add(y, mul(y, resid) * 0.5)
    root = mul(x, y)
    err = sub(x, sqr(root))
    root = add(root, mul(err, y) * 0.5)
    return _where(zero, 0.0, root)


def _div_window(x, y):
    """Whether ``x / y`` lies in :data:`DIV_WINDOW`."""
    low, high = DIV_WINDOW
    big, small = _magnitudes(x)
    if not (big <= high and small >= low):
        return False
    size = _abs(y)
    return _max(size, axis=None, initial=0.0) <= high and _min(
        size, axis=None, initial=math.inf
    ) >= low


def _sqrt_window(x):
    """Whether the radicand ``x`` lies in :data:`SQRT_WINDOW`."""
    low, high = SQRT_WINDOW
    least = _min(x, axis=None, initial=math.inf)
    if not least >= 0.0:  # a negative element or a NaN
        return False
    if least == 0.0:
        least = _smallest_nonzero(_abs(x))
    return least >= low and _max(x, axis=None, initial=0.0) <= high


def _tree_window(data, n):
    """Whether ``n * max|data| * TREE_SLACK < SUM_LIMIT``: every level
    of a pairwise sum over ``n`` terms of ``data`` is vouched for."""
    return n * float(_max(_abs(data), axis=None, initial=0.0)) * TREE_SLACK < SUM_LIMIT


def _div(x, y):
    return _quotient(x, y, _PLAIN if _div_window(x, y) else _GUARDED)


def _square_root(x):
    return _newton_sqrt(x, _PLAIN if _sqrt_window(x) else _GUARDED)


# ---------------------------------------------------------------------------
# launch entry points: the ``(1,) + shape`` result, or None
# ---------------------------------------------------------------------------

def _launch(kernel, m, *stacks):
    """``kernel(*stacks)``, or None unless ``m == 1``, every operand
    stack has one limb and the guards vouch for the whole launch."""
    if m != 1:
        return None
    for stack in stacks:
        if stack.shape[0] != 1:
            return None
    try:
        return kernel(*stacks)
    except _Unvouched:
        return None


def add(x, y, m):
    """``x + y`` as one limb, bitwise equal to ``md.generic.add``."""
    return _launch(_add, m, x, y)


def sub(x, y, m):
    """``x - y`` as one limb, bitwise equal to ``md.generic.sub``."""
    return _launch(_sub, m, x, y)


def mul(x, y, m):
    """``x * y`` as one limb, bitwise equal to ``md.generic.mul``."""
    return _launch(_mul, m, x, y)


def sqr(x, m):
    """``x * x`` as one limb, bitwise equal to ``md.generic.sqr``."""
    return _launch(_sqr, m, x)


def div(x, y, m):
    """``x / y`` as one limb, bitwise equal to ``md.generic.div``."""
    return _launch(_div, m, x, y)


def sqrt(x, m):
    """``sqrt(x)`` as one limb, bitwise equal to ``md.generic.sqrt``."""
    return _launch(_square_root, m, x)


def sum_tree(data, axis, m):
    """The combine of every level of a pairwise sum of ``data`` along
    storage axis ``axis`` as one IEEE addition plus ``+ 0.0``, bitwise
    equal to ``md.generic.add`` on each level; or None unless ``m ==
    1``, ``data`` has one limb and one check over it vouches for every
    level (see the module docstring).  A one-term sum has no level to
    check."""
    if m != 1 or data.shape[0] != 1:
        return None
    n = data.shape[axis]
    if n > 1 and not _tree_window(data, n):
        return None
    return _plain_add
