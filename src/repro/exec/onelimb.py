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
"""

from __future__ import annotations

import math

import numpy as np

from ..md.eft import SPLIT_THRESHOLD

__all__ = [
    "PRODUCT_LIMIT",
    "PRODUCT_TINY",
    "SUM_LIMIT",
    "add",
    "div",
    "mul",
    "sqr",
    "sqrt",
    "sub",
]

#: A sum is vouched for when its magnitude stays below this bound.
SUM_LIMIT = 2.0**1022
#: Bound on ``max|a| * max|b|`` over the operands of a vouched product.
PRODUCT_LIMIT = 2.0**1023
#: Bound under ``min|a| * min|b|`` over the nonzero operands of a
#: vouched product.
PRODUCT_TINY = 2.0**-969

# module-level ufunc handles, as in repro.exec.fused
_abs = np.abs
_max = np.maximum.reduce
_min = np.minimum.reduce
_sqrt = np.sqrt
_where = np.where


class _Unvouched(Exception):
    """A guard failed: the launch goes down the expansion path."""


def _settle(v):
    """``renormalize([v, err], 1)`` of an exact pair: ``v``, with a
    zero of either sign as ``+0.0`` (``v`` is a fresh temporary)."""
    v += 0.0
    return v


def _sum_guard(s):
    if not _max(_abs(s), axis=None, initial=0.0) < SUM_LIMIT:
        raise _Unvouched


def _magnitudes(a):
    """The largest and the smallest nonzero ``|a|`` of a launch operand
    (``nan`` and ``inf`` propagate to the largest)."""
    size = _abs(a)
    big = float(_max(size, axis=None, initial=0.0))
    small = float(_min(size, axis=None, initial=math.inf))
    if small == 0.0:
        small = float(_min(size, axis=None, initial=math.inf, where=size != 0.0))
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
# guarded one-limb operations (raise _Unvouched)
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


def _div(x, y):
    # md.generic.div at m = 1: two long-division quotient limbs, the
    # remainder through mul_double and sub, renormalized to one limb
    q0 = x / y
    r = _sub(x, _mul(y, q0))
    return _add(q0, r / y)


def _square_root(x):
    # md.generic.sqrt at m = 1: Newton on the inverse square root
    # (two iterations), then one correction of the root itself
    zero = x == 0.0
    y = 1.0 / _sqrt(_where(zero, 1.0, x))
    for _ in range(2):
        # generic's one = x * 0.0 + 1.0 is 1.0: the product guard on
        # (x, y * y) has already required a finite x
        resid = _sub(1.0, _mul(x, _sqr(y)))
        y = _add(y, _mul(y, resid) * 0.5)
    root = _mul(x, y)
    err = _sub(x, _sqr(root))
    root = _add(root, _mul(err, y) * 0.5)
    return _where(zero, 0.0, root)


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
