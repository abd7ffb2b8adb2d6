"""Narrow launches: :mod:`repro.md.generic` replayed on Python floats.

A launch whose output plane holds a few elements costs a fused kernel
its fixed per-call overhead, not arithmetic: the Householder QR takes
one square root (the column norm) and one division (the beta) per
column on a one-element plane, and the tile inverse divides planes of
one to three elements.  Below a per-``(op, m)`` element count such a
launch runs the oracle itself instead: each operand's limb planes come
out through ``tolist()``, every element's limb tuples go through the
limb-tuple arithmetic of :mod:`repro.md.generic` on Python floats, and
the result tuples go back through ``np.array``.  That is the generic
backend's float operation sequence element by element, so a replayed
result equals :class:`repro.exec.generic.GenericBackend` in every bit.

Python floats and NumPy float64 round alike, but they part ways on
special values, so a launch is declined (it returns ``None`` and the
backend runs its fused kernel) when

* any limb of any operand is inf or NaN, as :mod:`repro.exec.onelimb`
  declines them;
* a ``div`` divisor has a zero leading limb (``+0.0`` or ``-0.0``):
  Python raises ``ZeroDivisionError`` where NumPy returns inf;
* a ``sqrt`` radicand has a negative leading limb: ``math.sqrt`` raises
  ``ValueError`` where NumPy returns NaN;
* its output plane is wider than the table below allows, or its ``m``
  is not listed.

A replayed result that holds a NaN is discarded as well, and the
fused kernel runs: finite operands can overflow to ``inf - inf``, and
of two NaN operands CPython does not always keep the same one.  Its
specialized float ``BINARY_OP`` (3.11) keeps the other operand than the
generic path does: ``a + b`` on (+NaN, -NaN) gave -NaN for its first
seven calls and +NaN from the eighth on, so a replayed NaN's sign
could change from one call to the next.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from ..md import generic as mdgeneric

__all__ = ["launch"]

_isfinite = math.isfinite
_isnan = math.isnan
_flatten = chain.from_iterable

# The widest output plane, in elements, that each (op, m) replays: the
# widest plane on which the replay still ran clearly faster than the
# fused kernel.  Measured on a 2-vCPU Xeon VM (Python 3.11, NumPy 2.4),
# normalized expansions, best of 9 interleaved repeats of a batch of
# launches.  One element, ms, fused kernel vs replay:
#
#   op     dd             qd            od
#   add    0.020 vs 0.012 0.16 vs 0.04  0.31 vs 0.09
#   mul    0.033 vs 0.011 0.33 vs 0.09  0.72 vs 0.41
#   sqr    0.16 vs 0.03   0.29 vs 0.09  0.47 vs 0.21
#   div    0.24 vs 0.04   1.3 vs 0.21   3.8 vs 1.0
#   sqrt   0.55 vs 0.07   5.3 vs 1.2   11.8 vs 5.5
#
# The fused kernel's time hardly grows with the plane at these widths,
# the replay's grows by about its one-element time per element, so the
# two met near 4 elements (dd add/sub), 10 (dd mul), 5-6 (dd sqr, dd
# div, qd add/sub), 8 (dd sqrt), 3-4 (qd mul/sqr/sqrt, od add/sub/div)
# and 2 (od mul/sqr/sqrt); each entry stays below its crossing.
_WIDEST = {
    ("add", 2): 3, ("add", 4): 4, ("add", 8): 3,
    ("sub", 2): 3, ("sub", 4): 4, ("sub", 8): 3,
    ("mul", 2): 8, ("mul", 4): 3, ("mul", 8): 1,
    ("sqr", 2): 4, ("sqr", 4): 3, ("sqr", 8): 1,
    ("div", 2): 5, ("div", 4): 4, ("div", 8): 3,
    ("sqrt", 2): 6, ("sqrt", 4): 3, ("sqrt", 8): 1,
}


def _limb_rows(stack, shape, n):
    """An operand's limb planes broadcast to ``shape``, as ``k`` lists
    of ``n`` Python floats."""
    k = stack.shape[0]
    if stack.shape[1:] != shape:
        # element axes align from the right, after the limb axis
        lead = (1,) * (len(shape) + 1 - stack.ndim)
        stack = np.broadcast_to(stack.reshape((k, *lead, *stack.shape[1:])), (k, *shape))
    return stack.reshape(k, n).tolist()


def _replay(kernel, m, operands):
    """``kernel(*limb tuples, m)`` of :mod:`repro.md.generic` for each
    element, given each operand's limb rows; one result tuple each."""
    elements = zip(*(zip(*rows) for rows in operands))
    return [kernel(*limbs, m) for limbs in elements]


def launch(op, m, *stacks):
    """The ``(m,) + broadcast shape`` result of the :mod:`repro.md.generic`
    operation ``op`` (``add``, ``sub``, ``mul``, ``div``, ``sqr`` or
    ``sqrt``) on the limb-major ``stacks``, replayed on Python floats,
    or None when the launch is declined."""
    widest = _WIDEST.get((op, m), 0)
    for stack in stacks:  # the broadcast plane is at least each operand's
        if stack.size > widest * stack.shape[0]:
            return None
    shape = stacks[0].shape[1:]
    if len(stacks) == 2 and stacks[1].shape[1:] != shape:
        shape = np.broadcast_shapes(shape, stacks[1].shape[1:])
    n = math.prod(shape)
    if not 0 < n <= widest:
        return None
    operands = [_limb_rows(stack, shape, n) for stack in stacks]
    if not all(map(_isfinite, _flatten(_flatten(operands)))):
        return None
    head = operands[-1][0]  # the divisor's or the radicand's leading limbs
    if (op == "div" and 0.0 in head) or (op == "sqrt" and min(head) < 0.0):
        return None
    limbs = _replay(getattr(mdgeneric, op), m, operands)
    if any(map(_isnan, _flatten(limbs))):
        return None
    return np.array(list(zip(*limbs)), dtype=np.float64).reshape((m, *shape))

