"""Direct triangular solves and the nonsingularity test of Algorithm 1.

Stage 1 of the tiled back substitution replaces every diagonal tile by
its inverse; that inversion is implemented once, over a batch of tiles,
by :func:`repro.batch.back_substitution.batched_invert_upper_triangular`
(its unbatched form lives on as a test oracle).  What stays here is the
row-oriented direct solve of the classical baseline and the test that
decides when an unbatched triangular solve raises: a zero leading limb
on the diagonal.
"""

from __future__ import annotations

import numpy as np

from ..vec import linalg
from ..vec.complexmd import MDComplexArray
from ..vec.mdarray import MDArray

__all__ = ["solve_upper_triangular_dense", "check_nonsingular"]


def solve_upper_triangular_dense(tile, rhs):
    """Solve ``U x = b`` for one tile directly (row-oriented back
    substitution); used by the classical baseline and by tests."""
    n = _check_square(tile)
    if rhs.shape[0] != n:
        raise ValueError("right-hand side length does not match the tile")
    complex_data = isinstance(tile, MDComplexArray)
    x = (
        MDComplexArray.zeros((n,), tile.limbs)
        if complex_data
        else MDArray.zeros((n,), tile.limbs)
    )
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        if i < n - 1:
            acc = acc - linalg.dot(tile[i, i + 1 :], x[i + 1 :])
        x[i] = acc / tile[i, i]
    return x


def check_nonsingular(upper) -> None:
    """Raise ``ZeroDivisionError`` when a diagonal entry of the square
    triangular matrix ``upper`` has a zero leading limb.

    The batched drivers let such a system poison its own batch slice
    with non-finite entries; the unbatched entry points raise instead.
    """
    head = upper.to_complex() if isinstance(upper, MDComplexArray) else upper.to_double()
    if np.any(np.diag(head) == 0.0):
        raise ZeroDivisionError("singular triangular factor: zero on the diagonal")


def _check_square(tile) -> int:
    if tile.ndim != 2 or tile.shape[0] != tile.shape[1]:
        raise ValueError("expected a square tile")
    check_nonsingular(tile)
    return tile.shape[0]
