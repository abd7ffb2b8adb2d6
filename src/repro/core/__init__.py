"""Core algorithms of the paper.

* :func:`repro.core.blocked_qr.blocked_qr` — Algorithm 2, the blocked
  accelerated Householder QR with the WY representation.
* :func:`repro.core.back_substitution.tiled_back_substitution` —
  Algorithm 1, the tiled accelerated back substitution.
* :func:`repro.core.least_squares.lstsq` — the combined least squares
  solver of Table 11.
* :mod:`repro.core.baseline` — unblocked QR, classical back
  substitution and the double precision NumPy reference.

The three drivers are each a batch of one over :mod:`repro.batch`, which
holds the library's one implementation of Algorithms 1 and 2: they run
the batched driver on a leading batch axis of 1 and return slice 0.
Unlike the batched drivers, the triangular solves here raise
``ZeroDivisionError`` on a zero diagonal entry.  The unbatched code the
batched drivers were built from is the test oracle
``tests/oracles/dense.py``.
"""

from . import baseline, normal_equations, stages
from .back_substitution import (
    BackSubstitutionResult,
    solve_upper_triangular,
    tiled_back_substitution,
)
from .blocked_qr import QRResult, blocked_qr
from .least_squares import LeastSquaresResult, lstsq, solve
from .normal_equations import cholesky_factor, solve_normal_equations
from .tile_inverse import solve_upper_triangular_dense

__all__ = [
    "blocked_qr",
    "QRResult",
    "tiled_back_substitution",
    "BackSubstitutionResult",
    "solve_upper_triangular",
    "lstsq",
    "solve",
    "LeastSquaresResult",
    "solve_upper_triangular_dense",
    "cholesky_factor",
    "solve_normal_equations",
    "baseline",
    "normal_equations",
    "stages",
    "batched_blocked_qr",
    "batched_back_substitution",
    "batched_least_squares",
]

#: Batched counterparts of the core drivers.  They live in
#: :mod:`repro.batch` (which imports the submodules here), so they are
#: re-exported lazily to keep the packages import-cycle free.
_BATCHED_EXPORTS = {
    "batched_blocked_qr": ("repro.batch.qr", "batched_blocked_qr"),
    "batched_back_substitution": (
        "repro.batch.back_substitution",
        "batched_back_substitution",
    ),
    "batched_least_squares": (
        "repro.batch.least_squares",
        "batched_least_squares",
    ),
}


def __getattr__(name):
    if name in _BATCHED_EXPORTS:
        import importlib

        module_name, attr = _BATCHED_EXPORTS[name]
        value = getattr(importlib.import_module(module_name), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
