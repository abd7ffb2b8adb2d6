"""Power series, Padé approximants and path tracking workloads.

This subpackage assembles the paper's motivating application (Section
1.1) on top of the multiple double least squares stack.  Series
coefficients live in the same limb-major structure-of-arrays layout as
the paper's matrices (:mod:`repro.vec`), so series arithmetic runs as
a handful of vectorized limb operations instead of per-coefficient
Python loops:

* :mod:`repro.series.truncated` — truncated power series on one
  limb-major ``(m, K+1)`` coefficient array (Cauchy products through
  :func:`repro.vec.linalg.cauchy_product`, Newton-iteration
  reciprocal / sqrt / exp / log, calculus, evaluation, convergence
  diagnostics);
* :mod:`repro.series.reference` — the scalar loop-per-coefficient
  :class:`~repro.series.reference.ScalarSeries` reference that the
  vectorized arithmetic is cross-checked against **bit for bit** (the
  role :mod:`repro.md.number` plays for :mod:`repro.vec`);
* :mod:`repro.series.vector` — batched systems of series
  (:class:`~repro.series.vector.VectorSeries`, one ``(m, n, K+1)``
  array for ``n`` unknowns);
* :mod:`repro.series.matrix_series` — linearized block Toeplitz series
  solves on batched right-hand sides: one :mod:`repro.core` solve per
  series order against the head matrix, with the ``Q^H B`` products
  batched into a single launch for constant-head systems;
* :mod:`repro.series.newton` — Newton's method on power series for
  user-supplied polynomial systems (callable residual + Jacobian),
  updating every component per order through one coefficient-column
  gather/store;
* :mod:`repro.series.pade` — ``[L/M]`` Padé approximants via the least
  squares solver on the ill-conditioned Hankel systems, gathered
  directly from the coefficient arrays;
* :mod:`repro.series.tracker` — ``track_path``, the adaptive-precision
  path tracker (d → dd → qd → od escalation, predicted GPU cost through
  :mod:`repro.perf`) as a one-path fleet of :mod:`repro.batch.fleet`.

The per-operation costs and launch counts of the series arithmetic are
catalogued in :func:`repro.md.opcounts.series_counts` and
:func:`repro.md.opcounts.series_launches`; the kernel-level cost of the
solver-backed stages is produced by the analytic hooks in
:mod:`repro.perf.costmodel` (``matrix_series_trace``,
``newton_series_trace``, ``pade_trace``, ``path_step_trace``).
"""

from .complexvec import ComplexTruncatedSeries, ComplexVectorSeries
from .matrix_series import (
    MatrixSeriesSolveResult,
    series_from_vectors,
    solve_matrix_series,
)
from .newton import NewtonSeriesResult, newton_series, newton_series_quadratic
from .pade import PadeApproximant, pade
from .reference import ScalarSeries
from .tracker import PathResult, PathStep, track_path
from .truncated import TruncatedSeries
from .vector import VectorSeries

__all__ = [
    "TruncatedSeries",
    "ScalarSeries",
    "VectorSeries",
    "ComplexTruncatedSeries",
    "ComplexVectorSeries",
    "MatrixSeriesSolveResult",
    "solve_matrix_series",
    "series_from_vectors",
    "NewtonSeriesResult",
    "newton_series",
    "newton_series_quadratic",
    "PadeApproximant",
    "pade",
    "PathStep",
    "PathResult",
    "track_path",
    "track_paths",
    "PathFleetResult",
]

#: The fleet tracker batches whole systems of paths through
#: :mod:`repro.batch` (which builds on this package), so it is
#: re-exported lazily to keep the import graph acyclic.
_FLEET_EXPORTS = {
    "track_paths": ("repro.batch.fleet", "track_paths"),
    "PathFleetResult": ("repro.batch.fleet", "PathFleetResult"),
}


def __getattr__(name):
    if name in _FLEET_EXPORTS:
        import importlib

        module_name, attr = _FLEET_EXPORTS[name]
        value = getattr(importlib.import_module(module_name), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
