"""repro — Least squares on (simulated) GPUs in multiple double precision.

Reproduction of J. Verschelde, *Least Squares on GPUs in Multiple Double
Precision*, IPDPS Workshops 2022 (arXiv:2110.08375).

Top-level convenience re-exports cover the most common entry points;
see the subpackages for the full API:

* :mod:`repro.md` — multiple double arithmetic (CAMPARY/QDlib substrate)
* :mod:`repro.vec` — vectorized limb-major multiple double arrays
* :mod:`repro.gpu` — simulated GPU devices, kernels, roofline model
* :mod:`repro.core` — blocked Householder QR, tiled back substitution,
  least squares solver
* :mod:`repro.perf` — analytic cost model, experiment harness for every
  table and figure of the paper
* :mod:`repro.series` — truncated power series arithmetic, linearized
  block Toeplitz series solves, Newton's method on series, Padé
  approximants and the adaptive-precision path tracker (the paper's
  motivating application); lazily exported here as
  :class:`~repro.series.truncated.TruncatedSeries`,
  :func:`~repro.series.pade.pade`,
  :func:`~repro.series.newton.newton_series` and
  :func:`~repro.series.tracker.track_path`
* :mod:`repro.batch` — batched multi-system execution (operands with a
  leading batch axis, one launch per ``b`` problems): batched QR /
  back substitution / least squares / Padé and the path fleet
  tracker; lazily exported here as
  :func:`~repro.batch.qr.batched_blocked_qr`,
  :func:`~repro.batch.least_squares.batched_least_squares`,
  :func:`~repro.batch.pade.batched_pade` and
  :func:`~repro.batch.fleet.track_paths`
* :mod:`repro.obs` — structured run telemetry: off-by-default span/event
  recording across the whole tracking stack, wall-clock profiling hooks
  aligned with the analytic cost model, JSONL export and run reports;
  lazily exported here as :class:`~repro.obs.events.Recorder`,
  :func:`~repro.obs.events.recording` and
  :func:`~repro.obs.events.get_recorder`
* :mod:`repro.poly` — polynomial systems and homotopies as first-class
  tracker inputs: monomial supports with shared-monomial vectorized
  evaluation/differentiation, realified total-degree homotopies with
  the random-gamma trick, and the benchmark families; lazily exported
  here as :class:`~repro.poly.system.PolynomialSystem`,
  :class:`~repro.poly.homotopy.Homotopy`,
  :func:`~repro.poly.families.katsura`,
  :func:`~repro.poly.families.cyclic` and
  :func:`~repro.poly.families.noon`
"""

from __future__ import annotations

__version__ = "1.0.0"

from .md import (  # noqa: F401
    ComplexMultiDouble,
    MultiDouble,
    Precision,
    get_precision,
)

__all__ = [
    "__version__",
    "MultiDouble",
    "ComplexMultiDouble",
    "Precision",
    "get_precision",
    # lazily exported (the __getattr__ table below; kept in sync — the
    # export-consistency rule of repro.analysis cross-checks the two)
    "MDArray",
    "MDComplexArray",
    "DeviceSpec",
    "get_device",
    "blocked_qr",
    "tiled_back_substitution",
    "lstsq",
    "solve_upper_triangular",
    "TruncatedSeries",
    "VectorSeries",
    "ComplexTruncatedSeries",
    "ComplexVectorSeries",
    "pade",
    "newton_series",
    "solve_matrix_series",
    "track_path",
    "track_paths",
    "PathFleetResult",
    "batched_blocked_qr",
    "batched_back_substitution",
    "batched_least_squares",
    "batched_pade",
    "PolynomialSystem",
    "Homotopy",
    "katsura",
    "cyclic",
    "noon",
    "ExecutionBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "Recorder",
    "recording",
    "get_recorder",
]


def __getattr__(name):
    """Lazily expose the heavier subpackage entry points.

    Keeps ``import repro`` lightweight while still allowing
    ``repro.lstsq`` style access once the subpackages are needed.
    """
    lazy = {
        "MDArray": ("repro.vec", "MDArray"),
        "MDComplexArray": ("repro.vec", "MDComplexArray"),
        "DeviceSpec": ("repro.gpu", "DeviceSpec"),
        "get_device": ("repro.gpu", "get_device"),
        "blocked_qr": ("repro.core", "blocked_qr"),
        "tiled_back_substitution": ("repro.core", "tiled_back_substitution"),
        "lstsq": ("repro.core", "lstsq"),
        "solve_upper_triangular": ("repro.core", "solve_upper_triangular"),
        "TruncatedSeries": ("repro.series", "TruncatedSeries"),
        "VectorSeries": ("repro.series", "VectorSeries"),
        "ComplexTruncatedSeries": ("repro.series", "ComplexTruncatedSeries"),
        "ComplexVectorSeries": ("repro.series", "ComplexVectorSeries"),
        "pade": ("repro.series", "pade"),
        "newton_series": ("repro.series", "newton_series"),
        "solve_matrix_series": ("repro.series", "solve_matrix_series"),
        "track_path": ("repro.series", "track_path"),
        "track_paths": ("repro.batch", "track_paths"),
        "PathFleetResult": ("repro.batch", "PathFleetResult"),
        "batched_blocked_qr": ("repro.batch", "batched_blocked_qr"),
        "batched_back_substitution": ("repro.batch", "batched_back_substitution"),
        "batched_least_squares": ("repro.batch", "batched_least_squares"),
        "batched_pade": ("repro.batch", "batched_pade"),
        "PolynomialSystem": ("repro.poly", "PolynomialSystem"),
        "Homotopy": ("repro.poly", "Homotopy"),
        "katsura": ("repro.poly", "katsura"),
        "cyclic": ("repro.poly", "cyclic"),
        "noon": ("repro.poly", "noon"),
        "ExecutionBackend": ("repro.exec", "ExecutionBackend"),
        "get_backend": ("repro.exec", "get_backend"),
        "set_backend": ("repro.exec", "set_backend"),
        "use_backend": ("repro.exec", "use_backend"),
        "Recorder": ("repro.obs", "Recorder"),
        "recording": ("repro.obs", "recording"),
        "get_recorder": ("repro.obs", "get_recorder"),
    }
    if name in lazy:
        import importlib

        module_name, attr = lazy[name]
        module = importlib.import_module(module_name)
        value = getattr(module, attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
