"""Performance modelling and experiment harness.

* :mod:`repro.perf.costmodel` — analytic kernel traces at paper-scale
  dimensions (exactly matching the numeric drivers' traces).
* :mod:`repro.perf.model` — the kernel/wall time model for the
  simulated devices.
* :mod:`repro.perf.attribution` — per-kernel occupancy/roofline
  rollups of launch traces (including the shared-monomial
  ``power_table``/``power_products``/``term_reduce`` kernels).
* :mod:`repro.perf.experiments` — one driver per table and figure of
  the paper's evaluation section.
* :mod:`repro.perf.report` — plain-text rendering of the results.
* :mod:`repro.perf.paper_data` — the paper's reference numbers.
"""

from . import attribution, costmodel, experiments, model, paper_data, report
from .attribution import (
    MONOMIAL_KERNELS,
    KernelAttribution,
    launch_attribution,
    monomial_kernel_attribution,
)
from .costmodel import (
    back_substitution_trace,
    lstsq_trace,
    matrix_series_trace,
    newton_series_trace,
    pade_trace,
    polynomial_evaluation_trace,
    problem_bytes,
    qr_trace,
)
from .experiments import ALL_EXPERIMENTS, ExperimentResult
from .model import DEFAULT_ILP, PerformanceModel, TimedRun

__all__ = [
    "attribution",
    "costmodel",
    "experiments",
    "model",
    "paper_data",
    "report",
    "qr_trace",
    "back_substitution_trace",
    "lstsq_trace",
    "problem_bytes",
    "matrix_series_trace",
    "newton_series_trace",
    "pade_trace",
    "polynomial_evaluation_trace",
    "KernelAttribution",
    "MONOMIAL_KERNELS",
    "launch_attribution",
    "monomial_kernel_attribution",
    "PerformanceModel",
    "TimedRun",
    "DEFAULT_ILP",
    "ALL_EXPERIMENTS",
    "ExperimentResult",
]
