"""Batched multi-system execution: many problems per kernel launch.

PRs 1–2 vectorized a *single* pipeline over the limbs of the multiple
double representation; this subpackage adds the next axis of
parallelism — over **systems**.  Operands carry a leading batch
dimension ``(b, …)`` so that one limb-level NumPy launch (the stand-in
for one CUDA launch) advances ``b`` independent problems: many
matrices, many right-hand sides, many homotopy paths.  The kernel
launch count of every driver is **flat** in ``b`` while the work per
launch scales linearly — exactly how polynomial-homotopy workloads
(thousands of paths per system) keep wide GPUs busy.

* :mod:`repro.vec.batched` — the batched dense kernels
  (``batched_matmul``, ``batched_matvec``, ``batched_apply_qt``,
  batched Householder helpers), bit-identical per batch slice to a
  loop over :mod:`repro.vec.linalg`;
* :mod:`repro.batch.qr` — :func:`~repro.batch.qr.batched_blocked_qr`,
  Algorithm 2 over a ``(b, rows, cols)`` batch;
* :mod:`repro.batch.back_substitution` —
  :func:`~repro.batch.back_substitution.batched_back_substitution`,
  Algorithm 1 over a batch (singular systems poison only their own
  slice instead of raising), the composition of its two stages
  :func:`~repro.batch.back_substitution.batched_invert_tiles` and
  :func:`~repro.batch.back_substitution.batched_substitution`, which
  solvers that meet one triangular factor many times call apart;
* :mod:`repro.batch.least_squares` —
  :func:`~repro.batch.least_squares.batched_least_squares`, the
  combined Table 11 solver over a batch;
* :mod:`repro.batch.pade` — :func:`~repro.batch.pade.batched_pade`,
  all Hankel systems of a fleet solved in one batched launch sequence,
  returned as one :class:`~repro.series.pade.PadeBatch` over the
  coefficient planes;
* :mod:`repro.batch.fleet` — :func:`~repro.batch.fleet.track_paths`,
  the path *fleet*: batched Newton/Padé steps and batched step control
  with per-path adaptive d → dd → qd → od escalation, handled by
  re-packing the active paths after every sub-batch (the paths at the
  lowest occupied precision rung advance next, finished paths leave
  the launches immediately).

The batch-aware analytic accounting lives in
:func:`repro.perf.costmodel.batched_qr_trace` /
``batched_back_substitution_trace`` (with its two stages
``batched_tile_inversion_trace`` and ``batched_substitution_trace``) /
``batched_lstsq_trace`` /
``path_fleet_trace`` (the dense drivers here record the first three
for the shapes they run) and :func:`repro.md.opcounts.series_counts` (``batch`` parameter);
``benchmarks/bench_batched_qr.py`` measures the throughput payoff and
asserts its floor.
"""

from .back_substitution import (
    BatchedBackSubstitutionResult,
    BatchedTileInverses,
    batched_back_substitution,
    batched_invert_tiles,
    batched_invert_upper_triangular,
    batched_substitution,
)
from .fleet import PathFleetResult, track_paths
from .least_squares import (
    BatchedLeastSquaresResult,
    batched_least_squares,
    batched_solve,
)
from .pade import batched_pade
from .qr import BatchedQRResult, batched_blocked_qr

__all__ = [
    "BatchedQRResult",
    "batched_blocked_qr",
    "BatchedBackSubstitutionResult",
    "batched_back_substitution",
    "BatchedTileInverses",
    "batched_invert_tiles",
    "batched_substitution",
    "batched_invert_upper_triangular",
    "BatchedLeastSquaresResult",
    "batched_least_squares",
    "batched_solve",
    "batched_pade",
    "PathFleetResult",
    "track_paths",
]
