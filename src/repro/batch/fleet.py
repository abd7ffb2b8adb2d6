"""Path fleets: many homotopy paths advanced in scheduled batched steps.

This is how the paper's workload is consumed in practice: a polynomial
homotopy has thousands of solution paths, every one of which needs the
same small dense kernels (Jacobian QR, per-order triangular solves,
Hankel solves for the Padé approximants).  :func:`track_paths` is the
library's one adaptive-precision step loop, run over a whole *fleet* of
start points (:func:`repro.series.tracker.track_path` is a fleet of
one):

* between steps a :class:`~repro.batch.scheduler.FleetScheduler`
  **re-packs the active paths into per-precision sub-batches** (paths
  currently at d, dd, qd, od each form one batch); under the default
  ``continuous`` policy the re-pack happens after *every* sub-batch —
  a path that finishes retires from the launch immediately and an
  escalated path joins its new rung mates without waiting for a round
  barrier — while ``policy="lockstep"`` reproduces the historical
  round-barrier behavior exactly;
* each sub-batch advances through one batched step — one
  :func:`~repro.batch.qr.batched_blocked_qr` of all Jacobian heads, one
  batched triangular solve per series order, and **one**
  :func:`~repro.batch.pade.batched_pade` construction covering all
  ``batch × dimension`` solution components — so the kernel launch
  count per round is flat in the fleet width;
* under ``continuous`` packing, systems that expose ``residual_fleet``
  (:class:`~repro.poly.system.PolynomialSystem`,
  :class:`~repro.poly.homotopy.Homotopy`) compute each order's
  residual columns for the whole sub-batch with **one fleet-wide
  batched series evaluation** over a shared power table, instead of a
  Python loop of per-path series calls;
* step control, precision escalation (d → dd → qd → od) and Newton
  correction are decided *per path*, with the step-control helpers of
  :mod:`repro.series.tracker`.

Because every batched kernel is bit-identical to a loop over its
unbatched counterpart, each path of a fleet takes **exactly** the steps
it would take if tracked alone, unbatched (the tests pin this against
an unbatched reference tracker), and a path whose Jacobian goes
singular poisons only its own batch slice: it is detected (non-finite
expansion), reported as ``failed``, and removed from the fleet without
perturbing a single bit of its batch mates.

Fleets of **complex** start points (the native backend of
``Homotopy(..., backend="complex")``) run the identical lock-step
machinery on the separated-plane complex kernels: the ``n`` complex
variables stay ``n`` (no realification to ``2n``), the batched QR /
triangular solves / Padé constructions dispatch on
:class:`~repro.vec.complexmd.MDComplexArray` operands, and every complex
fleet path is bit-identical to the unbatched complex reference.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from ..core import stages
from ..core.least_squares import STAGE_APPLY_QT, resolve_tile_sizes
from ..gpu.kernel import KernelTrace
from ..gpu.memory import md_bytes
from ..md.constants import get_precision
from ..md.number import ComplexMultiDouble, MultiDouble
from ..obs.events import get_recorder
from ..obs.live import attach_monitor
from ..obs.log import get_logger
from ..obs.profile import attach_trace
from ..series.complexvec import (
    ComplexTruncatedSeries,
    ComplexVectorSeries,
    coerce_scalar,
    evaluation_magnitudes,
    leading_value,
)
from ..series.newton import (
    _batched_residual_columns,
    _coerce_jacobian,
    _coerce_residual,
    _coerce_start,
    _residual_column,
    resolve_system_arguments,
)
from ..series.tracker import (
    _BUDGET_SPLIT,
    _pole_step_cap,
    _resolve_pole_safety,
    PathResult,
    PathStep,
)
from ..series.truncated import TruncatedSeries
from ..series.vector import VectorSeries
from ..vec import batched as vb
from ..vec.complexmd import MDComplexArray, finite_mask
from ..vec.mdarray import MDArray
from .back_substitution import batched_back_substitution
from .least_squares import batched_least_squares
from .pade import batched_pade
from .qr import batched_blocked_qr
from .scheduler import POLICIES, FleetScheduler
from .tracing import add_batched_launch

__all__ = ["PathFleetResult", "track_paths"]

_log = get_logger(__name__)


@dataclass
class PathFleetResult:
    """A tracked fleet: one :class:`~repro.series.tracker.PathResult`
    per start point plus fleet-level accounting."""

    #: per-path results, in start-point order
    paths: list = field(default_factory=list)
    #: scheduler rounds executed — under ``lockstep`` each round
    #: advances every active precision sub-batch once behind a barrier;
    #: under ``continuous`` every sub-batch is its own round
    rounds: int = 0
    #: one ``(round, precision name, path indices)`` record per
    #: sub-batch advanced — the regrouping history
    sub_batches: list = field(default_factory=list)
    #: numeric kernel trace of every sub-batch round, aligned with
    #: ``sub_batches`` (QR + per-order solves + batched Padé solves)
    round_traces: list = field(default_factory=list)
    #: predicted kernel milliseconds of the whole fleet under batched
    #: execution (one lock-step launch sequence per sub-batch round)
    fleet_model_ms: float = 0.0
    device: str = "V100"
    #: the packing policy the scheduler ran (see
    #: :data:`repro.batch.scheduler.POLICIES`)
    policy: str = "continuous"

    @property
    def batch(self) -> int:
        return len(self.paths)

    @property
    def reached_count(self) -> int:
        return sum(1 for path in self.paths if path.reached)

    @property
    def failed_count(self) -> int:
        return sum(1 for path in self.paths if path.failed)

    @property
    def escalations(self) -> int:
        return sum(path.escalations for path in self.paths)

    @property
    def total_model_ms(self) -> float:
        """Predicted kernel milliseconds if every path ran alone (the
        sum of the per-path accounting; compare ``fleet_model_ms``)."""
        return sum(path.total_model_ms for path in self.paths)

    @property
    def batching_speedup(self) -> float:
        """Predicted kernel-time ratio of one-path-at-a-time execution
        over scheduled batched execution.

        Scheduler-aware: ``fleet_model_ms`` prices one batched launch
        sequence per sub-batch *actually advanced*, at the width the
        packing policy chose for it — so a policy that keeps launches
        fuller (fewer, wider sub-batches for the same per-path steps)
        shows a larger ratio.
        """
        if self.fleet_model_ms <= 0.0:
            return float("inf") if self.total_model_ms > 0.0 else 1.0
        return self.total_model_ms / self.fleet_model_ms

    @property
    def occupancy(self) -> float:
        """Mean fraction of the fleet width each sub-batch filled.

        1.0 means every launch carried the whole fleet; retirement,
        failures and precision splits pull it below.  A fleet that
        never advanced (already at ``t_end``) reports 1.0.
        """
        if not self.sub_batches or not self.paths:
            return 1.0
        packed = sum(len(indices) for _, _, indices in self.sub_batches)
        return packed / (len(self.sub_batches) * self.batch)

    def summary(self) -> str:
        """One human-readable line describing how the fleet run went."""
        precisions = []
        for _, name, _ in self.sub_batches:
            if name not in precisions:
                precisions.append(name)
        ladder = " -> ".join(precisions) if precisions else "-"
        failed = f", {self.failed_count} failed" if self.failed_count else ""
        return (
            f"{self.reached_count}/{self.batch} paths reached t = 1{failed}: "
            f"{self.rounds} rounds / {len(self.sub_batches)} sub-batches "
            f"at {self.occupancy:.0%} occupancy under {self.policy} packing "
            f"(precision {ladder}, {self.escalations} escalations, "
            f"{self.batching_speedup:.2f}x from batching on {self.device})"
        )


@dataclass
class _PathState:
    """Mutable tracker state of one fleet member."""

    index: int
    heads: list
    t_current: float
    trial_step: object  # float or None, as in track_path
    rung: int = 0
    active: bool = True
    #: escalations and model milliseconds of the step being attempted
    step_escalations: int = 0
    step_model_ms: float = 0.0
    precisions_used: list = field(default_factory=list)


class _SolutionStore:
    """The fleet-wide series expansion, ``(limbs, batch, n, K+1)`` raw
    limb planes (one plane pair when complex) — the kind-dispatch shim
    that keeps :func:`_advance_sub_batch` agnostic of real vs complex
    tracking."""

    def __init__(self, limbs, batch, n, order, complex_data):
        shape = (limbs, batch, n, order + 1)
        self.complex = complex_data
        self.re = np.zeros(shape)
        self.im = np.zeros(shape) if complex_data else None

    def set_heads(self, p, heads, limbs):
        if self.complex:
            array = MDComplexArray.from_multidoubles(heads, limbs)
            self.re[:, p, :, 0] = array.real.data
            self.im[:, p, :, 0] = array.imag.data
        else:
            self.re[:, p, :, 0] = MDArray.from_multidoubles(heads, limbs).data

    def set_column(self, k, x):
        """Write the order-``k`` batched solve result ``x`` of shape
        ``(b, n)``."""
        if self.complex:
            self.re[:, :, :, k] = x.real.data
            self.im[:, :, :, k] = x.imag.data
        else:
            self.re[:, :, :, k] = x.data

    def partial(self, p, i, k):
        """Component ``i`` of path ``p`` through order ``k`` as a series."""
        if self.complex:
            return ComplexTruncatedSeries.from_mdarray(
                MDComplexArray(
                    MDArray(self.re[:, p, i, : k + 1]),
                    MDArray(self.im[:, p, i, : k + 1]),
                )
            )
        return TruncatedSeries.from_mdarray(MDArray(self.re[:, p, i, : k + 1]))

    def partial_planes(self, k):
        """Every path's expansion through order ``k`` as one batched
        raw coefficient array, element shape ``(batch, n, k + 1)`` —
        the operand of the fleet-wide ``residual_fleet`` evaluation.
        Views, not copies: column ``k`` is still zero when order ``k``
        is being solved, exactly like the per-path ``partial`` slices.
        """
        if self.complex:
            return MDComplexArray(
                MDArray(self.re[:, :, :, : k + 1]),
                MDArray(self.im[:, :, :, : k + 1]),
            )
        return MDArray(self.re[:, :, :, : k + 1])

    def flat_series(self, batch, n, order):
        """All ``batch * n`` component series as one coefficient stack."""
        limbs = self.re.shape[0]
        if self.complex:
            return MDComplexArray(
                MDArray(self.re.reshape(limbs, batch * n, order + 1).copy()),
                MDArray(self.im.reshape(limbs, batch * n, order + 1).copy()),
            )
        return MDArray(self.re.reshape(limbs, batch * n, order + 1).copy())

    def path_vector(self, p):
        """One path's expansion as a (complex) vector series."""
        if self.complex:
            return ComplexVectorSeries(
                MDComplexArray(
                    MDArray(self.re[:, p].copy()), MDArray(self.im[:, p].copy())
                )
            )
        return VectorSeries(MDArray(self.re[:, p].copy()))

    def path_finite(self, p) -> bool:
        if not np.isfinite(self.re[:, p]).all():
            return False
        return self.im is None or bool(np.isfinite(self.im[:, p]).all())


def track_paths(
    system,
    jacobian=None,
    starts=None,
    *,
    t_start: float = 0.0,
    t_end: float = 1.0,
    order: int = 8,
    tol: float = 1e-8,
    precision_ladder=(1, 2, 4, 8),
    numerator_degree=None,
    denominator_degree=None,
    initial_step=None,
    min_step: float = 1e-10,
    max_steps: int = 64,
    tile_size=None,
    bs_tile_size=None,
    correct: bool = True,
    pole_safety=None,
    policy: str = "continuous",
    device: str = "V100",
    monitor=None,
) -> PathFleetResult:
    """Track a fleet of solution paths of ``F(x, t) = 0`` in batches.

    Parameters are those of :func:`repro.series.tracker.track_path`
    (which see), except ``starts``: a sequence of start points, one per
    path, all of the same dimension.  ``system`` and ``jacobian`` are
    shared by the fleet and are called per path (each path has its own
    expansion point), while all linear algebra — Jacobian QR, per-order
    solves, Hankel solves, Newton correction — runs batched across the
    paths of each precision sub-batch.  A
    :class:`~repro.poly.system.PolynomialSystem` or
    :class:`~repro.poly.homotopy.Homotopy` may be passed directly as
    ``system`` with the start points in the second slot
    (``track_paths(homotopy, starts)``) — the residual/Jacobian
    adapters are generated from the object, no hand-written callables
    required.  Complex start points track natively in ``n`` complex
    variables on the separated-plane batched kernels.

    ``policy`` selects how the :class:`~repro.batch.scheduler
    .FleetScheduler` packs active paths into sub-batches:
    ``"continuous"`` (default) re-packs after every sub-batch so
    retired paths leave the launches immediately, ``"lockstep"``
    reproduces the historical round-barrier schedule exactly.  The
    policy only changes how work is cut into launches — per-path
    results are bitwise identical under both.

    ``monitor`` optionally attaches a
    :class:`~repro.obs.live.LiveMonitor` that watches the fleet's
    telemetry in flight — per-path progress, analytic ETA, stall
    detection, incremental JSONL flushes.  Observe-only: the fleet
    tracks bitwise identically with or without one.  When no recording
    scope is active the monitor's private recorder is enabled for the
    duration of the call.

    Returns a :class:`PathFleetResult`; its ``paths`` entries are
    bit-identical to tracking each start point alone, unbatched (same
    steps, same escalations, same points), and a path whose linear
    algebra degenerates is flagged ``failed`` without affecting its
    batch mates.
    """
    system, jacobian, starts = resolve_system_arguments(system, jacobian, starts)
    if policy not in POLICIES:
        raise ValueError(
            f"unknown packing policy {policy!r}; expected one of {POLICIES}"
        )
    if not precision_ladder:
        raise ValueError("the precision ladder must not be empty")
    if order < 2:
        raise ValueError("path tracking needs series of order >= 2")
    if numerator_degree is None:
        numerator_degree = (order - 1) // 2
    if denominator_degree is None:
        denominator_degree = (order - 1) // 2
    if numerator_degree + denominator_degree >= order:
        raise ValueError(
            "the Padé degrees must satisfy L + M + 1 <= order so the "
            "defect coefficient exists"
        )
    for name, value in (("t_start", t_start), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    for name, value in (("tol", tol), ("min_step", min_step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
    pole_safety = _resolve_pole_safety(pole_safety)
    starts = [list(start) for start in starts]
    if not starts:
        raise ValueError("the fleet needs at least one start point")
    n = len(starts[0])
    if n == 0:
        raise ValueError("start points need at least one component")
    if any(len(start) != n for start in starts):
        raise ValueError("all start points must have the same dimension")

    from ..perf.costmodel import path_fleet_trace, path_step_trace
    from ..perf.model import PerformanceModel

    model = PerformanceModel(device)
    ladder = [get_precision(p).limbs for p in precision_ladder]
    prec0 = get_precision(ladder[0])

    head_lists = [_coerce_start(start, prec0, system) for start in starts]
    complex_data = any(
        isinstance(head, ComplexMultiDouble)
        for heads in head_lists
        for head in heads
    )
    if complex_data:
        # one complex component makes the whole fleet complex
        head_lists = [
            [
                head
                if isinstance(head, ComplexMultiDouble)
                else ComplexMultiDouble(head, MultiDouble(0, prec0))
                for head in heads
            ]
            for heads in head_lists
        ]

    fleet = PathFleetResult(device=device, policy=policy)
    fleet.paths = [PathResult(device=device) for _ in starts]
    states = []
    for index, heads in enumerate(head_lists):
        state = _PathState(
            index=index,
            heads=heads,
            t_current=float(t_start),
            trial_step=float(initial_step) if initial_step else None,
            precisions_used=[prec0.name],
        )
        states.append(state)
        if not (state.t_current < t_end - 1e-14 and max_steps > 0):
            _finalize(state, fleet.paths[index], t_end)

    # Monitor enters first, exits last: the closing ``track_paths``
    # span is still delivered to the attached monitor.
    monitor_stack = ExitStack()
    recorder = attach_monitor(monitor_stack, monitor)
    with monitor_stack, recorder.span(
        "track_paths",
        category="run",
        batch=len(starts),
        dimension=n,
        t_end=float(t_end),
        order=order,
        tol=tol,
        policy=policy,
        device=str(device),
    ) as run_span:
        scheduler = FleetScheduler(states, policy=policy)
        while True:
            picked = scheduler.next_sub_batch()
            if picked is None:
                break
            batch_states, new_round = picked
            if new_round:
                fleet.rounds += 1
            rung = batch_states[0].rung
            recorder.event(
                "repack",
                category="step",
                round=fleet.rounds,
                policy=policy,
                precision=get_precision(ladder[rung]).name,
                paths=[state.index for state in batch_states],
                active=sum(1 for state in states if state.active),
            )
            _advance_sub_batch(
                fleet,
                batch_states,
                system,
                jacobian,
                n=n,
                order=order,
                tol=tol,
                ladder=ladder,
                rung=rung,
                numerator_degree=numerator_degree,
                denominator_degree=denominator_degree,
                min_step=min_step,
                max_steps=max_steps,
                t_end=t_end,
                tile_size=tile_size,
                bs_tile_size=bs_tile_size,
                correct=correct,
                pole_safety=pole_safety,
                complex_data=complex_data,
                batched_residuals=policy == "continuous",
                device=device,
                model=model,
                path_step_trace=path_step_trace,
                path_fleet_trace=path_fleet_trace,
            )
            recorder.gauge("fleet_occupancy", fleet.occupancy)
        if run_span:
            run_span.set(
                rounds=fleet.rounds,
                sub_batches=len(fleet.sub_batches),
                reached=fleet.reached_count,
                failed=fleet.failed_count,
                escalations=fleet.escalations,
                occupancy=fleet.occupancy,
                fleet_model_ms=fleet.fleet_model_ms,
                batching_speedup=fleet.batching_speedup,
            )
    return fleet


def _advance_sub_batch(
    fleet,
    batch_states,
    system,
    jacobian,
    *,
    n,
    order,
    tol,
    ladder,
    rung,
    numerator_degree,
    denominator_degree,
    min_step,
    max_steps,
    t_end,
    tile_size,
    bs_tile_size,
    correct,
    pole_safety,
    complex_data,
    batched_residuals,
    device,
    model,
    path_step_trace,
    path_fleet_trace,
):
    """One batched step attempt for one precision sub-batch.

    With ``batched_residuals`` (the ``continuous`` policy) and a system
    exposing ``residual_fleet``, each order's residual columns come
    from one fleet-wide batched series evaluation; otherwise from the
    historical per-path loop.  Both are bit-identical per path.
    """
    prec = get_precision(ladder[rung])
    limbs = prec.limbs
    batch = len(batch_states)
    for state in batch_states:
        state.heads = [coerce_scalar(h, prec) for h in state.heads]
    fleet.sub_batches.append(
        (fleet.rounds, prec.name, tuple(state.index for state in batch_states))
    )
    recorder = get_recorder()
    recorder.event(
        "sub_batch",
        category="step",
        round=fleet.rounds,
        precision=prec.name,
        paths=[state.index for state in batch_states],
    )
    recorder.count("sub_batches")

    # ------------------------------------------------------------------
    # batched series Newton expansion (newton_series, fleet-wide)
    # ------------------------------------------------------------------
    qr_tile, bs_tile = resolve_tile_sizes(n, tile_size, bs_tile_size)
    round_trace = KernelTrace(
        device,
        label=f"path fleet b={batch} dim={n} order={order} {prec.name}",
    )
    head_matrices = [
        _coerce_jacobian(jacobian(list(state.heads), state.t_current), n, limbs)
        for state in batch_states
    ]

    series_cls = ComplexTruncatedSeries if complex_data else TruncatedSeries

    def make_local_system(t0):
        def local_system(x, s):
            shifted = TruncatedSeries.variable(s.order, prec, head=t0)
            return system(x, shifted)

        return local_system

    local_systems = [make_local_system(state.t_current) for state in batch_states]
    use_fleet_residuals = batched_residuals and hasattr(system, "residual_fleet")

    solution = _SolutionStore(limbs, batch, n, order, complex_data)
    for p, state in enumerate(batch_states):
        solution.set_heads(p, state.heads, limbs)

    with recorder.span(
        "fleet_expansion",
        round=fleet.rounds,
        precision=prec.name,
        batch=batch,
    ) as expansion_span, np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        qr = batched_blocked_qr(
            vb.stack(head_matrices), qr_tile, device=device, trace=round_trace
        )
        q_conjugate = vb.batched_conjugate_transpose(qr.Q)
        uppers = qr.R[:, :n, :n]
        for k in range(1, order + 1):
            if use_fleet_residuals:
                residual_planes = system.residual_fleet(
                    solution.partial_planes(k),
                    [state.t_current for state in batch_states],
                    trace=round_trace,
                    device=device,
                )
                rhs = _batched_residual_columns(residual_planes, k)
            else:
                rhs_rows = []
                for p in range(len(batch_states)):
                    partial = [solution.partial(p, i, k) for i in range(n)]
                    t = series_cls.variable(k, prec)
                    residuals = _coerce_residual(
                        local_systems[p](partial, t), n, k, prec, series_cls
                    )
                    rhs_rows.append(_residual_column(residuals, k))
                rhs = vb.stack(rhs_rows)
            qhb = vb.batched_matvec(q_conjugate, rhs)
            add_batched_launch(
                round_trace,
                batch,
                "apply_qt",
                STAGE_APPLY_QT,
                blocks=max(1, stages.ceil_div(n, qr_tile)),
                threads_per_block=qr_tile,
                limbs=limbs,
                tally=stages.tally_matvec(n, n, complex_data),
                bytes_read=md_bytes(n * n + n, limbs, complex_data),
                bytes_written=md_bytes(n, limbs, complex_data),
            )
            bs = batched_back_substitution(
                uppers, qhb[:, :n], bs_tile, device=device, trace=round_trace
            )
            solution.set_column(k, bs.x)

        # --------------------------------------------------------------
        # one batched Padé construction for all batch * n components
        # --------------------------------------------------------------
        flat_series = solution.flat_series(batch, n, order)
        approximants_flat = batched_pade(
            flat_series,
            numerator_degree,
            denominator_degree,
            device=device,
            trace=round_trace,
        )
    attach_trace(expansion_span, round_trace)
    fleet.round_traces.append(round_trace)
    fleet_timed = model.attribute(
        path_fleet_trace(
            batch,
            n,
            order,
            limbs,
            tile_size=tile_size,
            bs_tile_size=bs_tile_size,
            numerator_degree=numerator_degree,
            denominator_degree=denominator_degree,
            device=device,
            complex_data=complex_data,
        )
    )
    fleet.fleet_model_ms += fleet_timed.kernel_ms

    # ------------------------------------------------------------------
    # per-path step control
    # ------------------------------------------------------------------
    # the per-path cost of one expansion attempt is sub-batch-invariant
    # (same dimension, order, precision, tiles), so price it once
    step_timed = model.attribute(
        path_step_trace(
            n,
            order,
            limbs,
            tile_size=tile_size,
            numerator_degree=numerator_degree,
            denominator_degree=denominator_degree,
            device=device,
            complex_data=complex_data,
        )
    )
    accepted = []
    for p, state in enumerate(batch_states):
        result = fleet.paths[state.index]
        state.step_model_ms += step_timed.kernel_ms

        approximants = approximants_flat[p * n : (p + 1) * n]
        if not (solution.path_finite(p) and _approximants_finite(approximants)):
            result.failed = True
            result.failure = (
                "singular batched linear solve: non-finite series expansion "
                f"at t = {state.t_current:.6g} ({prec.name})"
            )
            result.escalations += state.step_escalations
            result.total_model_ms += state.step_model_ms
            state.active = False
            _finalize(state, result, t_end)
            recorder.event(
                "path_failed",
                category="path",
                path=state.index,
                round=fleet.rounds,
                precision=prec.name,
                t=state.t_current,
                reason=result.failure,
            )
            recorder.count("path_failures")
            _log.warning("path %d failed: %s", state.index, result.failure)
            continue

        expansion_vector = solution.path_vector(p)
        remaining = t_end - state.t_current

        # step control on the Padé truncation estimate (pole_radius
        # shrunk by the pole_safety fraction)
        h = min(remaining, state.trial_step) if state.trial_step else remaining
        h = _pole_step_cap(h, approximants, pole_safety)
        h = min(remaining, max(h, min_step))
        truncation = max(a.error_estimate(h) for a in approximants)
        while truncation > _BUDGET_SPLIT * tol and h > min_step:
            h = max(h / 2.0, min_step)
            truncation = max(a.error_estimate(h) for a in approximants)

        # precision control on the coefficient-condition estimate
        values = evaluation_magnitudes(expansion_vector.evaluate(h))
        conditions = expansion_vector.coefficient_condition(h, values=values)
        noise = prec.eps * float(np.max(conditions * np.maximum(values, 1.0)))
        converged = truncation <= _BUDGET_SPLIT * tol
        clean = noise <= _BUDGET_SPLIT * tol
        if (clean and converged) or rung == len(ladder) - 1:
            accepted.append((state, approximants, h, truncation, noise))
        else:
            reason = "precision_noise" if not clean else "truncation_stalled"
            recorder.event(
                "step_rejected",
                category="step",
                path=state.index,
                round=fleet.rounds,
                t=state.t_current,
                step=h,
                precision=prec.name,
                truncation_error=truncation,
                precision_noise=noise,
                reason=reason,
            )
            recorder.count("steps_rejected")
            state.rung += 1
            state.step_escalations += 1
            next_name = get_precision(ladder[state.rung]).name
            recorder.event(
                "escalation",
                category="step",
                path=state.index,
                round=fleet.rounds,
                t=state.t_current,
                from_precision=prec.name,
                to_precision=next_name,
                reason=reason,
            )
            recorder.count("escalations")
            _log.warning(
                "path %d precision escalation at t = %.6g: %s -> %s (%s)",
                state.index,
                state.t_current,
                prec.name,
                next_name,
                reason,
            )
            if next_name not in state.precisions_used:
                state.precisions_used.append(next_name)

    if not accepted:
        return

    # ------------------------------------------------------------------
    # advance the accepted paths (batched Newton correction)
    # ------------------------------------------------------------------
    new_heads_list = [
        [a.evaluate(h) for a in approximants]
        for state, approximants, h, _, _ in accepted
    ]
    t_next_list = [state.t_current + h for state, _, h, _, _ in accepted]
    if correct:
        new_heads_list = _batched_newton_correct(
            system,
            jacobian,
            new_heads_list,
            t_next_list,
            prec,
            tile_size,
            device,
        )

    for (state, approximants, h, truncation, noise), new_heads, t_next in zip(
        accepted, new_heads_list, t_next_list
    ):
        result = fleet.paths[state.index]
        result.steps.append(
            PathStep(
                t=state.t_current,
                step=h,
                precision=prec.name,
                limbs=prec.limbs,
                truncation_error=truncation,
                precision_noise=noise,
                escalations=state.step_escalations,
                model_ms=state.step_model_ms,
                point=tuple(leading_value(value) for value in new_heads),
            )
        )
        result.escalations += state.step_escalations
        result.total_model_ms += state.step_model_ms
        if recorder:
            recorder.event(
                "step",
                category="step",
                path=state.index,
                round=fleet.rounds,
                t=state.t_current,
                step=h,
                precision=prec.name,
                truncation_error=truncation,
                precision_noise=noise,
                escalations=state.step_escalations,
                model_ms=state.step_model_ms,
                pole_radius=min(a.pole_radius() for a in approximants),
            )
            recorder.count("steps")
        state.heads = new_heads
        state.t_current = t_next
        state.trial_step = 2.0 * h  # gentle growth for the next trial
        state.step_escalations = 0
        state.step_model_ms = 0.0
        if not (state.t_current < t_end - 1e-14 and len(result.steps) < max_steps):
            state.active = False
            _finalize(state, result, t_end)
            recorder.event(
                "path_retired",
                category="path",
                path=state.index,
                round=fleet.rounds,
                precision=prec.name,
                t=result.final_t,
                reached=result.reached,
                steps=result.step_count,
                escalations=result.escalations,
            )
            if not result.reached:
                _log.warning(
                    "path %d stopped at t = %.6g after %d steps (budget %d)",
                    state.index,
                    result.final_t,
                    result.step_count,
                    max_steps,
                )


def _batched_newton_correct(
    system, jacobian, heads_list, t_values, prec, tile_size, device, iterations=2
):
    """Polish the predicted points of a sub-batch in lock-step.

    The residual series are evaluated per path (each has its own
    ``t``); the ``b`` least squares solves of every polish iteration
    run as one batched launch sequence.  Per path this matches an
    unbatched polish (one ``lstsq`` per iteration) bit for bit — on
    complex fleets through the separated-plane complex kernels.
    """
    limbs = prec.limbs
    batch = len(heads_list)
    n = len(heads_list[0])
    heads_list = [list(heads) for heads in heads_list]
    complex_data = isinstance(heads_list[0][0], ComplexMultiDouble)
    series_cls = ComplexTruncatedSeries if complex_data else TruncatedSeries
    from_scalars = (
        MDComplexArray.from_multidoubles if complex_data else MDArray.from_multidoubles
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iterations):
            matrices, rhs_rows = [], []
            for heads, t_value in zip(heads_list, t_values):
                x = [series_cls([h], prec) for h in heads]
                t = TruncatedSeries([MultiDouble(t_value, prec)], prec)
                residuals = _coerce_residual(system(x, t), n, 0, prec, series_cls)
                matrices.append(
                    _coerce_jacobian(jacobian(list(heads), t_value), n, limbs)
                )
                rhs_rows.append(_residual_column(residuals, 0))
            solve = batched_least_squares(
                vb.stack(matrices),
                vb.stack(rhs_rows),
                tile_size=tile_size,
                device=device,
            )
            stacked = vb.stack(
                [from_scalars(heads, limbs) for heads in heads_list]
            )
            corrected = stacked + solve.x
            heads_list = [list(corrected[p]) for p in range(batch)]
    return heads_list


def _approximants_finite(approximants) -> bool:
    """Whether one path's Padé approximants are all finite."""
    return all(
        finite_mask(approximant.numerator_array)
        and finite_mask(approximant.denominator_array)
        for approximant in approximants
    )


def _finalize(state, result, t_end) -> None:
    """Close out one path's :class:`PathResult` from its final state."""
    state.active = False
    result.final_point = list(state.heads)
    result.final_t = state.t_current
    result.reached = (not result.failed) and state.t_current >= t_end - 1e-14
    result.precisions_used = tuple(state.precisions_used)
