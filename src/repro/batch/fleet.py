"""Path fleets: many homotopy paths advanced in batched steps.

This is how the paper's workload is consumed in practice: a polynomial
homotopy has thousands of solution paths, every one of which needs the
same small dense kernels (Jacobian QR, per-order triangular solves,
Hankel solves for the Padé approximants).  :func:`track_paths` is the
library's one adaptive-precision step loop, run over a whole *fleet* of
start points (:func:`repro.series.tracker.track_path` is a fleet of
one):

* after every sub-batch the active paths are **re-packed**: all paths
  at the lowest occupied precision rung (d, dd, qd, od) form the next
  sub-batch, so a path that finishes retires from the launches
  immediately and an escalated path joins its new rung mates at once;
* each sub-batch advances through one batched step — the series
  Newton staircase (one :func:`~repro.batch.qr.batched_blocked_qr` of
  all Jacobian heads and one inversion of their ``R`` tiles, then one
  batched substitution against those inverses per series order;
  :func:`repro.series.newton.newton_series` runs the same staircase
  on a batch of one), **one** :func:`~repro.batch.pade.batched_pade`
  construction covering all ``batch × dimension`` solution components,
  and a batched Newton polish — so the kernel launch count per
  sub-batch is flat in the fleet width;
* systems that expose ``residual_fleet``
  (:class:`~repro.poly.system.PolynomialSystem`,
  :class:`~repro.poly.homotopy.Homotopy`) compute every residual of a
  sub-batch — each order of the expansion and each polish iteration —
  with **one fleet-wide batched series evaluation** over a shared
  power table, and their bound ``jacobian`` gives way to one
  ``jacobian_fleet`` call per staircase head and per polish iteration
  (the same pass at order 0); plain callables are evaluated in a
  Python loop of per-path calls, residuals and Jacobians alike;
* step control runs on the limb planes of the whole sub-batch: the
  pole radii of all its approximants (companion matrices grouped by
  effective degree, one eigenvalue call per degree), the truncation
  halving loop on a mask (one batched denominator Horner per round
  over the paths still over budget), the precision-noise estimate (one
  series Horner) and the predictions of the accepted paths (one
  numerator and one denominator Horner), all on the
  :class:`~repro.series.pade.PadeBatch` that
  :func:`~repro.batch.pade.batched_pade` returns; only the per-path
  decisions (step clamp, accept or escalate d → dd → qd → od, events)
  are a Python loop.

Because every batched kernel is bit-identical to a loop over its
unbatched counterpart, each path of a fleet takes **exactly** the steps
it would take if tracked alone, unbatched (the tests pin this against
an unbatched reference tracker), and a path whose Jacobian goes
singular poisons only its own batch slice: it is detected (non-finite
expansion), reported as ``failed``, and removed from the fleet without
perturbing a single bit of its batch mates.

Fleets of **complex** start points (the native backend of
``Homotopy(..., backend="complex")``) run the identical batched
machinery on the separated-plane complex kernels: the ``n`` complex
variables stay ``n`` (no realification to ``2n``), the batched QR /
triangular solves / Padé constructions dispatch on
:class:`~repro.vec.complexmd.MDComplexArray` operands, and every complex
fleet path is bit-identical to the unbatched complex reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.least_squares import resolve_tile_sizes
from ..gpu.kernel import KernelTrace
from ..md.constants import get_precision
from ..md.number import ComplexMultiDouble, MultiDouble
from ..obs.events import get_recorder
from ..obs.log import get_logger
from ..obs.profile import attach_trace
from ..series.complexvec import ComplexTruncatedSeries, coerce_scalar
from ..series.newton import (
    _coerce_jacobian,
    _coerce_residual,
    _coerce_start,
    resolve_system_arguments,
)
from ..series.tracker import _BUDGET_SPLIT, _resolve_pole_safety, PathResult, PathStep
from ..series.truncated import TruncatedSeries
from ..series.vector import coefficient_conditions, evaluation_magnitudes
from ..vec import batched as vb
from ..vec import linalg
from ..vec.complexmd import MDComplexArray, finite_mask
from ..vec.mdarray import MDArray
from .back_substitution import batched_invert_tiles, batched_substitution
from .least_squares import batched_least_squares
from .pade import batched_pade
from .qr import batched_blocked_qr

__all__ = ["PathFleetResult", "track_paths"]

_log = get_logger(__name__)


@dataclass
class PathFleetResult:
    """A tracked fleet: one :class:`~repro.series.tracker.PathResult`
    per start point plus fleet-level accounting."""

    #: per-path results, in start-point order
    paths: list = field(default_factory=list)
    #: sub-batches advanced so far; the ``round`` of each
    #: ``sub_batches`` record and of the fleet's telemetry events
    rounds: int = 0
    #: one ``(round, precision name, path indices)`` record per
    #: sub-batch advanced — the regrouping history
    sub_batches: list = field(default_factory=list)
    #: numeric kernel trace of every sub-batch round, aligned with
    #: ``sub_batches`` (QR + per-order solves + batched Padé solves)
    round_traces: list = field(default_factory=list)
    #: predicted kernel milliseconds of the whole fleet under batched
    #: execution (one batched launch sequence per sub-batch)
    fleet_model_ms: float = 0.0
    device: str = "V100"

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

        Packing-aware: ``fleet_model_ms`` prices one batched launch
        sequence per sub-batch *actually advanced*, at its width — so
        fuller launches (fewer, wider sub-batches for the same per-path
        steps) show a larger ratio.
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
            f"{len(self.sub_batches)} sub-batches "
            f"at {self.occupancy:.0%} occupancy "
            f"(precision {ladder}, {self.escalations} escalations, "
            f"{self.batching_speedup:.2f}x from batching on {self.device})"
        )


@dataclass
class _PathState:
    """Mutable tracker state of one fleet member."""

    index: int
    #: the path's point: limb planes of element shape ``(n,)`` at the
    #: precision of the last sub-batch it ran in
    heads: object
    t_current: float
    trial_step: object  # float or None, as in track_path
    rung: int = 0
    active: bool = True
    #: escalations and model milliseconds of the step being attempted
    step_escalations: int = 0
    step_model_ms: float = 0.0
    precisions_used: list = field(default_factory=list)


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
    device: str = "V100",
) -> PathFleetResult:
    """Track a fleet of solution paths of ``F(x, t) = 0`` in batches.

    Parameters are those of :func:`repro.series.tracker.track_path`
    (which see), except ``starts``: a sequence of start points, one per
    path, all of the same dimension.  ``system`` and ``jacobian`` are
    shared by the fleet; plain callables are called per path (each path
    has its own expansion point), while all linear algebra — Jacobian
    QR, per-order solves, Hankel solves, Newton correction — runs
    batched across the paths of each precision sub-batch.  A
    :class:`~repro.poly.system.PolynomialSystem` or
    :class:`~repro.poly.homotopy.Homotopy` may be passed directly as
    ``system`` with the start points in the second slot
    (``track_paths(homotopy, starts)``) — the residual/Jacobian
    adapters are generated from the object, no hand-written callables
    required, every residual of the expansion and of the polish is
    evaluated fleet-wide through its ``residual_fleet``, and its bound
    ``jacobian`` (generated, or passed as ``homotopy.jacobian``) through
    one ``jacobian_fleet`` call per sub-batch head and polish
    iteration.  Complex
    start points track natively in ``n`` complex variables on the
    separated-plane batched kernels.

    After every sub-batch the active paths are re-packed: the paths at
    the lowest occupied precision rung advance next, so retired paths
    leave the launches immediately.  Packing only changes how work is
    cut into launches — per-path results never depend on it.

    Returns a :class:`PathFleetResult`; its ``paths`` entries are
    bit-identical to tracking each start point alone, unbatched (same
    steps, same escalations, same points), and a path whose linear
    algebra degenerates is flagged ``failed`` without affecting its
    batch mates.
    """
    system, jacobian, starts = resolve_system_arguments(system, jacobian, starts)
    ladder = [get_precision(p).limbs for p in precision_ladder]
    if not ladder:
        raise ValueError("the precision ladder must not be empty")
    if any(low >= high for low, high in zip(ladder, ladder[1:])):
        raise ValueError(
            f"precision_ladder must be strictly increasing, got limbs {tuple(ladder)}"
        )
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
    if t_end < t_start:
        raise ValueError(f"t_end must be >= t_start = {t_start!r}, got {t_end!r}")
    positive = [("tol", tol), ("min_step", min_step)]
    if initial_step is not None:
        positive.append(("initial_step", initial_step))
    for name, value in positive:
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
    resolve_tile_sizes(n, tile_size, bs_tile_size)

    from ..perf.costmodel import path_fleet_trace
    from ..perf.model import PerformanceModel

    model = PerformanceModel(device)
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

    # one step's predicted kernel milliseconds depend, within one call,
    # only on the width and the rung: priced once per (width, limbs)
    prices = {}

    def step_price(width, limbs):
        key = (width, limbs)
        if key not in prices:
            trace = path_fleet_trace(
                width,
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
            prices[key] = model.attribute(trace).kernel_ms
        return prices[key]

    fleet = PathFleetResult(device=device)
    fleet.paths = [PathResult(device=device) for _ in starts]
    array_cls = MDComplexArray if complex_data else MDArray
    states = []
    for index, heads in enumerate(head_lists):
        state = _PathState(
            index=index,
            heads=array_cls.from_multidoubles(heads, prec0.limbs),
            t_current=float(t_start),
            trial_step=float(initial_step) if initial_step is not None else None,
            precisions_used=[prec0.name],
        )
        states.append(state)
        if not (state.t_current < t_end - 1e-14 and max_steps > 0):
            _finalize(state, fleet.paths[index], t_end)

    recorder = get_recorder()
    with recorder.span(
        "track_paths",
        category="run",
        batch=len(starts),
        dimension=n,
        t_end=float(t_end),
        order=order,
        tol=tol,
        device=str(device),
    ) as run_span:
        while True:
            batch_states = _next_sub_batch(states)
            if batch_states is None:
                break
            fleet.rounds += 1
            rung = batch_states[0].rung
            recorder.event(
                "repack",
                category="step",
                round=fleet.rounds,
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
                device=device,
                step_price=step_price,
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


def _next_sub_batch(states):
    """The active paths at the lowest occupied precision rung, or
    ``None`` once the fleet has drained."""
    active = [state for state in states if state.active]
    if not active:
        return None
    rung = min(state.rung for state in active)
    return [state for state in active if state.rung == rung]


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
    device,
    step_price,
):
    """One batched step attempt for one precision sub-batch: the
    series Newton staircase (:func:`_newton_staircase`), one batched
    Padé construction, step control over the whole sub-batch
    (:func:`_control_steps`), the per-path decisions and the batched
    polish of the accepted paths (:func:`_batched_newton_correct`).
    ``step_price(width, limbs)`` prices a step of ``width`` paths."""
    prec = get_precision(ladder[rung])
    limbs = prec.limbs
    batch = len(batch_states)
    array_cls = MDComplexArray if complex_data else MDArray
    for state in batch_states:
        if state.heads.limbs != limbs:  # escalated since its last step
            state.heads = array_cls.from_multidoubles(
                [coerce_scalar(h, prec) for h in state.heads], limbs
            )
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
    # batched series Newton expansion (the staircase, fleet-wide)
    # ------------------------------------------------------------------
    qr_tile, bs_tile = resolve_tile_sizes(n, tile_size, bs_tile_size)
    round_trace = KernelTrace(
        device,
        label=f"path fleet b={batch} dim={n} order={order} {prec.name}",
    )
    # the fleet-wide series expansion: element shape (batch, n, K+1),
    # heads written now, one column per solved order
    solution = array_cls.zeros((batch, n, order + 1), limbs)
    solution[:, :, 0] = vb.stack([state.heads for state in batch_states])
    t_heads = [state.t_current for state in batch_states]
    head_matrices = _head_jacobians(jacobian, solution[:, :, 0], t_heads)

    with recorder.span(
        "fleet_expansion",
        round=fleet.rounds,
        precision=prec.name,
        batch=batch,
    ) as expansion_span, np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _newton_staircase(
            system,
            head_matrices,
            solution,
            t_heads,
            tile_size=qr_tile,
            bs_tile_size=bs_tile,
            device=device,
            trace=round_trace,
            residual_trace=round_trace,
        )

        # --------------------------------------------------------------
        # one batched Padé construction for all batch * n components
        # --------------------------------------------------------------
        approximants = batched_pade(
            solution.reshape(batch * n, order + 1).copy(),
            numerator_degree,
            denominator_degree,
            device=device,
            trace=round_trace,
        )
    attach_trace(expansion_span, round_trace)
    fleet.round_traces.append(round_trace)

    fleet.fleet_model_ms += step_price(batch, limbs)

    # ------------------------------------------------------------------
    # step control over the whole sub-batch, on the Padé planes
    # ------------------------------------------------------------------
    healthy = (
        finite_mask(solution, axis=(0, 2, 3))
        & finite_mask(approximants.numerators.reshape(batch, -1), axis=(0, 2))
        & finite_mask(approximants.denominators.reshape(batch, -1), axis=(0, 2))
    )
    live = np.flatnonzero(healthy)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        controls = _control_steps(
            approximants,
            solution,
            live,
            [batch_states[p] for p in live],
            t_end=t_end,
            tol=tol,
            min_step=min_step,
            pole_safety=pole_safety,
            eps=prec.eps,
        )
    controls = dict(zip(live.tolist(), controls))

    # ------------------------------------------------------------------
    # per-path decisions
    # ------------------------------------------------------------------
    # one path's expansion attempt is priced as the fleet of one it
    # would run as alone
    step_ms = step_price(1, limbs)
    accepted = []
    for p, state in enumerate(batch_states):
        result = fleet.paths[state.index]
        state.step_model_ms += step_ms

        if not healthy[p]:
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

        h, truncation, noise, pole = controls[p]
        converged = truncation <= _BUDGET_SPLIT * tol
        clean = noise <= _BUDGET_SPLIT * tol
        if (clean and converged) or rung == len(ladder) - 1:
            accepted.append((p, state, h, truncation, noise, pole))
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
    # advance the accepted paths: one batched prediction, then the
    # batched Newton correction
    # ------------------------------------------------------------------
    positions = np.array([p for p, *_ in accepted])
    steps = [h for _, _, h, *_ in accepted]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        heads = approximants.evaluate(
            np.repeat(steps, n), _component_rows(positions, n)
        ).reshape(len(accepted), n)
    t_next_list = [state.t_current + h for _, state, h, *_ in accepted]
    if correct:
        heads = _batched_newton_correct(
            system, jacobian, heads, t_next_list, tile_size, device
        )

    for (_, state, h, truncation, noise, pole), new_heads, t_next in zip(
        accepted, heads, t_next_list
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
                point=_leading_values(new_heads),
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
                pole_radius=pole,
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


def _component_rows(paths, n):
    """The approximant rows of ``paths`` (``n`` components each, path
    by path), as one index array."""
    return (np.asarray(paths)[:, None] * n + np.arange(n)).ravel()


def _control_steps(
    approximants, solution, paths, states, *, t_end, tol, min_step, pole_safety, eps
):
    """Step control for the sub-batch paths ``paths`` (with their
    ``states``), on the planes of the whole sub-batch.

    ``approximants`` is the sub-batch's :class:`~repro.series.pade.PadeBatch`
    (``n`` rows per path, path by path) and ``solution`` its series
    expansion, element shape ``(b, n, K+1)``.  One call makes

    * the pole radii of every row of ``paths`` (one eigenvalue call per
      effective denominator degree), which cap each trial step at
      ``pole_safety`` times the path's closest pole;
    * the truncation estimates: one batched error estimate (one
      denominator Horner) per halving round over the paths still over
      budget, each path halving its own step as it would alone;
    * the precision noise ``eps * max_i cond_i * max(|x_i(h)|, 1)``:
      one series Horner of all paths at their steps, the coefficient
      conditions in NumPy.

    Maxima and minima over a path's components are Python ``max`` and
    ``min`` in component order, and every float is a Python float, so a
    path gets the values of its scalar step control.  Returns one
    ``(h, truncation, noise, pole radius)`` tuple per path.
    """
    paths = np.asarray(paths)
    count = len(paths)
    if count == 0:
        return []
    n = solution.shape[1]
    radii = approximants.pole_radii(_component_rows(paths, n)).reshape(count, n)
    poles = [min(row) for row in radii.tolist()]

    steps = []
    for state, pole in zip(states, poles):
        remaining = t_end - state.t_current
        h = min(remaining, state.trial_step) if state.trial_step else remaining
        if pole != float("inf"):
            h = min(h, pole_safety * pole)
        steps.append(min(remaining, max(h, min_step)))

    budget = _BUDGET_SPLIT * tol
    truncations = [0.0] * count
    pending = list(range(count))
    while pending:
        estimates = approximants.error_estimates(
            np.repeat([steps[j] for j in pending], n),
            _component_rows(paths[pending], n),
        )
        over = []
        for j, row in zip(pending, estimates.reshape(len(pending), n).tolist()):
            truncations[j] = max(row)
            if truncations[j] > budget and steps[j] > min_step:
                steps[j] = max(steps[j] / 2.0, min_step)
                over.append(j)
        pending = over

    coefficients = solution[paths]
    values = evaluation_magnitudes(
        linalg.horner(
            coefficients,
            MDArray.from_double(np.repeat(steps, n).reshape(count, n), solution.limbs),
        )
    )
    complex_data = isinstance(solution, MDComplexArray)
    series_cls = ComplexTruncatedSeries if complex_data else TruncatedSeries
    conditions = coefficient_conditions(
        series_cls._magnitudes(coefficients), np.abs(steps)[:, None], values
    )
    noises = (eps * np.max(conditions * np.maximum(values, 1.0), axis=1)).tolist()
    return list(zip(steps, truncations, noises, poles))


def _newton_staircase(
    system,
    head_matrices,
    solution,
    t_heads,
    *,
    tile_size,
    bs_tile_size,
    device,
    trace,
    residual_trace=None,
):
    """The order-by-order series Newton staircase of a batch of paths.

    ``solution`` holds every path's series solution as limb planes of
    element shape ``(b, n, K+1)``, the heads in column 0; orders 1 to
    ``K`` are written in place.  One batched QR factors the Jacobian
    heads ``head_matrices`` (element shape ``(b, n, n)``) and, from
    order 1 on, one
    :func:`~repro.batch.back_substitution.batched_invert_tiles` inverts
    the diagonal tiles of ``R`` once; each order ``k`` then takes the
    residual columns of the partial series (:func:`_residual_columns`,
    the paths expanded at ``t_heads``), one ``Q^H r`` product and one
    :func:`~repro.batch.back_substitution.batched_substitution` against
    those inverses.
    The solver launches are recorded into ``trace``, the residual
    evaluations into ``residual_trace`` (``None`` records none).
    Returns the triangular factors, element shape ``(b, n, n)``.
    :func:`track_paths` runs it per sub-batch and
    :func:`repro.series.newton.newton_series` as a batch of one.
    """
    from ..perf.costmodel import _apply_qt_launch

    batch, n, terms = solution.shape
    limbs = solution.limbs
    complex_data = isinstance(solution, MDComplexArray)
    qr = batched_blocked_qr(head_matrices, tile_size, device=device, trace=trace)
    q_conjugate = vb.batched_conjugate_transpose(qr.Q)
    uppers = qr.R[:, :n, :n]
    # stage 1 of Algorithm 1 once per head, when there is an order to solve
    inverses = (
        batched_invert_tiles(uppers, bs_tile_size, device=device, trace=trace)
        if terms > 1
        else None
    )
    for k in range(1, terms):
        # views: column k is still zero while order k is solved
        rhs = _residual_columns(
            system,
            solution[:, :, : k + 1],
            t_heads,
            k,
            trace=residual_trace,
            device=device,
        )
        qhb = vb.batched_matvec(q_conjugate, rhs)
        trace.record(
            _apply_qt_launch(n, tile_size, limbs, complex_data).batched(batch)
        )
        bs = batched_substitution(
            uppers, inverses, qhb[:, :n], device=device, trace=trace
        )
        solution[:, :, k] = bs.x
    return uppers


def _residual_columns(system, partials, t_heads, k, *, trace=None, device="V100"):
    """The negated order-``k`` residual coefficients of a batch of
    paths, as one ``(b, n)`` array.

    ``partials`` holds the paths' series through order ``k`` as limb
    planes of element shape ``(b, n, k+1)``, ``t_heads`` the points
    the paths are expanded at.  A system exposing ``residual_fleet``
    (:class:`~repro.poly.system.PolynomialSystem`,
    :class:`~repro.poly.homotopy.Homotopy`) evaluates the whole batch
    in one call, recorded into ``trace``; a plain callable is called
    path by path as ``system(x_p, t_p + s)`` on series, the parameter
    being the real ``TruncatedSeries.variable(k, prec, head=t_p)``.
    Both give every path the bits of its own per-path call.
    """
    if hasattr(system, "residual_fleet"):
        values = system.residual_fleet(partials, t_heads, trace=trace, device=device)
        return -values[:, :, k]
    prec = get_precision(partials.limbs)
    n = partials.shape[1]
    series_cls = (
        ComplexTruncatedSeries
        if isinstance(partials, MDComplexArray)
        else TruncatedSeries
    )
    rows = []
    for p, t_head in enumerate(t_heads):
        x = [series_cls.from_mdarray(partials[p, i]) for i in range(n)]
        t = TruncatedSeries.variable(k, prec, head=t_head)
        residuals = _coerce_residual(system(x, t), n, k, prec, series_cls)
        rows.append(vb.stack([residual.coefficients[k] for residual in residuals]))
    return -vb.stack(rows)


def _head_jacobians(jacobian, heads, t_heads):
    """The Jacobians of a batch of paths at their heads, element shape
    ``(b, n, n)``.

    ``heads`` holds the paths' points as limb planes of element shape
    ``(b, n)``, ``t_heads`` their parameter values.  The bound
    ``jacobian`` of an object with ``jacobian_fleet``
    (:class:`~repro.poly.system.PolynomialSystem`,
    :class:`~repro.poly.homotopy.Homotopy`; what ``track_paths(system,
    starts)``, ``Homotopy.track`` and ``Homotopy.track_fleet`` pass)
    evaluates the whole batch in one call, recording nothing; any other
    callable is called path by path as ``jacobian(x_p, t_p)`` on the
    heads' scalars.  Both give every path the bits of its own per-path
    call.
    """
    batch, n = heads.shape
    owner = getattr(jacobian, "__self__", None)
    if hasattr(owner, "jacobian_fleet") and jacobian == owner.jacobian:
        matrices = owner.jacobian_fleet(heads, t_heads)
        if matrices.shape != (batch, n, n):
            raise ValueError(
                f"the Jacobian must be {n}x{n}, got shape {matrices.shape[1:]}"
            )
        return matrices
    return vb.stack(
        [
            _coerce_jacobian(jacobian(list(heads[p]), t_head), n, heads.limbs)
            for p, t_head in enumerate(t_heads)
        ]
    )


def _batched_newton_correct(
    system, jacobian, heads, t_values, tile_size, device, iterations=2
):
    """Polish the predicted points of a sub-batch in lock-step.

    ``heads`` holds the predictions as limb planes of element shape
    ``(b, n)``; the polished points come back in the same form.  Every
    polish iteration takes the Jacobians of the whole sub-batch from
    :func:`_head_jacobians` and its residuals from
    :func:`_residual_columns` at order 0 (one fleet-wide call each for
    a system object, a per-path loop for a plain callable) and runs the
    ``b`` least squares solves as one batched launch sequence.  Nothing
    is recorded into the round traces.  Per path this matches an
    unbatched polish (one ``lstsq`` per iteration) bit for bit — on
    complex fleets through the separated-plane complex kernels.
    """
    batch, n = heads.shape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iterations):
            matrices = _head_jacobians(jacobian, heads, t_values)
            rhs = _residual_columns(
                system, heads.reshape(batch, n, 1), t_values, 0, device=device
            )
            solve = batched_least_squares(
                matrices, rhs, tile_size=tile_size, device=device
            )
            heads = heads + solve.x
    return heads


def _leading_values(heads) -> tuple:
    """The leading doubles of a head row, as
    :func:`~repro.series.complexvec.leading_value` reads each component:
    floats, or complex numbers built from both planes' heads."""
    if isinstance(heads, MDComplexArray):
        return tuple(
            complex(re, im)
            for re, im in zip(heads.real.data[0].tolist(), heads.imag.data[0].tolist())
        )
    return tuple(heads.data[0].tolist())


def _finalize(state, result, t_end) -> None:
    """Close out one path's :class:`PathResult` from its final state."""
    state.active = False
    result.final_point = list(state.heads)
    result.final_t = state.t_current
    result.reached = (not result.failed) and state.t_current >= t_end - 1e-14
    result.precisions_used = tuple(state.precisions_used)
