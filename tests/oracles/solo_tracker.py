"""The unbatched single-path tracker: the reference for every fleet
identity test.

:func:`repro.series.tracker.track_path` is a fleet of one — it returns
``repro.batch.fleet.track_paths(..., [start]).paths[0]`` — so the
library holds one step loop.  This module keeps the unbatched loop the
fleet was built from: per step one unbatched Newton staircase (the
oracle ``tests.oracles.series.unbatched_newton_series``; the library's
:func:`~repro.series.newton.newton_series` is a batch of one over the
fleet's staircase), one unbatched Padé construction per solution
component (the oracle ``tests.oracles.series.pade``), and one
:func:`~repro.core.least_squares.lstsq` per Newton polish iteration.
The residuals of a :class:`~repro.poly.homotopy.Homotopy` run on the
unbatched evaluation oracles of ``tests.oracles.poly``
(:func:`~tests.oracles.poly.unbatched_residual`), and the bound
``jacobian`` of a homotopy or a
:class:`~repro.poly.system.PolynomialSystem` on its unbatched point
pass (:func:`~tests.oracles.poly.unbatched_jacobian`, where the fleet
calls ``jacobian_fleet`` once per sub-batch); other callables are
called as given.  Step control, the Padé pole cap, the noise test and
the precision escalation follow the per-path decisions of
``repro.batch.fleet._advance_sub_batch`` one path at a time, on the
scalar step control of ``tests.oracles.step_control``: a scalar Horner
sweep per component, the ``np.roots`` pole radius, the per-path
halving loop and noise estimate, where the fleet runs one batched
Horner, error estimate and eigenvalue call per sub-batch.

Every batched kernel is bit-identical to a loop over its unbatched
counterpart, so each path of a fleet must equal :func:`solo_track_path`
bit for bit: steps, escalations, model accounting, final limbs.  The
oracle never calls the fleet (neither its staircase nor its polish) or
:func:`~repro.batch.pade.batched_pade`, nor, on a homotopy or a plain
residual callable, the batched series evaluator, nor any
``jacobian_fleet``, nor the batched step control (``PadeBatch``,
``repro.vec.linalg.horner``, ``coefficient_conditions``), so a bug in
them cannot hide in its own reference.
It records no telemetry.
"""

from __future__ import annotations

from repro.core.least_squares import lstsq
from repro.md.constants import get_precision
from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.perf.costmodel import path_fleet_trace
from repro.perf.model import PerformanceModel
from repro.series.complexvec import ComplexTruncatedSeries, coerce_scalar, leading_value
from repro.series.newton import (
    _coerce_jacobian,
    _coerce_residual,
    _coerce_start,
    resolve_system_arguments,
)
from repro.series.tracker import (
    _BUDGET_SPLIT,
    PathResult,
    PathStep,
    _resolve_pole_safety,
)
from repro.series.truncated import TruncatedSeries
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

from .poly import unbatched_jacobian, unbatched_residual
from .series import _residual_column, pade, unbatched_newton_series
from .step_control import evaluate, path_step

__all__ = ["solo_track_path"]


def _newton_correct(system, jacobian, heads, t_value, prec, tile_size, device, iterations=2):
    """Polish a predicted point with scalar Newton steps at fixed ``t``."""
    n = len(heads)
    limbs = prec.limbs
    complex_heads = isinstance(heads[0], ComplexMultiDouble)
    series_cls = ComplexTruncatedSeries if complex_heads else TruncatedSeries
    from_scalars = (
        MDComplexArray.from_multidoubles if complex_heads else MDArray.from_multidoubles
    )
    for _ in range(iterations):
        x = [series_cls([h], prec) for h in heads]
        t = TruncatedSeries([MultiDouble(t_value, prec)], prec)
        residuals = _coerce_residual(system(x, t), n, 0, prec, series_cls)
        matrix = _coerce_jacobian(jacobian(list(heads), t_value), n, limbs)
        rhs = _residual_column(residuals, 0)
        update = lstsq(matrix, rhs, tile_size=tile_size, device=device).x
        corrected = from_scalars(heads, limbs) + update
        heads = list(corrected)
    return heads


def solo_track_path(
    system,
    jacobian=None,
    start=None,
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
    correct: bool = True,
    pole_safety=None,
    device: str = "V100",
) -> PathResult:
    """Track one path unbatched; the arguments are those of
    :func:`repro.series.tracker.track_path`.

    Inputs are assumed valid: the argument checks live in
    :func:`repro.batch.fleet.track_paths`.
    """
    system, jacobian, start = resolve_system_arguments(system, jacobian, start)
    residual = unbatched_residual(system)
    jacobian = unbatched_jacobian(jacobian)
    if numerator_degree is None:
        numerator_degree = (order - 1) // 2
    if denominator_degree is None:
        denominator_degree = (order - 1) // 2

    model = PerformanceModel(device)
    pole_safety = _resolve_pole_safety(pole_safety)
    ladder = [get_precision(p).limbs for p in precision_ladder]
    rung = 0

    prec = get_precision(ladder[rung])
    heads = _coerce_start(start, prec, system)
    complex_data = isinstance(heads[0], ComplexMultiDouble)
    n = len(heads)

    result = PathResult(device=device)
    precisions_used = [prec.name]
    t_current = float(t_start)
    trial_step = float(initial_step) if initial_step else None

    while t_current < t_end - 1e-14 and len(result.steps) < max_steps:
        remaining = t_end - t_current
        step_escalations = 0
        step_model_ms = 0.0

        while True:
            prec = get_precision(ladder[rung])
            heads = [coerce_scalar(h, prec) for h in heads]

            def local_system(x, s, _t0=t_current, _prec=prec):
                shifted = TruncatedSeries.variable(s.order, _prec, head=_t0)
                return residual(x, shifted)

            expansion = unbatched_newton_series(
                local_system,
                lambda x0, _t0=t_current: jacobian(x0, _t0),
                heads,
                order,
                prec,
                tile_size=tile_size,
                device=device,
            )
            approximants = [
                pade(s, numerator_degree, denominator_degree, device=device)
                for s in expansion.series
            ]
            timed = model.attribute(
                path_fleet_trace(
                    1,
                    n,
                    order,
                    prec.limbs,
                    tile_size=tile_size,
                    numerator_degree=numerator_degree,
                    denominator_degree=denominator_degree,
                    device=device,
                    complex_data=complex_data,
                )
            )
            step_model_ms += timed.kernel_ms

            # step control on the Padé truncation estimate, capped below
            # the closest Padé pole; precision control on the
            # coefficient-condition estimate
            h, truncation, noise, _ = path_step(
                approximants,
                expansion.series,
                remaining,
                trial_step,
                tol=tol,
                min_step=min_step,
                pole_safety=pole_safety,
                eps=prec.eps,
            )
            converged = truncation <= _BUDGET_SPLIT * tol
            clean = noise <= _BUDGET_SPLIT * tol
            if (clean and converged) or rung == len(ladder) - 1:
                break
            rung += 1
            step_escalations += 1
            next_name = get_precision(ladder[rung]).name
            if next_name not in precisions_used:
                precisions_used.append(next_name)

        # advance to the predicted point
        new_heads = [evaluate(a, h) for a in approximants]
        t_next = t_current + h
        if correct:
            new_heads = _newton_correct(
                residual, jacobian, new_heads, t_next, prec, tile_size, device
            )
        result.steps.append(
            PathStep(
                t=t_current,
                step=h,
                precision=prec.name,
                limbs=prec.limbs,
                truncation_error=truncation,
                precision_noise=noise,
                escalations=step_escalations,
                model_ms=step_model_ms,
                point=tuple(leading_value(value) for value in new_heads),
            )
        )
        result.escalations += step_escalations
        result.total_model_ms += step_model_ms
        heads = new_heads
        t_current = t_next
        trial_step = 2.0 * h  # gentle growth for the next trial

    result.final_point = list(heads)
    result.final_t = t_current
    result.reached = t_current >= t_end - 1e-14
    result.precisions_used = tuple(precisions_used)
    return result
