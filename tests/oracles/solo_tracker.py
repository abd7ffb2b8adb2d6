"""The unbatched single-path tracker: the reference for every fleet
identity test.

:func:`repro.series.tracker.track_path` is a fleet of one — it returns
``repro.batch.fleet.track_paths(..., [start]).paths[0]`` — so the
library holds one step loop.  This module keeps the unbatched loop the
fleet was built from: per step one
:func:`~repro.series.newton.newton_series` expansion, one
:func:`~repro.series.pade.pade` construction per solution component,
and one :func:`~repro.core.least_squares.lstsq` per Newton polish
iteration.  Step control, the Padé pole cap, the noise test and the
precision escalation follow the per-path logic of
``repro.batch.fleet._advance_sub_batch`` decision for decision.

Every batched kernel is bit-identical to a loop over its unbatched
counterpart, so each path of a fleet must equal :func:`solo_track_path`
bit for bit: steps, escalations, model accounting, final limbs.  The
oracle never calls the fleet, so a fleet bug cannot hide in its own
reference.  It records no telemetry and takes no monitor.
"""

from __future__ import annotations

import numpy as np

from repro.core.least_squares import lstsq
from repro.md.constants import get_precision
from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.perf.costmodel import path_step_trace
from repro.perf.model import PerformanceModel
from repro.series.complexvec import (
    ComplexTruncatedSeries,
    coerce_scalar,
    evaluation_magnitudes,
    leading_value,
)
from repro.series.newton import (
    _coerce_jacobian,
    _coerce_residual,
    _coerce_start,
    _residual_column,
    newton_series,
    resolve_system_arguments,
)
from repro.series.pade import pade
from repro.series.tracker import (
    _BUDGET_SPLIT,
    PathResult,
    PathStep,
    _pole_step_cap,
    _resolve_pole_safety,
)
from repro.series.truncated import TruncatedSeries
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

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
    :func:`repro.series.tracker.track_path` without ``monitor``.

    Inputs are assumed valid: the argument checks live in
    :func:`repro.batch.fleet.track_paths`.
    """
    system, jacobian, start = resolve_system_arguments(system, jacobian, start)
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
                return system(x, shifted)

            expansion = newton_series(
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
                path_step_trace(
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
            # the closest Padé pole
            h = min(remaining, trial_step) if trial_step else remaining
            h = _pole_step_cap(h, approximants, pole_safety)
            h = min(remaining, max(h, min_step))
            truncation = max(a.error_estimate(h) for a in approximants)
            while truncation > _BUDGET_SPLIT * tol and h > min_step:
                h = max(h / 2.0, min_step)
                truncation = max(a.error_estimate(h) for a in approximants)

            # precision control on the coefficient-condition estimate
            values = evaluation_magnitudes(expansion.vector.evaluate(h))
            conditions = expansion.vector.coefficient_condition(h, values=values)
            noise = prec.eps * float(np.max(conditions * np.maximum(values, 1.0)))
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
        new_heads = [a.evaluate(h) for a in approximants]
        t_next = t_current + h
        if correct:
            new_heads = _newton_correct(
                system, jacobian, new_heads, t_next, prec, tile_size, device
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
