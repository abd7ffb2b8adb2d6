"""Scalar step control: the reference for the fleet's batched step control.

The path fleet (``repro.batch.fleet.track_paths``) chooses every step
of a sub-batch on limb planes: pole radii from companion matrices
grouped by degree, the truncation estimate of all paths still over
budget in one denominator Horner per halving round, the precision noise
as one series Horner, and the predictions as one numerator and one
denominator Horner (``repro.series.pade.PadeBatch``,
``repro.vec.linalg.horner``, ``repro.series.vector.coefficient_conditions``).
``PadeApproximant`` runs the same functions on a batch of one.

This module keeps the per-approximant, per-component code they replaced,
on scalar :class:`~repro.md.number.MultiDouble` /
:class:`~repro.md.number.ComplexMultiDouble` values: a Horner sweep of
scalar multiply-adds, the defect-based error estimate on
``float(abs(x))`` magnitudes, the ``np.roots`` pole radius with its
limb-aware effective degree and Cauchy-bound fallback, the pole cap,
and the coefficient-condition noise estimate of one path.  Python
``max``/``min`` run over the components in order.  The unbatched
reference tracker (``tests/oracles/solo_tracker.py``) steps with these,
so it never reaches the batched step control it checks.
"""

from __future__ import annotations

import numpy as np

from repro.md.number import MultiDouble
from repro.series.complexvec import ComplexTruncatedSeries
from repro.series.tracker import _BUDGET_SPLIT
from repro.series.truncated import TruncatedSeries
from repro.series.vector import evaluation_magnitudes
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

__all__ = [
    "horner",
    "evaluate",
    "evaluate_denominator",
    "error_estimate",
    "pole_estimate",
    "pole_radius",
    "pole_step_cap",
    "precision_noise",
    "path_step",
    "control_steps",
]


def horner(coefficients, point):
    """Scalar Horner sweep over ``coefficients`` (constant term first)."""
    total = coefficients[-1]
    for coefficient in reversed(coefficients[:-1]):
        total = total * point + coefficient
    return total


def _magnitude(value) -> float:
    """Leading-double magnitude of a real or complex multiple double."""
    return float(abs(value))


def evaluate_denominator(approximant, point):
    """``q(point)`` of one approximant, in its working precision."""
    return horner(approximant.denominator, MultiDouble(point, approximant.precision))


def evaluate(approximant, point):
    """``p(point) / q(point)`` of one approximant, in its working precision."""
    point = MultiDouble(point, approximant.precision)
    return horner(approximant.numerator, point) / horner(approximant.denominator, point)


def error_estimate(approximant, point) -> float:
    """``|defect| * t**(L+M+1) / |q(t)|``: 0 at ``t = 0``, ``inf`` for an
    unknown defect or a zero denominator value."""
    t = abs(float(point))
    if t == 0.0:
        return 0.0
    if approximant.defect is None:
        return float("inf")
    q_value = _magnitude(evaluate_denominator(approximant, point))
    if q_value == 0.0:
        return float("inf")
    return _magnitude(approximant.defect) * t ** (approximant.order + 1) / q_value


def _leading_heads(array) -> np.ndarray:
    if isinstance(array, MDComplexArray):
        return array.real.data[0] + 1j * array.imag.data[0]
    return array.data[0]


def _limb_planes(array) -> np.ndarray:
    if isinstance(array, MDComplexArray):
        return np.concatenate([array.real.data, array.imag.data], axis=0)
    return array.data


def pole_estimate(approximant) -> float:
    """Cauchy lower bound ``|q_0| / (|q_0| + max_j |q_j|)`` on the
    leading limbs; ``inf`` for a constant denominator."""
    if approximant.denominator_degree == 0:
        return float("inf")
    heads = np.abs(_leading_heads(approximant.denominator_array))
    tail = float(np.max(heads[1:]))
    if tail == 0.0:
        return float("inf")
    head = float(heads[0])
    return head / (head + tail)


def pole_radius(approximant) -> float:
    """Smallest root modulus of the denominator (``np.roots`` on the
    leading limbs; the limb sum stands in for an underflowed head);
    the Cauchy bound for non-finite limbs, ``inf`` for a constant
    denominator."""
    array = approximant.denominator_array
    planes = _limb_planes(array)
    if not np.isfinite(planes).all():
        return pole_estimate(approximant)
    heads = _leading_heads(array)
    nonzero = np.any(planes != 0.0, axis=0)
    if isinstance(array, MDComplexArray):
        summed = array.real.data.sum(axis=0) + 1j * array.imag.data.sum(axis=0)
    else:
        summed = array.data.sum(axis=0)
    approx = np.where(heads != 0.0, heads, summed)
    degrees = np.nonzero(nonzero)[0]
    if len(degrees) == 0 or degrees[-1] == 0:
        return float("inf")
    coefficients = approx[degrees[-1] :: -1]  # highest power first
    if coefficients[0] == 0.0:
        return pole_estimate(approximant)
    roots = np.roots(coefficients)
    if len(roots) == 0:
        return float("inf")
    return float(np.min(np.abs(roots)))


def _cap(h, pole, pole_safety) -> float:
    if pole == float("inf"):
        return h
    return min(h, pole_safety * pole)


def pole_step_cap(h, approximants, pole_safety) -> float:
    """Cap a trial step at ``pole_safety`` times the closest pole of a
    path's approximants; an infinite radius leaves it alone."""
    return _cap(h, min(pole_radius(a) for a in approximants), pole_safety)


def precision_noise(series, h, eps) -> float:
    """``eps * max_i cond_i * max(|x_i(h)|, 1)`` of one path's expansion
    ``series`` (its component series): every component evaluated by a
    scalar Horner sweep, the coefficient condition
    ``sum |c_k| h^k / |x_i(h)|`` on leading doubles."""
    prec = series[0].precision
    point = MultiDouble(h, prec)
    values = [horner(list(s.coefficients), point) for s in series]
    if isinstance(series[0].coefficients, MDComplexArray):
        magnitudes = evaluation_magnitudes(MDComplexArray.from_multidoubles(values))
        heads = np.stack(
            [
                np.hypot(s.coefficients.real.data[0], s.coefficients.imag.data[0])
                for s in series
            ]
        )
    else:
        magnitudes = evaluation_magnitudes(MDArray.from_multidoubles(values))
        heads = np.stack([np.abs(s.coefficients.data[0]) for s in series])
    t = abs(float(h))
    absolute = np.zeros(len(series))
    power = 1.0
    for k in range(heads.shape[1]):
        absolute += heads[:, k] * power
        power *= t
    conditions = np.empty(len(series))
    for i in range(len(series)):
        if magnitudes[i] == 0.0:
            conditions[i] = float("inf") if absolute[i] > 0.0 else 1.0
        else:
            conditions[i] = absolute[i] / magnitudes[i]
    return eps * float(np.max(conditions * np.maximum(magnitudes, 1.0)))


def path_step(
    approximants, series, remaining, trial_step, *, tol, min_step, pole_safety, eps
):
    """One path's step control: the trial step capped below the closest
    pole, halved while the truncation estimate is over its budget, and
    the precision noise at the step taken.  Returns ``(h, truncation,
    noise, pole radius)``."""
    pole = min(pole_radius(a) for a in approximants)
    h = min(remaining, trial_step) if trial_step else remaining
    h = _cap(h, pole, pole_safety)
    h = min(remaining, max(h, min_step))
    truncation = max(error_estimate(a, h) for a in approximants)
    while truncation > _BUDGET_SPLIT * tol and h > min_step:
        h = max(h / 2.0, min_step)
        truncation = max(error_estimate(a, h) for a in approximants)
    return h, truncation, precision_noise(series, h, eps), pole


def control_steps(
    approximants, solution, paths, states, *, t_end, tol, min_step, pole_safety, eps
):
    """The per-path loop ``repro.batch.fleet._control_steps`` replaces:
    :func:`path_step` for each sub-batch path in ``paths`` (its ``n``
    approximants and component series taken from the sub-batch's
    ``approximants`` and ``solution``), with the states' ``t_current``
    and ``trial_step``."""
    n = solution.shape[1]
    complex_data = isinstance(solution, MDComplexArray)
    series_cls = ComplexTruncatedSeries if complex_data else TruncatedSeries
    return [
        path_step(
            [approximants[p * n + i] for i in range(n)],
            [series_cls.from_mdarray(solution[p, i]) for i in range(n)],
            t_end - state.t_current,
            state.trial_step,
            tol=tol,
            min_step=min_step,
            pole_safety=pole_safety,
            eps=eps,
        )
        for p, state in zip(paths, states)
    ]
