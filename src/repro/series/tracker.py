"""Adaptive-precision Padé path tracking.

This is the paper's motivating application assembled end to end: a
robust tracker for a solution path ``x(t)``, ``t in [t_0, t_end]``, of a
polynomial homotopy ``F(x, t) = 0``.  At the current point the local
solution is developed as a power series
(:func:`repro.series.newton.newton_series` — one multiple double solve
against the Jacobian head per order), summed with Padé approximants
(:func:`repro.series.pade.pade` — one ill-conditioned Hankel least
squares solve per component), and the step size follows from the
approximants' defect term.

Two a posteriori error estimates control the step:

* the **truncation estimate** — the Padé defect extrapolated to the
  trial step — shrinks with the step size and governs *step control*;
* the **precision estimate** — the working precision's unit roundoff
  times the series' coefficient condition number
  (:meth:`~repro.series.truncated.TruncatedSeries.coefficient_condition`)
  — does *not* shrink with the step size.  When it degrades past the
  error budget (or the coefficient noise floor keeps the truncation
  estimate from converging while the step collapses), the tracker
  *escalates the precision* along the ladder d → dd → qd → od and
  re-expands, which is exactly the scenario in which the paper argues
  multiprecision adds significant value.

The step loop lives in :func:`repro.batch.fleet.track_paths`, and
:func:`track_path` is a fleet of one.  Step control runs there on the
limb planes of a whole sub-batch: pole radii, truncation estimates,
precision noise and predictions come from the batch of approximants
(:class:`repro.series.pade.PadeBatch`) in a few batched launches, and
only the per-path decisions are a Python loop.  This module keeps the
per-path records, the error budget split and the pole safety fraction;
every step is priced with the analytic cost model as the fleet of one
it runs as (:func:`repro.perf.costmodel.path_fleet_trace` at
``batch=1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.events import get_recorder
from .newton import resolve_system_arguments

__all__ = ["PathStep", "PathResult", "track_path", "track_paths"]


def __getattr__(name):
    """Lazily expose the fleet tracker.

    ``track_paths`` lives in :mod:`repro.batch.fleet` (it is built on
    the batched execution layer, which itself builds on this module);
    re-exporting it lazily keeps the two packages import-cycle free
    while letting callers keep writing
    ``from repro.series.tracker import track_paths``.
    """
    if name == "track_paths":
        from ..batch.fleet import track_paths

        return track_paths
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Fraction of the error budget granted to each of the two estimates.
_BUDGET_SPLIT = 0.5

#: Default safety fraction between the Padé pole-radius estimate and the
#: accepted step (the literature's beta ~ 0.5): stepping to the raw pole
#: radius would land essentially *on* the nearest pole of the Padé
#: approximant, where the truncation estimate is meaningless.  Both
#: :func:`track_path` and :func:`repro.batch.fleet.track_paths` accept a
#: ``pole_safety`` override.
_POLE_SAFETY = 0.5


def _resolve_pole_safety(pole_safety) -> float:
    """Validate the pole safety fraction (``None`` means the default)."""
    if pole_safety is None:
        return _POLE_SAFETY
    pole_safety = float(pole_safety)
    if not 0.0 < pole_safety <= 1.0:
        raise ValueError(
            f"the pole safety fraction must lie in (0, 1], got {pole_safety}"
        )
    return pole_safety


@dataclass
class PathStep:
    """One accepted step of the tracker."""

    #: parameter value the step started from
    t: float
    #: accepted step size
    step: float
    #: precision the step was accepted at
    precision: str
    limbs: int
    #: Padé truncation estimate at the accepted step
    truncation_error: float
    #: roundoff-noise estimate at the accepted step
    precision_noise: float
    #: precision escalations performed while attempting this step
    escalations: int
    #: predicted kernel milliseconds of all expansions tried (cost model)
    model_ms: float
    #: leading limbs of the accepted new point
    point: tuple


@dataclass
class PathResult:
    """A tracked path with its per-step records and cost accounting."""

    steps: list = field(default_factory=list)
    #: the final point, one :class:`MultiDouble` per component
    final_point: list = field(default_factory=list)
    final_t: float = 0.0
    #: whether ``t_end`` was reached within the step budget
    reached: bool = False
    #: total precision escalations over the whole path
    escalations: int = 0
    #: precision names used along the path, in first-use order
    precisions_used: tuple = ()
    #: predicted kernel milliseconds of the whole path (cost model)
    total_model_ms: float = 0.0
    device: str = "V100"
    #: whether tracking aborted on a degenerate linear solve (a
    #: non-finite series expansion); the path ends here with this
    #: verdict instead of an exception, and in a fleet it is removed
    #: without perturbing its batch mates
    failed: bool = False
    #: human-readable failure reason (empty when ``failed`` is False)
    failure: str = ""

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def final_precision(self) -> str:
        return self.steps[-1].precision if self.steps else ""

    def summary(self) -> str:
        """One human-readable line describing how the tracking went."""
        if self.failed:
            return f"FAILED at t = {self.final_t:.6g}: {self.failure}"
        status = "reached" if self.reached else "stopped at"
        ladder = " -> ".join(self.precisions_used) if self.precisions_used else "-"
        return (
            f"{status} t = {self.final_t:.6g} in {self.step_count} steps "
            f"({self.escalations} escalations, precision {ladder}, "
            f"predicted {self.total_model_ms:.3f} ms on {self.device})"
        )


def track_path(
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
    """Track a solution path of ``F(x, t) = 0`` from ``t_start`` to ``t_end``.

    A fleet of one: ``track_paths(system, jacobian, [start],
    ...).paths[0]`` inside a ``track_path`` span.  A degenerate linear
    solve ends the path ``failed`` instead of raising.

    Parameters
    ----------
    system:
        Callable ``system(x, t) -> residuals`` evaluated with truncated
        series arithmetic, as in :func:`repro.series.newton.newton_series`
        (``t`` is the *global* parameter series).  A
        :class:`~repro.poly.system.PolynomialSystem` or
        :class:`~repro.poly.homotopy.Homotopy` may be passed directly
        — it generates its own residual/Jacobian adapters, so the call
        collapses to ``track_path(homotopy, start)``.
    jacobian:
        Callable ``jacobian(x0, t0) -> J`` returning the Jacobian of
        ``F`` with respect to ``x`` at the point ``x0``, ``t = t0``;
        ``None`` uses the ``jacobian`` generated by the system object.
    start:
        The solution at ``t = t_start``.
    t_start, t_end:
        The parameter interval; both must be finite, with ``t_end >=
        t_start``.
    order:
        Truncation order of the local series expansions.
    tol:
        Per-step error budget, finite and positive; half is granted to
        the Padé truncation estimate (step control), half to the
        roundoff-noise estimate (precision control).
    precision_ladder:
        Limb counts the tracker may escalate through, strictly
        increasing.
    numerator_degree, denominator_degree:
        Padé degrees ``[L/M]`` (both default to ``(order - 1) // 2`` so
        the defect coefficient is always available).
    initial_step:
        First trial step, finite and positive (``None``, the default,
        tries the full remaining distance).
    min_step:
        Smallest step the tracker will try before blaming the working
        precision and escalating; finite and positive.
    max_steps:
        Step budget (``>= 0``); tracking stops (with ``reached =
        False``) once spent.
    correct:
        Polish every predicted point with two scalar Newton iterations
        (recommended; keeps the expansion points on the path).
    pole_safety:
        Safety fraction beta between the closest Padé pole and the
        accepted step (``h <= beta * pole_radius``); defaults to the
        literature's beta = 0.5.  Must lie in ``(0, 1]``.
    device:
        Simulated device for the cost model accounting.

    Complex start points (``complex`` components or
    :class:`~repro.md.number.ComplexMultiDouble` values) track the path
    natively in ``n`` complex variables on the separated-plane complex
    kernels — the backend of ``Homotopy(..., backend="complex")``.
    """
    from ..batch.fleet import track_paths

    system, jacobian, start = resolve_system_arguments(system, jacobian, start)
    with get_recorder().span(
        "track_path",
        category="path",
        t_start=float(t_start),
        t_end=float(t_end),
        order=order,
        tol=tol,
        device=str(device),
    ) as path_span:
        result = track_paths(
            system,
            jacobian,
            [start],
            t_start=t_start,
            t_end=t_end,
            order=order,
            tol=tol,
            precision_ladder=precision_ladder,
            numerator_degree=numerator_degree,
            denominator_degree=denominator_degree,
            initial_step=initial_step,
            min_step=min_step,
            max_steps=max_steps,
            tile_size=tile_size,
            correct=correct,
            pole_safety=pole_safety,
            device=device,
        ).paths[0]
        if path_span:
            path_span.set(
                reached=result.reached,
                steps=result.step_count,
                escalations=result.escalations,
                final_t=result.final_t,
                final_precision=result.final_precision,
                precisions=list(result.precisions_used),
                model_ms=result.total_model_ms,
            )
    return result
