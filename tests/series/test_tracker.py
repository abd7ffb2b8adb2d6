"""Adaptive-precision path tracking."""

from __future__ import annotations

import math

import pytest

from repro.series import track_path


def sqrt_system(x, t):
    """x(t)^2 = 1 + t: the square-root homotopy of the examples."""
    (x1,) = x
    return [x1 * x1 - 1 - t]


def sqrt_jacobian(x0, t0):
    return [[2 * x0[0]]]


def branch_point_system(x, t):
    """x(t)^2 = 1/4 + t: an ill-conditioned path.

    The branch point at t = -1/4 sits close to the tracked interval, so
    the series coefficients grow geometrically and the Padé defect keeps
    the steps short; demanding more accuracy than a precision can
    represent makes the tracker escalate.
    """
    (x1,) = x
    from fractions import Fraction

    return [x1 * x1 - Fraction(1, 4) - t]


def branch_point_jacobian(x0, t0):
    return [[2 * x0[0]]]


def test_loose_tolerance_stays_in_hardware_double():
    result = track_path(
        sqrt_system, sqrt_jacobian, [1.0], tol=1e-8, order=8, max_steps=32
    )
    assert result.reached
    assert result.precisions_used == ("1d",)
    assert result.escalations == 0
    assert abs(float(result.final_point[0]) - math.sqrt(2.0)) <= 1e-8
    assert result.step_count >= 2
    assert result.total_model_ms > 0.0
    for step in result.steps:
        assert step.limbs == 1
        assert step.precision == "1d"
        assert step.model_ms > 0.0


def test_moderate_tolerance_finishes_in_double_double():
    result = track_path(
        sqrt_system,
        sqrt_jacobian,
        [1.0],
        tol=1e-16,
        order=12,
        max_steps=64,
    )
    assert result.reached
    assert result.precisions_used[0] == "1d"
    assert "2d" in result.precisions_used
    assert result.escalations >= 1
    x = result.final_point[0].to_fraction()
    assert abs(float(x * x - 2)) <= 1e-12
    # once escalated, the ladder is monotone
    limb_sequence = [step.limbs for step in result.steps]
    assert limb_sequence == sorted(limb_sequence)


def test_ill_conditioned_path_escalates_precision():
    """The acceptance scenario: the tracker escalates d -> dd -> qd when
    the error estimate degrades past what the precision can deliver."""
    result = track_path(
        branch_point_system,
        branch_point_jacobian,
        [0.5],
        tol=1e-34,
        order=8,
        max_steps=6,
    )
    assert result.precisions_used[:3] == ("1d", "2d", "4d")
    assert result.escalations >= 2
    # every accepted step honours the noise half of the error budget
    for step in result.steps:
        assert step.precision_noise <= 0.5 * 1e-34
        assert step.limbs >= 4


def test_octo_double_rung_is_reachable():
    result = track_path(
        sqrt_system,
        sqrt_jacobian,
        [1.0],
        tol=1e-70,
        order=8,
        max_steps=2,
    )
    assert "8d" in result.precisions_used
    assert result.steps[0].limbs == 8
    assert result.escalations >= 3


def test_exhausted_ladder_proceeds_at_top_rung():
    result = track_path(
        sqrt_system,
        sqrt_jacobian,
        [1.0],
        tol=1e-20,
        order=8,
        precision_ladder=(1,),
        max_steps=3,
    )
    assert result.precisions_used == ("1d",)
    assert result.escalations == 0
    assert not result.reached


def test_step_budget_is_respected():
    result = track_path(
        sqrt_system, sqrt_jacobian, [1.0], tol=1e-20, order=8, max_steps=4
    )
    assert result.step_count <= 4
    assert not result.reached
    assert result.final_t < 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        track_path(sqrt_system, sqrt_jacobian, [1.0], precision_ladder=())
    with pytest.raises(ValueError):
        track_path(sqrt_system, sqrt_jacobian, [1.0], order=1)
    with pytest.raises(ValueError):
        track_path(
            sqrt_system,
            sqrt_jacobian,
            [1.0],
            order=8,
            numerator_degree=4,
            denominator_degree=4,
        )


def test_singular_path_ends_with_a_failure_verdict():
    """An all-zero Jacobian makes the very first expansion singular: the
    path ends ``failed`` with a reason instead of raising."""

    def coupled_system(x, t):
        x1, x2 = x
        return [x1 * x1 - 1 - t, x1 * x2 - 1]

    def zero_jacobian(x0, t0):
        return [[0.0, 0.0], [0.0, 0.0]]

    result = track_path(
        coupled_system, zero_jacobian, [0.0, 0.0], tol=1e-16, order=8, max_steps=16
    )
    assert result.failed and not result.reached
    assert result.step_count == 0
    assert result.final_t == 0.0
    assert result.failure.startswith("singular batched linear solve: ")
    assert result.summary().startswith("FAILED at t = 0")


def test_partial_interval_and_uncorrected_prediction():
    result = track_path(
        sqrt_system,
        sqrt_jacobian,
        [1.0],
        t_end=0.5,
        tol=1e-6,
        order=8,
        max_steps=16,
        correct=False,
    )
    assert result.reached
    assert abs(float(result.final_point[0]) - math.sqrt(1.5)) <= 1e-5
