"""Path fleets: lock-step batched tracking with per-path adaptivity.

The edge cases the batched execution layer must get right:

* a fleet of **one** — which is what ``track_path`` runs — reproduces
  the unbatched reference tracker (``tests/oracles/solo_tracker.py``)
  bit for bit (steps, escalations, model accounting, final point limbs);
* every path of a **multi-path** fleet matches tracking it alone with
  the reference (batched kernels are bit-identical, so fleets change
  nothing);
* a path that **escalates to od mid-fleet** regroups into higher
  precision sub-batches without disturbing the ladder semantics;
* a **singular step** in one path (degenerate Jacobian) fails that
  path alone — its batch mates' results stay bit-identical;
* the reference comparison itself can fail, and the reference does not
  call the fleet it checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.batch import PathFleetResult, track_paths
from repro.perf.costmodel import path_fleet_trace, path_step_trace
from repro.series import track_path
from repro.series.tracker import PathResult

from ..oracles.solo_tracker import solo_track_path


def sqrt_system(x, t):
    """x(t)^2 = 1 + t (the examples' square-root homotopy)."""
    (x1,) = x
    return [x1 * x1 - 1 - t]


def sqrt_jacobian(x0, t0):
    return [[2 * x0[0]]]


def coupled_system(x, t):
    x1, x2 = x
    return [x1 * x1 - 1 - t, x1 * x2 - 1]


def coupled_jacobian(x0, t0):
    return [[2 * x0[0], 0], [x0[1], x0[0]]]


def branch_point_system(x, t):
    """x(t)^2 = 1/4 + t: ill-conditioned near the branch at t = -1/4."""
    (x1,) = x
    return [x1 * x1 - Fraction(1, 4) - t]


def branch_point_jacobian(x0, t0):
    return [[2 * x0[0]]]


def untrackable_system(x, t):
    raise AssertionError("a bad input must be rejected before any evaluation")


def assert_path_matches_reference(path: PathResult, reference: PathResult):
    """Bitwise comparison of a fleet path against the unbatched
    reference (:func:`solo_track_path`)."""
    assert path.steps == reference.steps
    assert path.final_t == reference.final_t
    assert path.reached == reference.reached
    assert not path.failed
    assert path.escalations == reference.escalations
    assert path.precisions_used == reference.precisions_used
    assert path.total_model_ms == reference.total_model_ms
    assert [v.limbs for v in path.final_point] == [
        v.limbs for v in reference.final_point
    ]


class TestFleetOfOne:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tol=1e-8, order=8, max_steps=32),
            dict(tol=1e-16, order=12, max_steps=64),
            dict(tol=1e-8, order=8, max_steps=32, initial_step=0.25, correct=False),
        ],
        ids=["double", "escalating", "uncorrected"],
    )
    def test_bitwise_identical_to_track_path(self, kwargs):
        """``track_path`` is a fleet of one; both match the unbatched
        reference bit for bit."""
        reference = solo_track_path(sqrt_system, sqrt_jacobian, [1.0], **kwargs)
        fleet = track_paths(sqrt_system, sqrt_jacobian, [[1.0]], **kwargs)
        assert fleet.batch == 1
        assert_path_matches_reference(fleet.paths[0], reference)
        solo = track_path(sqrt_system, sqrt_jacobian, [1.0], **kwargs)
        assert_path_matches_reference(solo, reference)

    def test_already_at_t_end(self):
        fleet = track_paths(
            sqrt_system, sqrt_jacobian, [[1.0]], t_start=1.0, t_end=1.0
        )
        path = fleet.paths[0]
        assert path.reached and path.step_count == 0
        assert fleet.rounds == 0


class TestMultiPathFleet:
    def test_each_path_matches_solo_tracking(self):
        starts = [[1.0, 1.0], [-1.0, -1.0]]
        fleet = track_paths(
            coupled_system, coupled_jacobian, starts, tol=1e-16, order=8, max_steps=16
        )
        for start, path in zip(starts, fleet.paths):
            reference = solo_track_path(
                coupled_system,
                coupled_jacobian,
                start,
                tol=1e-16,
                order=8,
                max_steps=16,
            )
            assert_path_matches_reference(path, reference)
        # both paths advanced as one sub-batch while both were active
        assert fleet.sub_batches[0] == (1, "1d", (0, 1))

    def test_regrouping_follows_the_per_path_rungs(self):
        """Between rounds the fleet regroups by precision rung: the
        sub-batch records walk the ladder exactly as the per-path
        escalation history dictates.  (The escalation law itself keeps
        same-tolerance paths rung-synchronized — noise floors are
        eps-quantized — so composition changes come from escalation,
        finishing and failing paths, all covered in this module.)"""
        fleet = track_paths(
            branch_point_system,
            branch_point_jacobian,
            [[0.5], [-0.5]],
            tol=1e-34,
            order=8,
            max_steps=6,
        )
        for start, path in zip(([0.5], [-0.5]), fleet.paths):
            reference = solo_track_path(
                branch_point_system,
                branch_point_jacobian,
                start,
                tol=1e-34,
                order=8,
                max_steps=6,
            )
            assert_path_matches_reference(path, reference)
        precisions = [name for _, name, _ in fleet.sub_batches]
        assert {"1d", "2d", "4d"} <= set(precisions)
        # one sub-batch per round here (both paths share the rung), and
        # the precision sequence is monotone along the ladder
        order_index = {"1d": 0, "2d": 1, "4d": 2, "8d": 3}
        ranks = [order_index[name] for name in precisions]
        assert ranks == sorted(ranks)

    def test_fleet_model_accounting(self):
        fleet = track_paths(
            coupled_system,
            coupled_jacobian,
            [[1.0, 1.0], [-1.0, -1.0]],
            tol=1e-16,
            order=8,
            max_steps=8,
        )
        assert isinstance(fleet, PathFleetResult)
        assert fleet.total_model_ms > 0.0
        assert fleet.fleet_model_ms > 0.0
        # batched execution needs strictly less predicted kernel time
        # than one-path-at-a-time execution
        assert fleet.batching_speedup > 1.0
        assert fleet.rounds == len(fleet.sub_batches)
        assert len(fleet.round_traces) == len(fleet.sub_batches)

    def test_round_trace_matches_analytic_fleet_trace(self):
        fleet = track_paths(
            coupled_system,
            coupled_jacobian,
            [[1.0, 1.0], [-1.0, -1.0]],
            tol=1e-16,
            order=8,
            max_steps=4,
        )
        _, _, indices = fleet.sub_batches[0]
        numeric = fleet.round_traces[0]
        analytic = path_fleet_trace(len(indices), 2, 8, 1)
        assert len(analytic) == len(numeric)
        for model_launch, real_launch in zip(analytic.launches, numeric.launches):
            assert model_launch.stage == real_launch.stage
            assert model_launch.blocks == real_launch.blocks
            assert model_launch.tally.as_dict() == pytest.approx(
                real_launch.tally.as_dict()
            )


class TestEscalationMidFleet:
    def test_path_escalates_to_od_mid_fleet(self):
        fleet = track_paths(
            sqrt_system, sqrt_jacobian, [[1.0], [-1.0]], tol=1e-70, order=8, max_steps=2
        )
        for start, path in zip(([1.0], [-1.0]), fleet.paths):
            reference = solo_track_path(
                sqrt_system, sqrt_jacobian, start, tol=1e-70, order=8, max_steps=2
            )
            assert_path_matches_reference(path, reference)
            assert "8d" in path.precisions_used
            assert path.escalations >= 3
        # the regrouping walked the whole ladder
        precisions = [name for _, name, _ in fleet.sub_batches]
        assert precisions[:4] == ["1d", "2d", "4d", "8d"]


class TestSingularPathIsolation:
    @staticmethod
    def _jacobian_with_singular_origin(x0, t0):
        # the path started at the origin gets a structurally singular
        # Jacobian; the well-separated paths get the true one
        if abs(float(x0[0])) < 0.5:
            return [[0.0, 0.0], [0.0, 0.0]]
        return coupled_jacobian(x0, t0)

    def test_failure_is_contained(self):
        starts = [[1.0, 1.0], [0.0, 0.0], [-1.0, -1.0]]
        fleet = track_paths(
            coupled_system,
            self._jacobian_with_singular_origin,
            starts,
            tol=1e-16,
            order=8,
            max_steps=16,
        )
        failed = fleet.paths[1]
        assert failed.failed and not failed.reached
        assert "singular" in failed.failure
        assert failed.step_count == 0
        assert fleet.failed_count == 1
        # the healthy batch mates are bit-identical to solo tracking
        for index in (0, 2):
            reference = solo_track_path(
                coupled_system,
                coupled_jacobian,
                starts[index],
                tol=1e-16,
                order=8,
                max_steps=16,
            )
            assert_path_matches_reference(fleet.paths[index], reference)
        # after the failure the fleet regrouped without the dead path
        later = [indices for _, _, indices in fleet.sub_batches[1:]]
        assert all(1 not in indices for indices in later)


class TestValidation:
    def test_empty_fleet(self):
        with pytest.raises(ValueError):
            track_paths(sqrt_system, sqrt_jacobian, [])

    def test_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            track_paths(coupled_system, coupled_jacobian, [[1.0, 1.0], [1.0]])

    def test_bad_order_and_ladder(self):
        with pytest.raises(ValueError):
            track_paths(sqrt_system, sqrt_jacobian, [[1.0]], order=1)
        with pytest.raises(ValueError):
            track_paths(sqrt_system, sqrt_jacobian, [[1.0]], precision_ladder=())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": 0.0},
            {"tol": -1e-8},
            {"min_step": 0.0},
            {"min_step": -1e-10},
            {"min_step": float("nan")},
            {"min_step": float("inf")},
            {"max_steps": -1},
            {"t_start": float("nan")},
            {"t_start": float("-inf")},
            {"t_end": float("nan")},
            {"t_end": float("inf")},
        ],
        ids=str,
    )
    def test_bad_inputs_raise_before_tracking(self, kwargs):
        """One bad keyword per case must raise ``ValueError`` naming it,
        through both entry points: the fleet validates, ``track_path``
        (a fleet of one) inherits the checks."""
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            track_paths(untrackable_system, sqrt_jacobian, [[1.0]], **kwargs)
        with pytest.raises(ValueError, match=name):
            track_path(untrackable_system, sqrt_jacobian, [1.0], **kwargs)


class TestReferenceOracle:
    """The reference comparison is a gate, so it must be able to fail."""

    def test_perturbed_tolerance_is_caught(self):
        fleet = track_paths(sqrt_system, sqrt_jacobian, [[1.0]], tol=1e-8)
        reference = solo_track_path(sqrt_system, sqrt_jacobian, [1.0], tol=2e-8)
        with pytest.raises(AssertionError):
            assert_path_matches_reference(fleet.paths[0], reference)

    def test_oracle_does_not_call_the_fleet(self, monkeypatch):
        def broken_fleet(*args, **kwargs):
            raise RuntimeError("the fleet was called")

        monkeypatch.setattr("repro.batch.fleet.track_paths", broken_fleet)
        # the patch is live: the library's one-path tracker goes through it
        with pytest.raises(RuntimeError, match="fleet was called"):
            track_path(sqrt_system, sqrt_jacobian, [1.0])
        reference = solo_track_path(sqrt_system, sqrt_jacobian, [1.0])
        assert reference.reached and reference.final_t == 1.0
        assert abs(float(reference.final_point[0]) - 2.0**0.5) < 1e-8


class TestFleetCostModel:
    def test_fleet_trace_flat_in_batch(self):
        base = path_fleet_trace(1, 2, 8, 2)
        wide = path_fleet_trace(32, 2, 8, 2)
        assert len(wide) == len(base)
        assert wide.total_flops() == pytest.approx(32 * base.total_flops())

    def test_fleet_flops_match_per_path_steps(self):
        """Batching reorganizes the launches, not the work."""
        batch, dim, order, limbs = 8, 2, 8, 2
        fleet_trace = path_fleet_trace(batch, dim, order, limbs)
        step = path_step_trace(dim, order, limbs)
        assert fleet_trace.total_flops() == pytest.approx(
            batch * step.total_flops()
        )
        # the per-path Padé constructions collapse into one batched one,
        # so the fleet needs strictly fewer launches than b paths alone
        assert len(fleet_trace) < batch * len(step)
