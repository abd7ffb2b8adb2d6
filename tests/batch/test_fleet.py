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
  call the fleet it checks, nor its batched step control;
* step control is batched per sub-batch: one denominator evaluation per
  halving round, not one per path.
"""

from __future__ import annotations

from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from repro.batch import PathFleetResult, track_paths
from repro.batch import fleet as fleet_module
from repro.md.number import ComplexMultiDouble
from repro.perf.costmodel import newton_series_trace, path_fleet_trace
from repro.series import newton_series, track_path
from repro.series.pade import PadeBatch
from repro.series.tracker import PathResult

from ..oracles import step_control
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
    def limbs(point):
        return [
            (v.real.limbs, v.imag.limbs) if isinstance(v, ComplexMultiDouble) else v.limbs
            for v in point
        ]

    assert limbs(path.final_point) == limbs(reference.final_point)


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
            {"t_end": -0.5},
            {"initial_step": -0.1},
            {"initial_step": 0.0},
            {"initial_step": float("nan")},
            {"initial_step": float("inf")},
            {"precision_ladder": (2, 1)},
            {"precision_ladder": (2, 2)},
            {"tile_size": 0},
            {"tile_size": -1},
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

    def test_bad_bs_tile_size_raises_before_tracking(self):
        """``track_path`` has no ``bs_tile_size``; the fleet checks it."""
        with pytest.raises(ValueError, match="bs_tile_size"):
            track_paths(untrackable_system, sqrt_jacobian, [[1.0]], bs_tile_size=0)


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

        for name in ("track_paths", "_newton_staircase", "_residual_columns"):
            monkeypatch.setattr(f"repro.batch.fleet.{name}", broken_fleet)
        # the patches are live: the library's one-path tracker and its
        # series Newton staircase go through them
        with pytest.raises(RuntimeError, match="fleet was called"):
            track_path(sqrt_system, sqrt_jacobian, [1.0])
        with pytest.raises(RuntimeError, match="fleet was called"):
            newton_series(sqrt_system, lambda x0: sqrt_jacobian(x0, 0.0), [1.0], 4)
        reference = solo_track_path(sqrt_system, sqrt_jacobian, [1.0])
        assert reference.reached and reference.final_t == 1.0
        assert abs(float(reference.final_point[0]) - 2.0**0.5) < 1e-8

    @pytest.mark.parametrize("backend", ["realified", "complex"])
    def test_oracle_does_not_call_the_batched_jacobians(self, monkeypatch, backend):
        """On a homotopy the reference differentiates through the
        unbatched point pass: never ``jacobian_fleet``, never the
        batched series pass behind the library's point evaluation."""
        from repro.poly import Homotopy, PolynomialSystem, cyclic

        homotopy = Homotopy.total_degree(cyclic(2), seed=7, backend=backend)
        start = homotopy.start_solutions()[1]
        kwargs = dict(tol=1e-8, order=8, max_steps=2)
        fleet = track_paths(homotopy, [start], **kwargs)

        def broken(*args, **kwargs):
            raise RuntimeError("a batched Jacobian was evaluated")

        for owner in (Homotopy, PolynomialSystem):
            monkeypatch.setattr(owner, "jacobian_fleet", broken)
        monkeypatch.setattr(PolynomialSystem, "_series_pass", broken)
        # the patches are live: the fleet and the per-path Jacobian reach them
        with pytest.raises(RuntimeError, match="batched Jacobian"):
            track_paths(homotopy, [start], **kwargs)
        with pytest.raises(RuntimeError, match="batched Jacobian"):
            homotopy.jacobian(start)
        reference = solo_track_path(homotopy, start, **kwargs)
        assert_path_matches_reference(fleet.paths[0], reference)


    @pytest.mark.parametrize("case", ["callable", "complex homotopy"])
    def test_oracle_does_not_call_the_batched_step_control(self, monkeypatch, case):
        """The fleet steps through the batched Padé evaluation, error
        estimate, pole radius, series Horner and condition estimate; the
        reference runs the scalar step control instead."""
        if case == "callable":
            args, kwargs = (sqrt_system, sqrt_jacobian, [1.0]), {}
        else:
            from repro.poly import Homotopy, cyclic

            homotopy = Homotopy.total_degree(cyclic(2), seed=7, backend="complex")
            args = (homotopy, homotopy.start_solutions()[1])
            kwargs = dict(tol=1e-8, order=8, max_steps=2)
        fleet = track_paths(args[0], *args[1:-1], [args[-1]], **kwargs)

        def broken(*args, **kwargs):
            raise RuntimeError("the batched step control was called")

        for name in (
            "evaluate_numerators",
            "evaluate_denominators",
            "error_estimates",
            "pole_estimates",
            "pole_radii",
        ):
            monkeypatch.setattr(PadeBatch, name, broken)
        monkeypatch.setattr("repro.vec.linalg.horner", broken)
        monkeypatch.setattr(fleet_module, "coefficient_conditions", broken)
        # the patches are live: the fleet and the one-path tracker hit them
        with pytest.raises(RuntimeError, match="batched step control"):
            track_paths(args[0], *args[1:-1], [args[-1]], **kwargs)
        with pytest.raises(RuntimeError, match="batched step control"):
            track_path(*args, **kwargs)
        reference = solo_track_path(*args, **kwargs)
        assert_path_matches_reference(fleet.paths[0], reference)


class TestBatchedStepControl:
    def test_one_denominator_evaluation_per_halving_round(self, monkeypatch):
        """Each sub-batch evaluates its denominators 1 + (most halvings
        of any of its paths) times, whatever its width; the halvings
        come from the scalar oracle."""
        from repro.poly import Homotopy, noon

        homotopy = Homotopy.total_degree(noon(2), seed=3)
        calls = []
        sub_batches = []
        evaluate = PadeBatch.evaluate_denominators
        control = fleet_module._control_steps

        def counting_evaluate(self, *args, **kwargs):
            calls[-1] += 1
            return evaluate(self, *args, **kwargs)

        def spying_control(approximants, solution, paths, states, **kwargs):
            n = solution.shape[1]
            halvings = [
                _scalar_halvings(approximants, n, p, state, **kwargs)
                for p, state in zip(paths, states)
            ]
            calls.append(0)
            result = control(approximants, solution, paths, states, **kwargs)
            sub_batches.append((len(paths), halvings, calls[-1]))
            return result

        monkeypatch.setattr(PadeBatch, "evaluate_denominators", counting_evaluate)
        monkeypatch.setattr(fleet_module, "_control_steps", spying_control)
        homotopy.track_fleet(tol=1e-8, order=8, max_steps=4)
        assert sub_batches
        for width, halvings, evaluations in sub_batches:
            assert evaluations == 1 + max(halvings, default=-1)
        # the fleet is wide and its paths halve unevenly: a per-path
        # loop would have made more evaluations than the batched rounds
        per_path = sum(len(h) + sum(h) for _, h, _ in sub_batches)
        batched = sum(evaluations for _, _, evaluations in sub_batches)
        assert max(width for width, _, _ in sub_batches) > 1
        assert any(max(h) > 0 for _, h, _ in sub_batches if h)
        assert batched < per_path


def _scalar_halvings(
    approximants, n, p, state, *, t_end, tol, min_step, pole_safety, eps
):
    """How often the scalar step control halves path ``p``'s step."""
    members = [approximants[p * n + i] for i in range(n)]
    remaining = t_end - state.t_current
    h = min(remaining, state.trial_step) if state.trial_step else remaining
    h = step_control.pole_step_cap(h, members, pole_safety)
    h = min(remaining, max(h, min_step))
    count = 0
    while h > min_step and max(
        step_control.error_estimate(a, h) for a in members
    ) > 0.5 * tol:
        h = max(h / 2.0, min_step)
        count += 1
    return count


class TestFleetCostModel:
    @pytest.mark.parametrize("limbs", [1, 2], ids=["d", "dd"])
    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_round_records_one_tile_inversion_and_equal_the_model(
        self, limbs, complex_data
    ):
        """A round's staircase inverts the tiles of its ``R`` once (the
        batched Padé's Hankel solve inverts its own), and the round
        records exactly the launches of ``path_fleet_trace`` (a plain
        callable records no residual launches), field by field."""
        starts = [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]]
        if complex_data:
            starts = [[complex(v), complex(v)] for v, _ in starts]
        order = 8
        fleet = track_paths(
            coupled_system,
            coupled_jacobian,
            starts,
            tol=1e-12,
            order=order,
            max_steps=3,
            precision_ladder=(limbs,),
        )
        staircase = len(newton_series_trace(2, order, limbs))
        assert fleet.round_traces
        for (_, _, indices), numeric in zip(fleet.sub_batches, fleet.round_traces):
            names = [launch.name for launch in numeric.launches[:staircase]]
            assert names.count("invert_tiles") == 1
            assert names.count("multiply_inverse") == order
            analytic = path_fleet_trace(
                len(indices), 2, order, limbs, complex_data=complex_data
            )
            assert [astuple(launch) for launch in numeric.launches] == [
                astuple(launch) for launch in analytic.launches
            ]

    def test_fleet_trace_flat_in_batch(self):
        base = path_fleet_trace(1, 2, 8, 2)
        wide = path_fleet_trace(32, 2, 8, 2)
        assert len(wide) == len(base)
        assert wide.total_flops() == pytest.approx(32 * base.total_flops())

    def test_fleet_flops_match_per_path_steps(self):
        """Batching reorganizes the launches, not the work."""
        batch, dim, order, limbs = 8, 2, 8, 2
        fleet_trace = path_fleet_trace(batch, dim, order, limbs)
        step = path_fleet_trace(1, dim, order, limbs)
        assert fleet_trace.total_flops() == pytest.approx(
            batch * step.total_flops()
        )
        # the launches are flat in the batch, so the fleet needs
        # strictly fewer launches than b paths tracked alone
        assert len(fleet_trace) < batch * len(step)
