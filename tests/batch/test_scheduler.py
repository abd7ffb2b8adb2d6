"""The fleet's packing and its invariants.

Two layers of coverage:

* the private picker alone, on dummy states — after every sub-batch
  the active paths at the lowest occupied rung advance next, and
  retirement and escalation between calls are re-read every call;
* the packing driving :func:`~repro.batch.fleet.track_paths` — fleets
  that converge in round zero, all-paths-fail fleets, a single survivor
  re-packed alone, mid-flight escalation splitting a sub-batch, the one
  residual dispatch left (fleet-wide ``residual_fleet`` for system
  objects, the per-path loop for plain callables), and the ground rule
  that **packing never changes per-path results**: the fleet reproduces
  the unbatched reference tracker (``tests/oracles/solo_tracker.py``)
  bitwise, and the recorded cyclic-3 golden fixture limb for limb.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.batch import track_paths
from repro.batch.fleet import _next_sub_batch
from repro.md.number import ComplexMultiDouble
from repro.obs import recording
from repro.poly import Homotopy, cyclic

from ..oracles.solo_tracker import solo_track_path
from .test_fleet import (
    assert_path_matches_reference,
    coupled_jacobian,
    coupled_system,
    sqrt_jacobian,
    sqrt_system,
)

GOLDEN = Path(__file__).parent / "golden_cyclic3_lockstep.json"


def _point_limbs(point) -> list:
    """Every limb of a real or complex point."""
    return [
        (v.real.limbs, v.imag.limbs) if isinstance(v, ComplexMultiDouble) else v.limbs
        for v in point
    ]


class DummyState:
    def __init__(self, rung, active=True):
        self.rung = rung
        self.active = active

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"DummyState(rung={self.rung}, active={self.active})"


class TestFleetSchedulerUnit:
    """The picker alone, on dummy states."""

    def test_continuous_picks_lowest_occupied_rung(self):
        states = [DummyState(2), DummyState(0), DummyState(1), DummyState(0)]
        assert _next_sub_batch(states) == [states[1], states[3]]

    def test_continuous_every_sub_batch_is_a_round(self):
        """No round barrier: the picker keeps no snapshot, so with
        nothing mutated every call packs the same full rung again."""
        states = [DummyState(0), DummyState(1)]
        assert _next_sub_batch(states) == [states[0]]
        assert _next_sub_batch(states) == [states[0]]
        states[0].active = False
        assert _next_sub_batch(states) == [states[1]]

    def test_continuous_rereads_mutations_every_call(self):
        """Retirement and escalation between calls immediately reshape
        the next sub-batch."""
        states = [DummyState(0), DummyState(0), DummyState(0)]
        assert _next_sub_batch(states) == states
        states[0].active = False  # retired
        states[1].rung = 1  # escalated
        assert _next_sub_batch(states) == [states[2]]
        states[2].active = False
        assert _next_sub_batch(states) == [states[1]]

    def test_continuous_drains_to_none(self):
        state = DummyState(0)
        assert _next_sub_batch([state]) is not None
        state.active = False
        assert _next_sub_batch([state]) is None
        assert _next_sub_batch([]) is None


class TestTrackPathsPolicies:
    """The packing driving :func:`~repro.batch.fleet.track_paths`."""

    def test_converged_in_round_zero(self):
        """A fleet already at ``t_end`` never schedules a sub-batch."""
        fleet = track_paths(
            sqrt_system,
            sqrt_jacobian,
            [[1.0], [-1.0]],
            t_start=1.0,
            t_end=1.0,
        )
        assert fleet.rounds == 0 and fleet.sub_batches == []
        assert all(path.reached for path in fleet.paths)
        assert fleet.occupancy == 1.0

    def test_all_paths_fail(self):
        """When every path dies on a singular solve the fleet stops
        cleanly with no survivor sub-batches after the failures."""

        def singular_jacobian(x0, t0):
            return [[0.0, 0.0], [0.0, 0.0]]

        fleet = track_paths(
            coupled_system,
            singular_jacobian,
            [[1.0, 1.0], [-1.0, -1.0]],
            tol=1e-16,
            order=8,
            max_steps=8,
        )
        assert fleet.failed_count == 2 and fleet.reached_count == 0
        assert all(path.failed and "singular" in path.failure for path in fleet.paths)
        assert len(fleet.sub_batches) == 1  # the one attempt that failed

    def test_single_survivor_repacked_alone(self):
        """After its batch mate dies, the survivor advances in
        width-one sub-batches and still matches solo tracking."""

        def jacobian_with_singular_origin(x0, t0):
            if abs(float(x0[0])) < 0.5:
                return [[0.0, 0.0], [0.0, 0.0]]
            return coupled_jacobian(x0, t0)

        starts = [[0.0, 0.0], [1.0, 1.0]]
        fleet = track_paths(
            coupled_system,
            jacobian_with_singular_origin,
            starts,
            tol=1e-16,
            order=8,
            max_steps=16,
        )
        assert fleet.paths[0].failed
        survivor_batches = [indices for _, _, indices in fleet.sub_batches[1:]]
        assert survivor_batches and all(
            indices == (1,) for indices in survivor_batches
        )
        reference = solo_track_path(
            coupled_system,
            coupled_jacobian,
            starts[1],
            tol=1e-16,
            order=8,
            max_steps=16,
        )
        assert_path_matches_reference(fleet.paths[1], reference)
        assert fleet.occupancy < 1.0

    def test_od_escalation_splits_a_sub_batch_continuous(self):
        """A mid-flight od escalation pulls the escalating path out of
        its rung mates' sub-batch: the packing drains the dd
        rung first (min-rung-first) and the escalated path then
        advances alone through qd and od."""
        # two branches of one factored curve, 43 orders of magnitude
        # apart: the huge branch's noise floor rejects dd and qd steps
        # (noise ~ eps * |x|) while the unit branch stays clean at dd
        V = 1e43

        def split_system(x, t):
            (x1,) = x
            return [(x1 * x1 - 1 - t) * (x1 * x1 - V * V * (1 + t))]

        def split_jacobian(x0, t0):
            x = x0[0]
            return [[2 * x * (x * x - V * V * (1 + t0)) + (x * x - 1 - t0) * 2 * x]]

        kwargs = dict(tol=1e-22, order=8, max_steps=3, precision_ladder=(2, 4, 8))
        starts = [[1.0], [V]]
        fleet = track_paths(split_system, split_jacobian, starts, **kwargs)
        # round 1 packs both paths at dd; the escalation splits them
        assert fleet.sub_batches[0] == (1, "2d", (0, 1))
        split = fleet.sub_batches[1:]
        assert all(indices == (0,) for _, name, indices in split if name == "2d")
        assert all(
            indices == (1,) for _, name, indices in split if name in ("4d", "8d")
        )
        assert "8d" in {name for _, name, _ in split}
        # min-rung-first: every dd sub-batch precedes the qd/od ones
        ranks = [{"2d": 0, "4d": 1, "8d": 2}[name] for _, name, _ in split]
        assert ranks == sorted(ranks)
        assert fleet.paths[1].precisions_used == ("2d", "4d", "8d")
        for start, path in zip(starts, fleet.paths):
            reference = solo_track_path(split_system, split_jacobian, start, **kwargs)
            assert_path_matches_reference(path, reference)

    def test_matches_solo_tracking(self):
        starts = [[1.0, 1.0], [-1.0, -1.0]]
        fleet = track_paths(
            coupled_system,
            coupled_jacobian,
            starts,
            tol=1e-16,
            order=8,
            max_steps=16,
        )
        for start, path in zip(starts, fleet.paths):
            reference = solo_track_path(
                coupled_system, coupled_jacobian, start, tol=1e-16, order=8, max_steps=16
            )
            assert_path_matches_reference(path, reference)

    def test_residual_dispatch(self, monkeypatch):
        """System objects take every residual fleet-wide: one
        ``residual_fleet`` call per order per sub-batch for the
        expansion, plus one per polish iteration (two) per sub-batch
        that accepts a path.  A plain callable wrapping the same system
        takes the per-path loop, with equal steps and final limbs, on
        both homotopy backends.  Both are bitwise equal, so only a call
        count notices a lost fast path."""
        calls = []
        residual_fleet = Homotopy.residual_fleet

        def counted(self, *args, **kwargs):
            calls.append(args)
            return residual_fleet(self, *args, **kwargs)

        monkeypatch.setattr(Homotopy, "residual_fleet", counted)
        kwargs = dict(tol=1e-8, order=8, max_steps=2, precision_ladder=(2,))
        for backend in ("realified", "complex"):
            homotopy = Homotopy.total_degree(cyclic(2), seed=7, backend=backend)
            starts = homotopy.start_solutions()
            calls.clear()
            with recording() as recorder:
                fleet = track_paths(homotopy, starts, **kwargs)
            accepting = {
                r.fields["round"] for r in recorder.records if r.name == "step"
            }
            assert accepting
            assert len(calls) == kwargs["order"] * len(fleet.sub_batches) + 2 * len(
                accepting
            )

            calls.clear()
            plain = track_paths(
                lambda x, t, h=homotopy: h(x, t), homotopy.jacobian, starts, **kwargs
            )
            assert calls == []
            for ours, fast in zip(plain.paths, fleet.paths, strict=True):
                assert ours.steps == fast.steps
                assert _point_limbs(ours.final_point) == _point_limbs(
                    fast.final_point
                )

    def test_summary_narrates_the_packing(self):
        fleet = track_paths(
            sqrt_system, sqrt_jacobian, [[1.0], [-1.0]], tol=1e-8, max_steps=8
        )
        line = fleet.summary()
        assert f"{len(fleet.sub_batches)} sub-batches at" in line
        assert "occupancy" in line

    def test_repack_events_and_occupancy_gauge(self):
        with recording() as recorder:
            fleet = track_paths(
                sqrt_system, sqrt_jacobian, [[1.0], [-1.0]], tol=1e-8, max_steps=8
            )
        repacks = [r for r in recorder.records if r.name == "repack"]
        assert len(repacks) == len(fleet.sub_batches)
        assert [r.fields["round"] for r in repacks] == [
            round_ for round_, _, _ in fleet.sub_batches
        ]
        assert recorder.gauges["fleet_occupancy"] == fleet.occupancy


class TestCyclic3GoldenFixture:
    """The recorded cyclic-3 fleet run, limb for limb.

    The fixture was captured under a round-barrier packing.  With one
    rung on the ladder every sub-batch carries all six paths, so its
    schedule (3 sub-batches, all six paths at 2d) is also the schedule
    of re-packing after every sub-batch."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.fixture(scope="class")
    def fleet(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7, backend="complex")
        return track_paths(
            homotopy,
            homotopy.start_solutions(),
            tol=1e-8,
            order=8,
            max_steps=3,
            precision_ladder=(2,),
        )

    def test_rounds_and_sub_batches(self, golden, fleet):
        assert fleet.rounds == golden["rounds"]
        recorded = [
            (round_, name, tuple(indices))
            for round_, name, indices in golden["sub_batches"]
        ]
        assert fleet.sub_batches == recorded

    def test_paths_reproduce_bitwise(self, golden, fleet):
        assert len(fleet.paths) == len(golden["paths"])
        for path, recorded in zip(fleet.paths, golden["paths"]):
            assert path.final_t == float.fromhex(recorded["final_t"])
            assert path.reached == recorded["reached"]
            assert len(path.steps) == len(recorded["steps"])
            for step, (t_hex, h_hex, precision) in zip(
                path.steps, recorded["steps"]
            ):
                assert step.t == float.fromhex(t_hex)
                assert step.step == float.fromhex(h_hex)
                assert step.precision == precision
            for value, (real_hex, imag_hex) in zip(
                path.final_point, recorded["final_point"]
            ):
                assert value.real.limbs == tuple(
                    float.fromhex(x) for x in real_hex
                )
                assert value.imag.limbs == tuple(
                    float.fromhex(x) for x in imag_hex
                )
