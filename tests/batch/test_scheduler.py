"""The fleet scheduler: packing policies and their invariants.

Two layers of coverage:

* :class:`~repro.batch.scheduler.FleetScheduler` alone, on dummy
  states — continuous re-packing (min-rung-first, mutations re-read
  every call), the lockstep barrier snapshot, and policy validation;
* the policies driving :func:`~repro.batch.fleet.track_paths` —
  fleets that converge in round zero, all-paths-fail fleets, a single
  survivor re-packed alone, mid-flight escalation splitting a
  sub-batch, and the ground rule that **packing never changes
  per-path results**: both policies reproduce the unbatched reference
  tracker (``tests/oracles/solo_tracker.py``) bitwise, and ``lockstep``
  reproduces the recorded pre-scheduler golden fixture limb for limb.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.batch import POLICIES, FleetScheduler, track_paths
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


class DummyState:
    def __init__(self, rung, active=True):
        self.rung = rung
        self.active = active

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"DummyState(rung={self.rung}, active={self.active})"


class TestFleetSchedulerUnit:
    def test_policies_tuple(self):
        assert POLICIES == ("lockstep", "continuous")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            FleetScheduler([DummyState(0)], policy="bogus")

    def test_continuous_picks_lowest_occupied_rung(self):
        states = [DummyState(2), DummyState(0), DummyState(1), DummyState(0)]
        scheduler = FleetScheduler(states, policy="continuous")
        batch, new_round = scheduler.next_sub_batch()
        assert batch == [states[1], states[3]]
        assert new_round is True

    def test_continuous_every_sub_batch_is_a_round(self):
        states = [DummyState(0), DummyState(1)]
        scheduler = FleetScheduler(states, policy="continuous")
        _, first = scheduler.next_sub_batch()
        states[0].active = False
        _, second = scheduler.next_sub_batch()
        assert first is True and second is True

    def test_continuous_rereads_mutations_every_call(self):
        """The scheduler holds no snapshot: retirement and escalation
        between calls immediately reshape the next sub-batch."""
        states = [DummyState(0), DummyState(0), DummyState(0)]
        scheduler = FleetScheduler(states, policy="continuous")
        batch, _ = scheduler.next_sub_batch()
        assert batch == states
        states[0].active = False  # retired
        states[1].rung = 1  # escalated
        batch, _ = scheduler.next_sub_batch()
        assert batch == [states[2]]
        states[2].active = False
        batch, _ = scheduler.next_sub_batch()
        assert batch == [states[1]]

    def test_continuous_drains_to_none(self):
        state = DummyState(0)
        scheduler = FleetScheduler([state], policy="continuous")
        assert scheduler.next_sub_batch() is not None
        state.active = False
        assert scheduler.next_sub_batch() is None
        assert scheduler.next_sub_batch() is None

    def test_lockstep_round_spans_the_barrier_snapshot(self):
        """One round = one barrier snapshot, partitioned by rung in
        ladder order; only the first group opens the round."""
        states = [DummyState(1), DummyState(0), DummyState(1), DummyState(2)]
        scheduler = FleetScheduler(states, policy="lockstep")
        batch, new_round = scheduler.next_sub_batch()
        assert (batch, new_round) == ([states[1]], True)
        batch, new_round = scheduler.next_sub_batch()
        assert (batch, new_round) == ([states[0], states[2]], False)
        batch, new_round = scheduler.next_sub_batch()
        assert (batch, new_round) == ([states[3]], False)
        # the round drained: the next call snapshots a fresh barrier
        batch, new_round = scheduler.next_sub_batch()
        assert new_round is True

    def test_lockstep_snapshot_is_stale_within_the_round(self):
        """Mutations mid-round do not reshape the remaining groups —
        the historical barrier semantics the golden fixture records."""
        states = [DummyState(0), DummyState(1)]
        scheduler = FleetScheduler(states, policy="lockstep")
        scheduler.next_sub_batch()  # rung-0 group
        states[0].rung = 1  # escalates after its advance...
        batch, _ = scheduler.next_sub_batch()
        assert batch == [states[1]]  # ...but this round's rung-1 group
        # only at the next barrier do the two share a sub-batch
        batch, new_round = scheduler.next_sub_batch()
        assert new_round is True and batch == [states[0], states[1]]

    def test_lockstep_drains_to_none(self):
        states = [DummyState(0, active=False), DummyState(1, active=False)]
        assert FleetScheduler(states, policy="lockstep").next_sub_batch() is None


class TestTrackPathsPolicies:
    def test_unknown_policy_rejected_before_tracking(self):
        with pytest.raises(ValueError, match="bogus"):
            track_paths(sqrt_system, sqrt_jacobian, [[1.0]], policy="bogus")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_converged_in_round_zero(self, policy):
        """A fleet already at ``t_end`` never schedules a sub-batch."""
        fleet = track_paths(
            sqrt_system,
            sqrt_jacobian,
            [[1.0], [-1.0]],
            t_start=1.0,
            t_end=1.0,
            policy=policy,
        )
        assert fleet.rounds == 0 and fleet.sub_batches == []
        assert all(path.reached for path in fleet.paths)
        assert fleet.occupancy == 1.0
        assert fleet.policy == policy

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_paths_fail(self, policy):
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
            policy=policy,
        )
        assert fleet.failed_count == 2 and fleet.reached_count == 0
        assert all(path.failed and "singular" in path.failure for path in fleet.paths)
        assert len(fleet.sub_batches) == 1  # the one attempt that failed

    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_survivor_repacked_alone(self, policy):
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
            policy=policy,
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
        its rung mates' sub-batch: continuous packing drains the dd
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
        fleet = track_paths(
            split_system, split_jacobian, starts, policy="continuous", **kwargs
        )
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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_both_policies_match_solo_tracking(self, policy):
        starts = [[1.0, 1.0], [-1.0, -1.0]]
        fleet = track_paths(
            coupled_system,
            coupled_jacobian,
            starts,
            tol=1e-16,
            order=8,
            max_steps=16,
            policy=policy,
        )
        for start, path in zip(starts, fleet.paths):
            reference = solo_track_path(
                coupled_system, coupled_jacobian, start, tol=1e-16, order=8, max_steps=16
            )
            assert_path_matches_reference(path, reference)

    def test_policies_bitwise_identical_to_each_other(self):
        kwargs = dict(tol=1e-34, order=8, max_steps=6)
        starts = [[1.0, 1.0], [-1.0, -1.0]]
        lockstep = track_paths(
            coupled_system, coupled_jacobian, starts, policy="lockstep", **kwargs
        )
        continuous = track_paths(
            coupled_system, coupled_jacobian, starts, policy="continuous", **kwargs
        )
        for ref, obs in zip(lockstep.paths, continuous.paths):
            assert obs.steps == ref.steps
            assert obs.final_t == ref.final_t
            assert [v.limbs for v in obs.final_point] == [
                v.limbs for v in ref.final_point
            ]

    def test_summary_narrates_the_policy(self):
        fleet = track_paths(
            sqrt_system, sqrt_jacobian, [[1.0], [-1.0]], tol=1e-8, max_steps=8
        )
        line = fleet.summary()
        assert "continuous packing" in line
        assert "occupancy" in line

    def test_repack_events_and_occupancy_gauge(self):
        with recording() as recorder:
            fleet = track_paths(
                sqrt_system, sqrt_jacobian, [[1.0], [-1.0]], tol=1e-8, max_steps=8
            )
        repacks = [r for r in recorder.records if r.name == "repack"]
        assert len(repacks) == len(fleet.sub_batches)
        assert all(r.fields["policy"] == "continuous" for r in repacks)
        assert recorder.gauges["fleet_occupancy"] == fleet.occupancy


class TestLockstepGoldenFixture:
    """The recorded pre-scheduler lock-step run, limb for limb."""

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
            policy="lockstep",
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
