"""Fleet-wide residual evaluation vs the per-path loop on a straggler
fleet, and batched step control vs the per-path scalar loop.

Given a system object (:class:`~repro.poly.system.PolynomialSystem`,
:class:`~repro.poly.homotopy.Homotopy`), ``track_paths`` expands each
order's residual columns for a whole sub-batch with one batched
``residual_fleet`` call over a shared power table; given a plain
callable it evaluates the residuals path by path, in a Python loop of
series calls.  The arithmetic per path is identical; only the
host-side series work differs.  This benchmark pins that gain on a
heterogeneous 32-path dd fleet with **one od-escalating straggler**,
whose packing (one 32-wide and nine 31-wide sub-batches at dd, one
1-wide each at qd and od) exercises retirement and precision splits.

The fleet tracks the system

* ``x1 = 2 + t + x3``                       (well-scaled, all paths)
* ``((2-t) x2^2 - (1+t)) (x2 - V - x3) = 0``
* ``x3 = a sqrt(1 - t/4)``                  (honest series tail)

31 paths start on the benign branch ``x2 = sqrt((1+t)/(2-t))`` and
crawl forward in dd steps for the whole step budget.  One path starts on
``x2 = V + x3`` with ``V = 1e43``: its coefficient condition is huge,
double-double and quad-double noise floors reject every trial step,
and the path escalates 2d -> 4d -> 8d before covering ``t`` in a
single od stride and retiring early.  The ``x3`` carrier gives every
component a genuine square-root tail, so the Pade denominators see the
true branch point at ``t = 4`` instead of noise poles.

Checked before any timing (identical work, or the timing is vacuous):

* the per-path loop (the system wrapped in a plain ``lambda``, with its
  generated Jacobian) and the fleet-wide evaluation (the system object
  itself) produce **bitwise identical** per-path results — final
  ``t``, step count, and every limb of every final coordinate;
* the straggler reaches ``t = 1``, uses exactly ``('2d', '4d', '8d')``,
  and retires after one od step.

Timing compares full ``track_paths`` runs of the two, best-of-N to
shrug off machine noise, on the generic execution backend.  The pin
keeps the ratio comparable with this suite's earlier baselines, all
measured on generic: the default fused backend speeds up the kernels
both sides share, not the residual evaluation this benchmark isolates.
The floor is deliberately below the measured 1.5-1.9x so it fails on
regression, not on jitter.

The second benchmark records every step-control call of the cyclic-3
fleet (the end-to-end ``cyclic3`` workload's homotopy and tolerances,
first 24 steps per path) and replays the sub-batches two ways: the
fleet's batched step control (``repro.batch.fleet._control_steps``: one
eigenvalue call per denominator degree, one denominator Horner per
halving round, one series Horner for the noise) and the scalar oracle's
per-path loop (``tests.oracles.step_control.control_steps``: ``np.roots``
and scalar ``MultiDouble`` Horner sweeps per component).  Both sides
must return the same floats bit for bit before anything is timed; they
run on the default execution backend, the one the tracker uses.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

import harness
from repro.batch import fleet as fleet_module
from repro.batch import track_paths
from repro.exec import use_backend
from repro.obs import recording
from repro.poly import Homotopy, PolynomialSystem, cyclic
from tests.oracles import step_control

#: Minimum per-path-loop over fleet-wide-residuals wall-clock ratio
#: (measured 1.5-1.9x).
FLOOR = 1.3

#: Straggler magnitude: large enough that dd *and* qd noise floors
#: reject every trial step, forcing the full 2d -> 4d -> 8d ladder.
V = 1e43
#: Amplitude of the sqrt tail carried into every component by x3.
A = 1e-18
A2 = A * A

BATCH = 32
TRACK = dict(
    tol=1e-22,
    order=8,
    max_steps=10,
    precision_ladder=(2, 4, 8),
    correct=False,
)


def straggler_fleet():
    """The 32-path fleet: 31 benign dd paths + 1 od straggler."""
    system = PolynomialSystem(
        [
            # x1 - 2 - t - x3 = 0
            [
                (1, (1, 0, 0, 0)),
                (-2, (0, 0, 0, 0)),
                (-1, (0, 0, 0, 1)),
                (-1, (0, 0, 1, 0)),
            ],
            # ((2-t) x2^2 - (1+t)) * (x2 - V - x3) = 0, expanded
            [
                (2, (0, 3, 0, 0)),
                (-1, (0, 3, 0, 1)),
                (-2 * V, (0, 2, 0, 0)),
                (V, (0, 2, 0, 1)),
                (-2, (0, 2, 1, 0)),
                (1, (0, 2, 1, 1)),
                (-1, (0, 1, 0, 0)),
                (-1, (0, 1, 0, 1)),
                (V, (0, 0, 0, 0)),
                (V, (0, 0, 0, 1)),
                (1, (0, 0, 1, 0)),
                (1, (0, 0, 1, 1)),
            ],
            # x3^2 - a^2 (1 - t/4) = 0
            [
                (1, (0, 0, 2, 0)),
                (-A2, (0, 0, 0, 0)),
                (A2 / 4, (0, 0, 0, 1)),
            ],
        ]
    )
    easy = [2.0 + A, math.sqrt(0.5), A]
    hard = [2.0 + A, V + A, A]
    starts = [easy] * (BATCH - 1) + [hard]
    return system, starts


def run_per_path_residuals(system, starts):
    """A plain callable hides ``residual_fleet``: per-path residuals."""
    return track_paths(lambda x, t: system(x, t), system.jacobian, starts, **TRACK)


def run_fleet_residuals(system, starts):
    """The system object itself: one batched evaluation per order."""
    return track_paths(system, starts, **TRACK)


def assert_bitwise_identical(reference, observed):
    """Per-path results must agree limb for limb."""
    assert reference.batch == observed.batch
    for ref, obs in zip(reference.paths, observed.paths):
        assert obs.final_t == ref.final_t
        assert obs.step_count == ref.step_count
        assert obs.precisions_used == ref.precisions_used
        for ref_md, obs_md in zip(ref.final_point, obs.final_point):
            assert ref_md.limbs == obs_md.limbs


def test_fleet_residuals_beat_per_path_loop_on_straggler_fleet():
    system, starts = straggler_fleet()
    with use_backend("generic"):
        per_path = run_per_path_residuals(system, starts)
        with recording(label="straggler fleet (perf-smoke)") as recorder:
            fleet = run_fleet_residuals(system, starts)

        # -- identical arithmetic, different residual evaluation -------
        assert_bitwise_identical(per_path, fleet)

        # -- the straggler story ---------------------------------------
        straggler = fleet.paths[-1]
        assert straggler.reached
        assert straggler.precisions_used == ("2d", "4d", "8d")
        assert straggler.step_count == 1, "straggler must retire in one od stride"
        for path in fleet.paths[:-1]:
            # the benign branch crawls in dd for the whole step budget
            assert path.precisions_used == ("2d",)
            assert path.step_count == TRACK["max_steps"]

        # -- timing: best-of-N full runs of each -----------------------
        per_path_seconds = harness.best_seconds(
            lambda: run_per_path_residuals(system, starts), repeats=2
        )
        fleet_seconds = harness.best_seconds(
            lambda: run_fleet_residuals(system, starts), repeats=2
        )
    speedup = per_path_seconds / fleet_seconds

    harness.record(
        "fleet",
        "straggler_fleet_b32_dd_od",
        telemetry=recorder,
        shape=harness.problem_shape(
            n=3, degree=3, batch=BATCH, order=TRACK["order"]
        ),
        precision_ladder="2d -> 4d -> 8d",
        per_path_residuals_seconds=per_path_seconds,
        fleet_residuals_seconds=fleet_seconds,
        speedup=speedup,
        floor=FLOOR,
        sub_batches=len(fleet.sub_batches),
        occupancy=fleet.occupancy,
        batching_speedup=fleet.batching_speedup,
        straggler_steps=straggler.step_count,
        reached=fleet.reached_count,
    )
    print(
        f"\nstraggler fleet b={BATCH}: per-path residuals "
        f"{per_path_seconds:.2f} s, fleet-wide residuals {fleet_seconds:.2f} s "
        f"({speedup:.2f}x, floor {FLOOR}x), occupancy {fleet.occupancy:.0%}, "
        f"{len(fleet.sub_batches)} sub-batches"
    )
    print(f"  {fleet.summary()}")
    assert speedup >= FLOOR, (
        f"fleet-wide residuals {fleet_seconds:.2f} s vs per-path residuals "
        f"{per_path_seconds:.2f} s: {speedup:.2f}x under the {FLOOR}x floor"
    )


#: Minimum per-path-scalar-loop over batched step-control wall-clock
#: ratio on the recorded cyclic-3 sub-batches (measured 12-19x on a
#: 2-vCPU x86-64 VM; the floor is under half the lowest reading).
STEP_CONTROL_FLOOR = 5.0


def recorded_cyclic3_sub_batches(monkeypatch):
    """Every step-control call of the cyclic-3 fleet, as
    ``(approximants, solution, paths, states, kwargs)`` with the path
    states frozen at the call."""
    recorded = []
    control = fleet_module._control_steps

    def recording_control(approximants, solution, paths, states, **kwargs):
        frozen = [
            SimpleNamespace(t_current=state.t_current, trial_step=state.trial_step)
            for state in states
        ]
        recorded.append((approximants, solution.copy(), paths, frozen, kwargs))
        return control(approximants, solution, paths, states, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(fleet_module, "_control_steps", recording_control)
        Homotopy.total_degree(cyclic(3)).track_fleet(tol=1e-6, order=8, max_steps=24)
    return recorded


def test_batched_step_control_beats_per_path_scalar_loop(monkeypatch):
    sub_batches = recorded_cyclic3_sub_batches(monkeypatch)

    def batched():
        return [
            fleet_module._control_steps(a, s, p, states, **kw)
            for a, s, p, states, kw in sub_batches
        ]

    def scalar():
        return [
            step_control.control_steps(a, s, p, states, **kw)
            for a, s, p, states, kw in sub_batches
        ]

    # -- identical floats first (int64 views: signed zeros count) -------
    for want, got in zip(scalar(), batched()):
        assert np.array_equal(
            np.array(want, dtype=np.float64).view(np.int64),
            np.array(got, dtype=np.float64).view(np.int64),
        )

    scalar_seconds = harness.best_seconds(scalar, repeats=3)
    batched_seconds = harness.best_seconds(batched, repeats=9)
    speedup = scalar_seconds / batched_seconds
    widths = [len(paths) for _, _, paths, _, _ in sub_batches]
    harness.record(
        "fleet",
        "step_control_cyclic3",
        shape=harness.problem_shape(n=6, degree=3, batch=max(widths), order=8),
        scalar_step_control_seconds=scalar_seconds,
        batched_step_control_seconds=batched_seconds,
        speedup=speedup,
        floor=STEP_CONTROL_FLOOR,
        sub_batches=len(sub_batches),
        path_steps=sum(widths),
    )
    print(
        f"\nstep control on {len(sub_batches)} cyclic-3 sub-batches "
        f"({sum(widths)} path attempts): scalar loop {scalar_seconds:.3f} s, "
        f"batched {batched_seconds:.3f} s ({speedup:.2f}x, floor {STEP_CONTROL_FLOOR}x)"
    )
    assert speedup >= STEP_CONTROL_FLOOR, (
        f"batched step control {batched_seconds:.3f} s vs scalar loop "
        f"{scalar_seconds:.3f} s: {speedup:.2f}x under the {STEP_CONTROL_FLOOR}x floor"
    )
