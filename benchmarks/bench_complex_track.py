"""Native complex vs realified homotopy tracking: the backend payoff.

The acceptance contract of the native complex series backend, measured
end to end on the cyclic-3 total-degree fleet at double double:

1. **agreement first** — both backends must find all 6 roots with
   ~1e-16 target residuals, and the per-path endpoints must agree to
   working precision (a speedup over a diverged tracker is worthless);
2. **tracking speedup** — the native backend must track the same fleet
   at least **1.5x** faster than the realified cross-check (measured
   ~2.1x on the development machine).  The win is structural: the
   native ``n``-dimensional complex expansion pays ~4x real arithmetic
   per operation where the realified ``2n``-dimensional detour pays
   ~8x QR flops *and* needs roughly twice the accepted steps (its
   doubled-dimension Padé approximants produce tighter pole caps), so
   the per-step cost stays near parity while each native step advances
   the path twice as far;
3. the per-step costs of both backends are recorded alongside (the
   native step must stay within 1.5x of a realified step — the
   flop-model parity of ``path_fleet_trace(1, ..., complex_data=True)``).

The floor runs in the CI ``perf-smoke`` job (not marked heavy);
results are recorded through :mod:`harness` into
``BENCH_complex.json``.  The heavy sweep extends the comparison to
katsura-2 and the d/dd rungs.
"""

from __future__ import annotations

import pytest

import harness
from repro.poly import Homotopy, cyclic, katsura
from repro.poly.homotopy import extract_complex

#: The acceptance-contract floor: whole-fleet tracking at dd.
TRACK_SPEEDUP_FLOOR = 1.5

#: Sanity cap on the per-step cost of the native backend relative to a
#: realified step (the analytic model predicts near parity at n=3).
STEP_COST_CAP = 1.5

LIMBS = 2  # double double — the headline precision of the contract

TRACK = dict(tol=1e-6, order=8, max_steps=192, precision_ladder=(LIMBS,))


def _endpoints(homotopy, fleet):
    out = []
    for path in fleet.paths:
        if homotopy.backend == "complex":
            out.append([complex(value) for value in path.final_point])
        else:
            out.append(
                [value.as_complex() for value in extract_complex(path.final_point)]
            )
    return out


def _track_fleet(system_factory, backend, seed, **overrides):
    homotopy = Homotopy.total_degree(system_factory, seed=seed, backend=backend)
    options = dict(TRACK)
    options.update(overrides)
    seconds = [0.0]

    def run():
        import time

        start = time.perf_counter()
        fleet = homotopy.track_fleet(**options)
        seconds[0] = time.perf_counter() - start
        return fleet

    fleet = run()
    steps = sum(path.step_count for path in fleet.paths)
    return homotopy, fleet, seconds[0], steps


def test_complex_track_speedup_floor():
    """Acceptance contract: all 6 cyclic-3 roots on both backends with
    agreeing endpoints and ~1e-16 residuals, then >= 1.5x measured
    fleet-tracking speedup for the native backend at dd (measured
    ~2.1x on the development machine) — agreement first."""
    native_h, native_fleet, native_seconds, native_steps = _track_fleet(
        cyclic(3), "complex", seed=7
    )
    real_h, real_fleet, real_seconds, real_steps = _track_fleet(
        cyclic(3), "realified", seed=7
    )

    # -- agreement gate ------------------------------------------------
    assert native_fleet.reached_count == 6 and native_fleet.failed_count == 0
    assert real_fleet.reached_count == 6 and real_fleet.failed_count == 0
    worst_residual = max(
        native_h.target_residual(path.final_point) for path in native_fleet.paths
    )
    assert worst_residual < 1e-12  # ~1e-16 in practice at dd
    worst_agreement = 0.0
    for z_native, z_real in zip(
        _endpoints(native_h, native_fleet), _endpoints(real_h, real_fleet)
    ):
        worst_agreement = max(
            worst_agreement,
            max(abs(a - b) for a, b in zip(z_native, z_real)),
        )
    assert worst_agreement < 1e-8

    # -- measured speedup ---------------------------------------------
    speedup = real_seconds / native_seconds
    native_per_step = native_seconds / native_steps
    real_per_step = real_seconds / real_steps
    step_cost_ratio = native_per_step / real_per_step

    harness.record(
        "complex",
        f"cyclic3_fleet_{LIMBS}d",
        shape=harness.problem_shape(
            n=3, degree=3, batch=6, order=TRACK["order"]
        ),
        limbs=LIMBS,
        native_seconds=native_seconds,
        realified_seconds=real_seconds,
        native_steps=native_steps,
        realified_steps=real_steps,
        native_seconds_per_step=native_per_step,
        realified_seconds_per_step=real_per_step,
        step_cost_ratio=step_cost_ratio,
        speedup=speedup,
        floor=TRACK_SPEEDUP_FLOOR,
        worst_residual=worst_residual,
        worst_endpoint_agreement=worst_agreement,
    )
    print(
        f"\ncyclic-3 dd fleet: native {native_seconds:.2f} s / {native_steps} steps, "
        f"realified {real_seconds:.2f} s / {real_steps} steps, "
        f"speedup {speedup:.2f}x (per-step cost ratio {step_cost_ratio:.2f})"
    )
    assert speedup >= TRACK_SPEEDUP_FLOOR
    assert step_cost_ratio <= STEP_COST_CAP


@pytest.mark.heavy
@pytest.mark.parametrize("limbs", [1, 2], ids=["1d", "2d"])
def test_katsura2_backends_agree_and_native_wins(limbs):
    """The sweep leg: katsura-2 across the d/dd rungs — endpoints agree
    and the native backend does not lose (recorded, no hard floor: at
    n=3 the structural step advantage is smaller than on cyclic-3)."""
    native_h, native_fleet, native_seconds, native_steps = _track_fleet(
        katsura(2), "complex", seed=11, precision_ladder=(limbs,), max_steps=96
    )
    real_h, real_fleet, real_seconds, real_steps = _track_fleet(
        katsura(2), "realified", seed=11, precision_ladder=(limbs,), max_steps=96
    )
    assert native_fleet.reached_count == real_fleet.reached_count == 4
    for z_native, z_real in zip(
        _endpoints(native_h, native_fleet), _endpoints(real_h, real_fleet)
    ):
        assert max(abs(a - b) for a, b in zip(z_native, z_real)) < 1e-6
    harness.record(
        "complex",
        f"katsura2_fleet_{limbs}d",
        shape=harness.problem_shape(n=3, degree=2, batch=4, order=TRACK["order"]),
        limbs=limbs,
        native_seconds=native_seconds,
        realified_seconds=real_seconds,
        native_steps=native_steps,
        realified_steps=real_steps,
        speedup=real_seconds / native_seconds,
    )
    assert real_seconds / native_seconds > 1.0
