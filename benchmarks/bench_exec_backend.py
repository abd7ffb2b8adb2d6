"""Fused-vs-generic execution backend: bit identity first, then floors.

The contract of :mod:`repro.exec` is measured here in the order that
matters: the ``fused`` backend must produce **bitwise identical**
results to the ``generic`` reference on every workload below (a speedup
over different bits is worthless), and only then do the timing floors
apply.

The floors are set where each layer's ceiling actually is on a CPU
host.  The fused backend eliminates allocator churn and keeps the EFT
chains' working set L2-resident, so its big win is on wide elementwise
limb launches — the shape of a real GPU kernel — where it clears
**1.5x** with margin (measured 1.6-3.6x here).  The composite workloads (Cauchy
products, batched QR, shared-monomial evaluation) spend a growing
fraction of their time in backend-independent Python driver code
(`repro.vec.linalg`, `repro.batch.qr`, `repro.poly`), so their honest
fused-vs-generic floors are lower; they are asserted as
no-regression-plus-margin floors and the measured speedups are
recorded to ``BENCH_exec.json`` so the trajectory across PRs is
visible.  A CuPy-module backend moves the whole EFT chain off-host,
which lifts exactly the composite workloads these conservative floors
guard.

The one-limb kernels (:mod:`repro.exec.onelimb`) get their own floor:
a d launch run as plain IEEE double arithmetic against the
:mod:`repro.md.generic` tuple path every d launch took before, bitwise
identity asserted first, at least **3x** on 64- and 4096-element
launches.

Narrow launches get floors too, on one-element planes like the QR's
norms and betas, where the fused backend replays :mod:`repro.md.generic`
on Python floats (:mod:`repro.exec.narrow`) instead of running a fused
kernel: od ``mul`` and qd ``sqrt`` (the Householder norm), each at
least **5x** over ``generic``.

All assertions run in the CI ``perf-smoke`` job; records land in
``BENCH_exec.json`` through :mod:`harness`.
"""

from __future__ import annotations

import numpy as np
import pytest

import harness
from repro.batch import batched_blocked_qr
from repro.exec import FusedBackend, GenericBackend, onelimb, use_backend
from repro.md import generic as mdgeneric
from repro.poly import katsura
from repro.vec import batched as vb
from repro.vec import random as mdrandom
from repro.vec.linalg import cauchy_product
from repro.vec.mdarray import MDArray

#: Floor for the raw fused limb kernels at GPU-like launch widths.
#: Measured 1.6-3.6x depending on host allocator state; asserted at
#: the conservative end so the floor survives noisy CI runners.
ELEMENTWISE_SPEEDUP_FLOOR = 1.5

#: Floors for the composite drivers (shared Python control flow caps
#: them on the host; see the module docstring).
CAUCHY_SPEEDUP_FLOOR = 1.2
QR_SPEEDUP_FLOOR = 0.9
POLY_SPEEDUP_FLOOR = 0.85

#: Floor for one-limb d launches over the md.generic tuple path.
ONE_LIMB_SPEEDUP_FLOOR = 3.0

#: Floor for od launches on a one-element plane, fused over generic
#: (measured on a 2-vCPU Xeon VM: 2.8-2.9x with one add per head-chain
#: term, 8.7-9.0x with one scan per chain, 13-16x with the replay).
NARROW_OD_SPEEDUP_FLOOR = 5.0

#: Floor for the Householder norm, a qd ``sqrt`` on a one-element
#: plane, fused over generic (measured on a 2-vCPU Xeon VM: 2.8-3.1x
#: with the fused kernel, 11-15x with the replay).
NARROW_SQRT_SPEEDUP_FLOOR = 5.0

LIMBS = 2  # double double — the paper's headline precision

ELEMENTWISE_N = 262144
CAUCHY_BATCH, CAUCHY_ORDER = 256, 32
QR_BATCH, QR_DIM, QR_TILE = 32, 8, 4
ONE_LIMB_SIZES = (64, 4096)
ONE_LIMB_CALLS = 200  # launches per timed repeat
NARROW_OD_LIMBS, NARROW_OD_CALLS = 8, 20
NARROW_SQRT_LIMBS, NARROW_SQRT_CALLS = 4, 5


def _dd_stack(shape, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((LIMBS, *shape))
    for k in range(1, LIMBS):
        data[k] = data[k - 1] * 2.0**-53 * rng.standard_normal(shape)
    return data


def _identical(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# bit identity — the oracle, asserted before any timing
# ---------------------------------------------------------------------------


def test_exec_bit_identity_cauchy():
    """Batched dd Cauchy products: fused == generic, every bit."""
    a = MDArray(_dd_stack((CAUCHY_BATCH, CAUCHY_ORDER + 1), 1))
    b = MDArray(_dd_stack((CAUCHY_BATCH, CAUCHY_ORDER + 1), 2))
    with use_backend("generic"):
        reference = cauchy_product(a, b)
    with use_backend("fused"):
        fused = cauchy_product(a, b)
    assert _identical(reference.data, fused.data)


def test_exec_bit_identity_batched_qr():
    """Batched dd QR: identical Q and R factors under both backends."""
    matrices = vb.stack(
        [
            mdrandom.random_matrix(QR_DIM, QR_DIM, LIMBS, np.random.default_rng(s))
            for s in range(QR_BATCH)
        ]
    )
    with use_backend("generic"):
        reference = batched_blocked_qr(matrices, QR_TILE)
    with use_backend("fused"):
        fused = batched_blocked_qr(matrices, QR_TILE)
    assert _identical(reference.Q.data, fused.Q.data)
    assert _identical(reference.R.data, fused.R.data)


def test_exec_bit_identity_katsura_eval_jacobian():
    """katsura-8 shared-monomial evaluation + Jacobian at dd."""
    system = katsura(8)
    point = MDArray(_dd_stack((system.variables,), 3))
    with use_backend("generic"):
        ref_values, ref_jacobian = system.evaluate_with_jacobian(point, LIMBS)
    with use_backend("fused"):
        fus_values, fus_jacobian = system.evaluate_with_jacobian(point, LIMBS)
    assert _identical(ref_values.data, fus_values.data)
    assert _identical(ref_jacobian.data, fus_jacobian.data)


# ---------------------------------------------------------------------------
# timing floors — recorded to BENCH_exec.json
# ---------------------------------------------------------------------------


def _record_speedup(entry, generic_seconds, fused_seconds, floor, **shape):
    speedup = generic_seconds / fused_seconds
    harness.record(
        "exec",
        entry,
        shape=harness.problem_shape(**shape),
        limbs=LIMBS,
        generic_seconds=generic_seconds,
        fused_seconds=fused_seconds,
        speedup=speedup,
        floor=floor,
    )
    return speedup


@pytest.mark.parametrize("op", ["add", "mul"])
def test_exec_fused_elementwise_floor(op):
    """The raw limb kernels at a GPU-like launch width: >= 1.5x
    (measured 1.6-3.6x) — this is where fusing the EFT chain through
    the scratch arena pays on the host."""
    x = _dd_stack((ELEMENTWISE_N,), 10)
    y = _dd_stack((ELEMENTWISE_N,), 11)
    generic, fused = GenericBackend(), FusedBackend()
    assert _identical(getattr(generic, op)(x, y), getattr(fused, op)(x, y))

    # interleaved repeats, each side's best: a busy stretch of a shared
    # runner then slows both sides, not every repeat of one of them
    times = [
        (
            harness.best_seconds(lambda: getattr(generic, op)(x, y), 1),
            harness.best_seconds(lambda: getattr(fused, op)(x, y), 1),
        )
        for _ in range(7)
    ]
    generic_seconds = min(pair[0] for pair in times)
    fused_seconds = min(pair[1] for pair in times)
    speedup = _record_speedup(
        f"elementwise_{op}_dd_n{ELEMENTWISE_N}",
        generic_seconds,
        fused_seconds,
        ELEMENTWISE_SPEEDUP_FLOOR,
        n=ELEMENTWISE_N,
    )
    print(
        f"\ndd {op} n={ELEMENTWISE_N}: generic {generic_seconds * 1e3:.2f} ms, "
        f"fused {fused_seconds * 1e3:.2f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= ELEMENTWISE_SPEEDUP_FLOOR


def test_exec_fused_cauchy_floor():
    """Batched dd Cauchy products (b=256, K=32): >= 1.2x (measured
    1.5-1.8x; the gather + pairwise reduction dominate, the per-level
    Python driver is shared)."""
    a = MDArray(_dd_stack((CAUCHY_BATCH, CAUCHY_ORDER + 1), 20))
    b = MDArray(_dd_stack((CAUCHY_BATCH, CAUCHY_ORDER + 1), 21))
    with use_backend("generic"):
        generic_seconds = harness.best_seconds(lambda: cauchy_product(a, b), repeats=5)
    with use_backend("fused"):
        fused_seconds = harness.best_seconds(lambda: cauchy_product(a, b), repeats=5)
    speedup = _record_speedup(
        f"cauchy_dd_b{CAUCHY_BATCH}_k{CAUCHY_ORDER}",
        generic_seconds,
        fused_seconds,
        CAUCHY_SPEEDUP_FLOOR,
        batch=CAUCHY_BATCH,
        order=CAUCHY_ORDER,
    )
    print(
        f"\ncauchy dd b={CAUCHY_BATCH} K={CAUCHY_ORDER}: "
        f"generic {generic_seconds * 1e3:.1f} ms, fused {fused_seconds * 1e3:.1f} ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= CAUCHY_SPEEDUP_FLOOR


def test_exec_fused_batched_qr_floor():
    """Batched dd QR (b=32, n=8): no regression (measured 1.1-1.4x;
    the blocked-QR driver's per-column control flow is shared, so the
    fused margin here is what the small per-launch planes allow)."""
    matrices = vb.stack(
        [
            mdrandom.random_matrix(QR_DIM, QR_DIM, LIMBS, np.random.default_rng(s))
            for s in range(QR_BATCH)
        ]
    )
    with use_backend("generic"):
        generic_seconds = harness.best_seconds(
            lambda: batched_blocked_qr(matrices, QR_TILE), repeats=5
        )
    with use_backend("fused"):
        fused_seconds = harness.best_seconds(
            lambda: batched_blocked_qr(matrices, QR_TILE), repeats=5
        )
    speedup = _record_speedup(
        f"batched_qr_dd_b{QR_BATCH}_n{QR_DIM}",
        generic_seconds,
        fused_seconds,
        QR_SPEEDUP_FLOOR,
        n=QR_DIM,
        batch=QR_BATCH,
    )
    print(
        f"\nbatched QR dd b={QR_BATCH} n={QR_DIM}: "
        f"generic {generic_seconds * 1e3:.1f} ms, fused {fused_seconds * 1e3:.1f} ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= QR_SPEEDUP_FLOOR


def test_exec_fused_katsura_floor():
    """katsura-8 evaluation + Jacobian at dd: no regression (measured
    ~1.1x; per-term planes are tiny, the shared-monomial driver
    dominates)."""
    system = katsura(8)
    point = MDArray(_dd_stack((system.variables,), 30))
    with use_backend("generic"):
        generic_seconds = harness.best_seconds(
            lambda: system.evaluate_with_jacobian(point, LIMBS), repeats=7
        )
    with use_backend("fused"):
        fused_seconds = harness.best_seconds(
            lambda: system.evaluate_with_jacobian(point, LIMBS), repeats=7
        )
    speedup = _record_speedup(
        "poly_eval_jacobian_dd_katsura8",
        generic_seconds,
        fused_seconds,
        POLY_SPEEDUP_FLOOR,
        n=system.variables,
        degree=system.max_degree,
    )
    print(
        f"\nkatsura-8 eval+jacobian dd: generic {generic_seconds * 1e3:.2f} ms, "
        f"fused {fused_seconds * 1e3:.2f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= POLY_SPEEDUP_FLOOR


def _tuple_path(op, x, y):
    """A d launch as every one ran before the one-limb kernels: the
    expansion arithmetic of md.generic on limb tuples, restacked."""
    limbs = getattr(mdgeneric, op)(tuple(x), tuple(y), 1)
    return np.stack(np.broadcast_arrays(*limbs), axis=0)


@pytest.mark.parametrize("n", ONE_LIMB_SIZES)
@pytest.mark.parametrize("op", ["add", "mul"])
def test_exec_one_limb_floor(op, n):
    """d ``add``/``mul`` through the backend (the one-limb kernels)
    against the md.generic tuple path: >= 3x."""
    x, y = np.random.default_rng(40 + n).standard_normal((2, 1, n))
    kernel = getattr(GenericBackend(), op)
    assert getattr(onelimb, op)(x, y, 1) is not None  # runs one-limb
    assert np.array_equal(
        kernel(x, y).view(np.int64), _tuple_path(op, x, y).view(np.int64)
    )

    calls = range(ONE_LIMB_CALLS)
    tuple_seconds = harness.best_seconds(
        lambda: [_tuple_path(op, x, y) for _ in calls], repeats=5
    )
    onelimb_seconds = harness.best_seconds(lambda: [kernel(x, y) for _ in calls], repeats=5)
    speedup = tuple_seconds / onelimb_seconds
    harness.record(
        "exec",
        f"onelimb_{op}_d_n{n}",
        shape=harness.problem_shape(n=n),
        limbs=1,
        calls=ONE_LIMB_CALLS,
        tuple_seconds=tuple_seconds,
        onelimb_seconds=onelimb_seconds,
        speedup=speedup,
        floor=ONE_LIMB_SPEEDUP_FLOOR,
    )
    print(
        f"\nd {op} n={n} x{ONE_LIMB_CALLS}: tuple path {tuple_seconds * 1e3:.2f} ms, "
        f"one-limb {onelimb_seconds * 1e3:.2f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= ONE_LIMB_SPEEDUP_FLOOR


def _narrow_floor(op, limbs, calls, floor, positive=False):
    """``op`` on a one-element plane ``(limbs, 1)``, in batches of
    ``calls`` launches: bit identity first, then interleaved generic and
    fused batches, each side's best; records the entry and returns the
    speedup."""
    rng = np.random.default_rng(50)
    x, y = rng.standard_normal((2, limbs, 1))
    if positive:
        x[0] = np.abs(x[0]) + 0.5
    for k in range(1, limbs):  # normalized expansions
        x[k] = x[k - 1] * 2.0**-53 * rng.standard_normal(1)
        y[k] = y[k - 1] * 2.0**-53 * rng.standard_normal(1)
    operands = (x, y) if op in ("add", "sub", "mul", "div") else (x,)
    generic, fused = getattr(GenericBackend(), op), getattr(FusedBackend(), op)
    assert np.array_equal(
        fused(*operands).view(np.int64), generic(*operands).view(np.int64)
    )

    batch = range(calls)

    def generic_batch():
        return [generic(*operands) for _ in batch]

    def fused_batch():
        return [fused(*operands) for _ in batch]

    # interleaved repeats: a busy stretch of a shared runner then slows
    # both sides, not every repeat of the few-ms fused batch
    times = [
        (harness.best_seconds(generic_batch, 1), harness.best_seconds(fused_batch, 1))
        for _ in range(15)
    ]
    generic_seconds = min(pair[0] for pair in times)
    fused_seconds = min(pair[1] for pair in times)
    speedup = generic_seconds / fused_seconds
    name = {2: "dd", 4: "qd", 8: "od"}[limbs]
    harness.record(
        "exec",
        f"narrow_{op}_{name}_n1_x{calls}",
        shape=harness.problem_shape(n=1),
        limbs=limbs,
        calls=calls,
        generic_seconds=generic_seconds,
        fused_seconds=fused_seconds,
        speedup=speedup,
        floor=floor,
    )
    print(
        f"\n{name} {op} n=1 x{calls}: generic {generic_seconds * 1e3:.2f} ms, "
        f"fused {fused_seconds * 1e3:.2f} ms, speedup {speedup:.2f}x"
    )
    return speedup


def test_exec_fused_narrow_od_floor():
    """od ``mul`` on a one-element plane ``(8, 1)``, in batches of
    ``NARROW_OD_CALLS`` launches: fused >= 5x generic.  At this width
    the fused backend replays md.generic on Python floats; call overhead
    is the whole cost of the fused kernel here, so the floor fails if
    the launch goes back to that kernel with one NumPy add per
    head-chain term."""
    speedup = _narrow_floor("mul", NARROW_OD_LIMBS, NARROW_OD_CALLS, NARROW_OD_SPEEDUP_FLOOR)
    assert speedup >= NARROW_OD_SPEEDUP_FLOOR


def test_exec_fused_narrow_sqrt_floor():
    """qd ``sqrt`` on a one-element plane ``(4, 1)``, the Householder
    norm, in batches of ``NARROW_SQRT_CALLS`` launches: fused >= 5x
    generic.  The fused kernel reads about 3x here, so the floor fails
    unless the narrow replay takes the launch."""
    speedup = _narrow_floor(
        "sqrt", NARROW_SQRT_LIMBS, NARROW_SQRT_CALLS, NARROW_SQRT_SPEEDUP_FLOOR,
        positive=True,
    )
    assert speedup >= NARROW_SQRT_SPEEDUP_FLOOR
