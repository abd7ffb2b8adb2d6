"""Batched-vs-looped throughput: the payoff of the ``repro.batch`` layer.

The acceptance contract of the batched execution layer is measured
here: a batch of ``b = 32`` small QR factorizations at double double
precision must run at least **5×** faster through
:func:`repro.batch.qr.batched_blocked_qr` (one vectorized limb launch
sequence for the whole batch) than through a Python loop over
:func:`repro.core.blocked_qr.blocked_qr` — each call a batch of one —
while producing **bit-identical** factors, which is asserted before any
timing (a speedup over a wrong kernel is worthless).  Since the loop
runs the same batched driver, that identity checks batch independence;
the tests pin both against the unbatched oracle
``tests/oracles/dense.py``.

All floor assertions run in the CI ``perf-smoke`` job (they are *not*
marked heavy, so ``--quick`` keeps them); the parametrized
pytest-benchmark sweeps are heavy.  Every measured floor is recorded
through :mod:`harness` into ``BENCH_batch.json`` (timings, speedups,
flop tallies, git SHA) so the throughput trajectory is tracked across
PRs.
"""

from __future__ import annotations

import numpy as np
import pytest

import harness
from repro.batch import batched_blocked_qr, batched_least_squares
from repro.core.blocked_qr import blocked_qr
from repro.core.least_squares import lstsq
from repro.perf.costmodel import batched_lstsq_trace, batched_qr_trace, qr_trace
from repro.vec import batched as vb
from repro.vec import random as mdrandom

#: The acceptance-contract floor: batched QR at b=32, dd, vs a loop.
QR_SPEEDUP_FLOOR = 5.0

#: Floor for the combined least squares solver (same batching win).
LSTSQ_SPEEDUP_FLOOR = 5.0

BATCH = 32
DIM = 8
TILE = 4
LIMBS = 2  # double double — the headline precision of the contract


def _random_batch(rows, cols, limbs, count, seed=20220320):
    rng = np.random.default_rng(seed)
    return [mdrandom.random_matrix(rows, cols, limbs, rng) for _ in range(count)]


def test_batched_qr_throughput_floor():
    """Acceptance contract: >= 5x at b=32, dd, vs looped ``blocked_qr``
    — with bit-identical factors (measured 15-19x on the development
    machine)."""
    matrices = _random_batch(DIM, DIM, LIMBS, BATCH)
    stacked = vb.stack(matrices)

    # identical bits first
    batched = batched_blocked_qr(stacked, TILE)
    for index, matrix in enumerate(matrices):
        reference = blocked_qr(matrix, TILE)
        assert np.array_equal(batched.Q.data[:, index], reference.Q.data)
        assert np.array_equal(batched.R.data[:, index], reference.R.data)

    loop_seconds = harness.best_seconds(
        lambda: [blocked_qr(matrix, TILE) for matrix in matrices], repeats=3
    )
    batched_seconds = harness.best_seconds(
        lambda: batched_blocked_qr(stacked, TILE), repeats=5
    )
    speedup = loop_seconds / batched_seconds

    model = batched_qr_trace(BATCH, DIM, DIM, TILE, LIMBS)
    harness.record(
        "batch",
        f"qr_b{BATCH}_dim{DIM}_{LIMBS}d",
        shape=harness.problem_shape(n=DIM, batch=BATCH),
        batch=BATCH,
        dim=DIM,
        tile=TILE,
        limbs=LIMBS,
        loop_seconds=loop_seconds,
        batched_seconds=batched_seconds,
        speedup=speedup,
        floor=QR_SPEEDUP_FLOOR,
        md_flops=model.total_flops(),
        launches=model.kernel_launch_count,
        launches_looped=BATCH * qr_trace(DIM, DIM, TILE, LIMBS).kernel_launch_count,
    )
    print(
        f"\nb={BATCH} dim={DIM} dd QR: loop {loop_seconds * 1e3:.1f} ms, "
        f"batched {batched_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= QR_SPEEDUP_FLOOR


def test_batched_lstsq_throughput_floor():
    """The combined QR + back substitution solver batches just as well."""
    matrices = _random_batch(DIM + 2, DIM, LIMBS, BATCH)
    rng = np.random.default_rng(42)
    rhs = [mdrandom.random_vector(DIM + 2, LIMBS, rng) for _ in range(BATCH)]
    stacked = vb.stack(matrices)
    stacked_rhs = vb.stack(rhs)

    batched = batched_least_squares(stacked, stacked_rhs, tile_size=TILE)
    for index in range(BATCH):
        reference = lstsq(matrices[index], rhs[index], tile_size=TILE)
        assert np.array_equal(batched.x.data[:, index], reference.x.data)

    loop_seconds = harness.best_seconds(
        lambda: [
            lstsq(matrices[i], rhs[i], tile_size=TILE) for i in range(BATCH)
        ],
        repeats=3,
    )
    batched_seconds = harness.best_seconds(
        lambda: batched_least_squares(stacked, stacked_rhs, tile_size=TILE),
        repeats=5,
    )
    speedup = loop_seconds / batched_seconds

    qr_model, bs_model = batched_lstsq_trace(BATCH, DIM + 2, DIM, TILE, LIMBS)
    harness.record(
        "batch",
        f"lstsq_b{BATCH}_{DIM + 2}x{DIM}_{LIMBS}d",
        shape=harness.problem_shape(n=DIM, batch=BATCH, rows=DIM + 2),
        batch=BATCH,
        rows=DIM + 2,
        cols=DIM,
        tile=TILE,
        limbs=LIMBS,
        loop_seconds=loop_seconds,
        batched_seconds=batched_seconds,
        speedup=speedup,
        floor=LSTSQ_SPEEDUP_FLOOR,
        md_flops=qr_model.total_flops() + bs_model.total_flops(),
        launches=qr_model.kernel_launch_count + bs_model.kernel_launch_count,
    )
    print(
        f"\nb={BATCH} {DIM + 2}x{DIM} dd lstsq: loop {loop_seconds * 1e3:.1f} ms, "
        f"batched {batched_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= LSTSQ_SPEEDUP_FLOOR


def test_launch_count_flat_in_batch_size():
    """The batching contract on the launch records themselves: launches
    flat in b, flops linear in b."""
    base = qr_trace(DIM, DIM, TILE, LIMBS)
    for batch in (1, 4, 32):
        model = batched_qr_trace(batch, DIM, DIM, TILE, LIMBS)
        assert model.kernel_launch_count == base.kernel_launch_count
        assert model.total_flops() == pytest.approx(batch * base.total_flops())


@pytest.mark.heavy
@pytest.mark.parametrize("limbs", [2, 4], ids=["2d", "4d"])
@pytest.mark.parametrize("batch", [8, 32])
def test_batched_qr_sweep(benchmark, batch, limbs):
    """Timing sweep of the batched QR over batch size x precision."""
    matrices = _random_batch(DIM, DIM, limbs, batch)
    stacked = vb.stack(matrices)
    result = benchmark(lambda: batched_blocked_qr(stacked, TILE))
    assert result.batch == batch
    model = batched_qr_trace(batch, DIM, DIM, TILE, limbs)
    benchmark.extra_info["md_flops"] = model.total_flops()
    benchmark.extra_info["launches"] = model.kernel_launch_count


@pytest.mark.heavy
@pytest.mark.parametrize("batch", [8, 32])
def test_looped_qr_sweep(benchmark, batch):
    """The loop baseline of the sweep (dd), for the comparison row."""
    matrices = _random_batch(DIM, DIM, LIMBS, batch)
    results = benchmark(lambda: [blocked_qr(m, TILE) for m in matrices])
    assert len(results) == batch
