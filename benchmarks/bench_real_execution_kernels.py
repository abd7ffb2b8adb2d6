"""Real execution of the multiple double kernels (host, reduced sizes).

Unlike the table benchmarks (which use the analytic cost model at the
paper's dimensions), these benchmarks genuinely execute the vectorized
limb-major arithmetic, so they measure this library's host-side
throughput and verify that the relative cost of the precisions follows
the operation counts.

Measurements go through the shared :mod:`harness` into
``BENCH_kernels.json`` (suite ``kernels``) — the same committed,
git-SHA-stamped record the floor benchmarks use — so the per-precision
throughput of the real kernels is tracked across PRs instead of living
only in transient pytest-benchmark output.  The ``environment`` block
of each entry names the active :mod:`repro.exec` backend the numbers
were measured under.

The paper's question, what each doubling of the precision costs, is
tracked at one dimension: ``blocked_qr`` at n=24 in dd, qd and od,
recorded as the measured ``qd_over_dd`` and ``od_over_qd`` factors next
to the V100 cost model's and the paper's operation-count predictions
(Table 4).  It has no floor.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import harness
from repro.core import blocked_qr, lstsq, tiled_back_substitution
from repro.perf.model import PerformanceModel
from repro.perf.paper_data import PREDICTED_OVERHEAD_FACTORS
from repro.vec import linalg
from repro.vec import random as mdrandom

#: The fixed-dimension QR of the overhead factors, and its repeats.
OVERHEAD_DIM, OVERHEAD_TILE, OVERHEAD_REPEATS = 24, 8, 3


def _record(entry, seconds, **shape):
    harness.record(
        "kernels",
        entry,
        shape=harness.problem_shape(**shape),
        seconds=seconds,
    )


@pytest.mark.parametrize("limbs,dim", [(2, 48), (4, 24), (8, 12)])
def test_real_matmul(limbs, dim):
    rng = np.random.default_rng(7)
    a = mdrandom.random_matrix(dim, dim, limbs, rng)
    b = mdrandom.random_matrix(dim, dim, limbs, rng)
    result = linalg.matmul(a, b)
    assert result.shape == (dim, dim)
    seconds = harness.best_seconds(lambda: linalg.matmul(a, b), repeats=3)
    _record(f"matmul_{limbs}d_n{dim}", seconds, n=dim, limbs=limbs)


@pytest.mark.parametrize("limbs,dim", [(2, 128), (4, 64), (8, 32)])
def test_real_matvec(limbs, dim):
    rng = np.random.default_rng(8)
    a = mdrandom.random_matrix(dim, dim, limbs, rng)
    x = mdrandom.random_vector(dim, limbs, rng)
    result = linalg.matvec(a, x)
    assert result.shape == (dim,)
    seconds = harness.best_seconds(lambda: linalg.matvec(a, x), repeats=3)
    _record(f"matvec_{limbs}d_n{dim}", seconds, n=dim, limbs=limbs)


@pytest.mark.parametrize("limbs,dim,tile", [(2, 48, 12), (4, 24, 6)])
def test_real_blocked_qr(limbs, dim, tile):
    rng = np.random.default_rng(9)
    a = mdrandom.random_matrix(dim, dim, limbs, rng)
    seconds = harness.best_seconds(lambda: blocked_qr(a, tile), repeats=1)
    result = blocked_qr(a, tile)
    orth = linalg.matmul(linalg.conjugate_transpose(result.Q), result.Q)
    assert np.max(np.abs(orth.to_double() - np.eye(dim))) < dim * 2.0 ** (-48 * limbs)
    _record(f"blocked_qr_{limbs}d_n{dim}", seconds, n=dim, limbs=limbs, tile=tile)


@pytest.mark.parametrize("limbs,dim,tile", [(2, 96, 16), (4, 48, 12)])
def test_real_back_substitution(limbs, dim, tile):
    rng = np.random.default_rng(10)
    u = mdrandom.random_well_conditioned_upper_triangular(dim, limbs, rng)
    b = mdrandom.random_vector(dim, limbs, rng)
    seconds = harness.best_seconds(
        lambda: tiled_back_substitution(u, b, tile), repeats=1
    )
    result = tiled_back_substitution(u, b, tile)
    assert linalg.residual_norm(u, result.x, b) < dim * 2.0 ** (-48 * limbs)
    _record(
        f"back_substitution_{limbs}d_n{dim}", seconds, n=dim, limbs=limbs, tile=tile
    )


@pytest.mark.parametrize("limbs,dim,tile", [(2, 40, 10), (4, 24, 6)])
def test_real_least_squares(limbs, dim, tile):
    rng = np.random.default_rng(11)
    a, b = mdrandom.random_lstsq_problem(dim, dim, limbs, rng)
    seconds = harness.best_seconds(lambda: lstsq(a, b, tile_size=tile), repeats=1)
    result = lstsq(a, b, tile_size=tile)
    assert result.residual_norm(a, b) < dim * 2.0 ** (-48 * limbs)
    _record(f"lstsq_{limbs}d_n{dim}", seconds, n=dim, limbs=limbs, tile=tile)


def test_real_blocked_qr_overhead_factors():
    """``blocked_qr`` at n=24 (tile 8) in dd, qd and od: the cost of each
    doubling of the precision at one dimension.  The e2e
    ``overhead.qd_over_dd`` divides qd n=48 by dd n=224, which mixes
    launch size with precision; here only the precision changes.  The
    measured factors are recorded next to the V100 model's (the same
    launches priced by :class:`PerformanceModel`) and the paper's
    operation-count predictions, 11.7 and 5.4; none is asserted."""
    rng = np.random.default_rng(12)
    names = {2: "dd", 4: "qd", 8: "od"}
    matrices = {
        limbs: mdrandom.random_matrix(OVERHEAD_DIM, OVERHEAD_DIM, limbs, rng)
        for limbs in names
    }
    model = PerformanceModel("V100")
    model_ms = {}
    for limbs, a in matrices.items():
        trace = blocked_qr(a, OVERHEAD_TILE).trace
        model_ms[limbs] = sum(model.kernel_time_ms(launch) for launch in trace.launches)
    # interleaved repeats, each precision's best: a busy stretch of a
    # shared machine then slows every precision, not one of them
    seconds = dict.fromkeys(names, math.inf)
    for _ in range(OVERHEAD_REPEATS):
        for limbs, a in matrices.items():
            elapsed = harness.best_seconds(lambda a=a: blocked_qr(a, OVERHEAD_TILE), 1)
            seconds[limbs] = min(seconds[limbs], elapsed)
    factors = {
        "qd_over_dd": seconds[4] / seconds[2],
        "od_over_qd": seconds[8] / seconds[4],
        "model_qd_over_dd": model_ms[4] / model_ms[2],
        "model_od_over_qd": model_ms[8] / model_ms[4],
        "paper_qd_over_dd": PREDICTED_OVERHEAD_FACTORS["2d->4d"],
        "paper_od_over_qd": PREDICTED_OVERHEAD_FACTORS["4d->8d"],
    }
    harness.record(
        "kernels",
        f"blocked_qr_overhead_n{OVERHEAD_DIM}",
        shape=harness.problem_shape(n=OVERHEAD_DIM, tile=OVERHEAD_TILE),
        repeats=OVERHEAD_REPEATS,
        **{f"{names[limbs]}_seconds": value for limbs, value in seconds.items()},
        **factors,
    )
    print(
        f"\nblocked_qr n={OVERHEAD_DIM}: "
        + ", ".join(f"{names[k]} {v:.3f} s" for k, v in seconds.items())
        + "; "
        + ", ".join(f"{k} {v:.2f}" for k, v in factors.items())
    )
