"""Series operation counts and the series cost-model traces.

The series drivers record the analytic cost model's traces, so their
traces and the model's are both compared with an independent
description: the records of the test oracles (``tests/oracles/series.py``
for the Newton staircase and Padé, and for the matrix series solve,
which no oracle runs, a trace assembled from the dense oracle's QR,
``Q^H b`` and back substitution records).  The comparison is exact,
launch for launch and field by field.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import stages
from repro.core.least_squares import STAGE_APPLY_QT, resolve_tile_sizes
from repro.gpu.kernel import KernelTrace
from repro.gpu.memory import md_bytes
from repro.md import MultiDouble, PAPER_TABLE1
from repro.md.opcounts import (
    SERIES_OPERATIONS,
    pairwise_addition_count,
    series_cost_table,
    series_counts,
    series_flops,
    series_launches,
    series_newton_orders,
)
from repro.perf.costmodel import (
    matrix_series_trace,
    newton_series_trace,
    pade_trace,
    path_fleet_trace,
)
from repro.perf.model import PerformanceModel
from repro.series import (
    TruncatedSeries,
    newton_series,
    pade,
    solve_matrix_series,
)
from repro.vec import MDArray
from repro.vec import random as mdrandom
from repro.vec.complexmd import MDComplexArray

from ..oracles import dense
from ..oracles import series as series_oracle
from ..oracles.dense import launch_records


# ---------------------------------------------------------------------------
# repro.md.opcounts series entries
# ---------------------------------------------------------------------------

def test_newton_order_schedule():
    assert series_newton_orders(0) == ()
    assert series_newton_orders(1) == (1,)
    assert series_newton_orders(5) == (1, 3, 5)
    assert series_newton_orders(8) == (1, 3, 7, 8)
    assert series_newton_orders(15) == (1, 3, 7, 15)


def test_elementwise_counts_closed_forms():
    assert series_counts("add", 7).add == 8
    assert series_counts("sub", 7).sub == 8
    assert series_counts("scale", 7).mul == 8
    # the batched Cauchy product executes the full (K+1)^2 product grid
    # and one zero-padded pairwise reduction of length K+1 per output
    mul = series_counts("mul", 7)
    assert mul.mul == 8 * 8
    assert mul.add == 8 * pairwise_addition_count(8)
    assert pairwise_addition_count(8) == 4 + 2 + 1
    assert pairwise_addition_count(9) == 5 + 3 + 2 + 1


def test_launch_counts_follow_the_batched_structure():
    # elementwise operations are a single vectorized launch each
    for operation in ("add", "sub", "scale"):
        assert series_launches(operation, 7) == 1
    # the Cauchy product: one product-grid launch + log2(K+1) reduction levels
    assert series_launches("mul", 7) == 1 + 3
    assert series_launches("mul", 31) == 1 + 5
    # launches grow logarithmically while operations grow quadratically
    ops_ratio = series_counts("mul", 63).md_operations / series_counts("mul", 7).md_operations
    launch_ratio = series_launches("mul", 63) / series_launches("mul", 7)
    assert ops_ratio > 30
    assert launch_ratio < 2


def test_reciprocal_counts_follow_the_newton_schedule():
    # order 0: just the exact head division
    base = series_counts("reciprocal", 0)
    assert (base.add, base.sub, base.mul, base.div) == (0, 0, 0, 1)
    # order 1: one pass at order 1 (two muls of order 1, one 2-term sub)
    first = series_counts("reciprocal", 1)
    assert first.div == 1
    assert first.sub == 2
    assert first.mul == 2 * series_counts("mul", 1).mul
    assert first.add == 2 * series_counts("mul", 1).add


def test_div_is_reciprocal_plus_product():
    for order in (0, 3, 8):
        div = series_counts("div", order)
        manual = series_counts("reciprocal", order) + series_counts("mul", order)
        assert div.md_operations == manual.md_operations


def test_sqrt_counts_include_one_head_square_root():
    for order in (0, 4, 9):
        assert series_counts("sqrt", order).sqrt == 1


def test_counts_grow_with_order():
    for operation in SERIES_OPERATIONS:
        totals = [series_counts(operation, k).md_operations for k in (1, 4, 8, 16)]
        assert totals == sorted(totals)
        assert totals[-1] > totals[0]


def test_series_flops_use_table1_multipliers():
    counts = series_counts("mul", 5)
    table = PAPER_TABLE1[4]
    expected = (
        counts.add * table.add
        + counts.mul * table.mul
        + counts.div * table.div
    )
    assert series_flops("mul", 5, 4) == expected
    # one limb: one flop per multiple double operation
    assert series_flops("add", 5, 1) == counts.order + 1
    # measured source stays positive and larger than double
    assert series_flops("mul", 5, 2, source="measured") > series_flops("mul", 5, 1)


def test_series_cost_table_shape():
    table = series_cost_table(6)
    assert set(table) == set(SERIES_OPERATIONS)
    for row in table.values():
        assert set(row) == {"md_operations", 1, 2, 4, 8}
        assert row[8] >= row[1]


def test_unknown_operation_raises():
    with pytest.raises(ValueError):
        series_counts("conv", 3)
    with pytest.raises(ValueError):
        series_counts("mul", -1)


# ---------------------------------------------------------------------------
# the series drivers record the model's traces; both equal the oracles'
# ---------------------------------------------------------------------------

def _matrix_series_problem(dimension, order, terms, limbs, complex_data, rng):
    """Head-dominant matrix coefficients and per-order right-hand sides
    (one batched ``(n, K+1)`` array on real data)."""
    def matrix(shift):
        real = MDArray.from_double(
            rng.standard_normal((dimension, dimension)) + shift * np.eye(dimension), limbs
        )
        if not complex_data:
            return real
        imag = MDArray.from_double(rng.standard_normal((dimension, dimension)), limbs)
        return MDComplexArray(real, imag)

    matrices = [matrix(4.0)] + [matrix(0.0) for _ in range(terms - 1)]
    if complex_data:
        rhs = [
            mdrandom.random_complex_vector(dimension, limbs, rng)
            for _ in range(order + 1)
        ]
    else:
        rhs = MDArray.from_double(rng.standard_normal((dimension, order + 1)), limbs)
    return matrices, rhs


def expected_matrix_series_trace(matrices, order, tile_size=None, bs_tile_size=None):
    """The launches of a matrix series solve, built from the dense
    oracle: its QR of the head and one inversion of the tiles of ``R``;
    then for a constant head one batched ``Q^H B`` launch and one
    substitution per order, for coupled orders one convolution (from
    order 1), the ``Q^H b`` launch that the oracle's square least
    squares solve records, and one substitution per order."""
    head = matrices[0]
    n = head.shape[0]
    limbs = head.limbs
    complex_data = isinstance(head, MDComplexArray)
    tile_size, bs_tile_size = resolve_tile_sizes(n, tile_size, bs_tile_size)
    qr = dense.blocked_qr(head, tile_size)
    rhs = (MDComplexArray if complex_data else MDArray).zeros((n,), limbs)
    apply_qt = dense.lstsq(head, rhs, tile_size, bs_tile_size).bs_trace.launches[0]
    upper = qr.R[:n, :n]
    inversion = KernelTrace("V100")
    inverses = dense.invert_tiles(upper, bs_tile_size, inversion)
    substitution = KernelTrace("V100")
    dense.substitute(upper, inverses, rhs, substitution)
    trace = KernelTrace("V100")
    trace.extend(qr.trace)
    trace.extend(inversion)
    if len(matrices) == 1:
        trace.add(
            "apply_qt_batched",
            STAGE_APPLY_QT,
            blocks=-(-n * (order + 1) // tile_size),
            threads_per_block=tile_size,
            limbs=limbs,
            tally=stages.tally_matmul(n, n, order + 1, complex_data),
            bytes_read=md_bytes(n * n + n * (order + 1), limbs, complex_data),
            bytes_written=md_bytes(n * (order + 1), limbs, complex_data),
        )
        for _ in range(order + 1):
            trace.extend(substitution)
        return trace
    for k in range(order + 1):
        terms = min(k, len(matrices) - 1)
        if terms > 0:
            trace.add(
                "series_convolve",
                stages.STAGE_SERIES_CONVOLVE,
                blocks=-(-n // tile_size),
                threads_per_block=tile_size,
                limbs=limbs,
                tally=stages.tally_series_convolution(n, terms, complex_data),
                bytes_read=md_bytes(terms * (n * n + n) + n, limbs, complex_data),
                bytes_written=md_bytes(n, limbs, complex_data),
            )
        trace.record(apply_qt)
        trace.extend(substitution)
    return trace


@pytest.mark.parametrize(
    "terms,complex_data,tile,bs_tile",
    [
        (2, False, 2, None),
        (3, False, 4, 2),
        (3, True, 2, None),
        (2, True, 2, 1),
    ],
    ids=["real", "real-bs2", "complex", "complex-bs1"],
)
def test_coupled_matrix_series_trace_matches_oracle(
    terms, complex_data, tile, bs_tile, md_limbs
):
    rng = np.random.default_rng(20220320)
    order = 4
    matrices, rhs = _matrix_series_problem(4, order, terms, md_limbs, complex_data, rng)
    numeric = solve_matrix_series(matrices, rhs, tile_size=tile, bs_tile_size=bs_tile)
    analytic = matrix_series_trace(
        4,
        order,
        md_limbs,
        matrix_terms=terms,
        tile_size=tile,
        bs_tile_size=bs_tile,
        complex_data=complex_data,
    )
    expected = expected_matrix_series_trace(matrices, order, tile, bs_tile)
    assert launch_records(numeric.trace) == launch_records(expected)
    assert launch_records(analytic) == launch_records(expected)


@pytest.mark.parametrize(
    "complex_data,tile,bs_tile",
    [(False, 2, None), (False, 4, 2), (True, 2, None), (True, None, 1)],
    ids=["real", "real-bs2", "complex", "complex-bs1"],
)
def test_constant_head_trace_matches_oracle(complex_data, tile, bs_tile, md_limbs):
    """A constant head solves all orders against the batched right-hand
    sides: one tile inversion, one Q^H B launch, then one substitution
    per order."""
    rng = np.random.default_rng(20220320)
    order = 4
    matrices, rhs = _matrix_series_problem(4, order, 1, md_limbs, complex_data, rng)
    numeric = solve_matrix_series(matrices[0], rhs, tile_size=tile, bs_tile_size=bs_tile)
    analytic = matrix_series_trace(
        4,
        order,
        md_limbs,
        matrix_terms=1,
        tile_size=tile,
        bs_tile_size=bs_tile,
        complex_data=complex_data,
    )
    expected = expected_matrix_series_trace(matrices, order, tile, bs_tile)
    assert launch_records(numeric.trace) == launch_records(expected)
    assert launch_records(analytic) == launch_records(expected)
    names = [launch.name for launch in numeric.trace.launches]
    assert names.count("apply_qt_batched") == 1
    assert names.count("apply_qt") == 0
    assert names.count("invert_tiles") == 1


def _newton_system(x, t):
    x1, x2 = x
    return [x1 * x1 - 1 - t, x1 * x2 - 1]


def _newton_jacobian(x0):
    return [[2 * x0[0], 0], [x0[1], x0[0]]]


@pytest.mark.parametrize(
    "start,tile,bs_tile",
    [([1, 1], 1, None), ([1, 1], 2, 1), ([1j, -1j], 2, None)],
    ids=["real", "real-bs1", "complex"],
)
def test_newton_series_trace_matches_oracle(start, tile, bs_tile):
    """The oracle's staircase runs the dense QR, inverts the tiles of
    ``R`` once and substitutes once per order, recording its ``Q^H b``
    launches inline."""
    complex_data = isinstance(start[0], complex)
    kwargs = dict(tile_size=tile, bs_tile_size=bs_tile)
    numeric = newton_series(_newton_system, _newton_jacobian, start, 5, 2, **kwargs)
    expected = series_oracle.unbatched_newton_series(
        _newton_system, _newton_jacobian, start, 5, 2, **kwargs
    )
    analytic = newton_series_trace(2, 5, 2, complex_data=complex_data, **kwargs)
    assert launch_records(numeric.trace) == launch_records(expected.trace)
    assert launch_records(analytic) == launch_records(expected.trace)
    names = [launch.name for launch in expected.trace.launches]
    assert names.count("invert_tiles") == 1
    assert names.count("apply_qt") == 5


def test_order_zero_staircase_inverts_nothing():
    """Order 0 solves nothing, so no tile inversion is recorded (and a
    singular head does not raise)."""
    numeric = newton_series(_newton_system, _newton_jacobian, [1, 1], 0, 2)
    analytic = newton_series_trace(2, 0, 2)
    assert launch_records(numeric.trace) == launch_records(analytic)
    assert "invert_tiles" not in [launch.name for launch in analytic.launches]


def test_pade_trace_matches_oracle(md_limbs):
    from fractions import Fraction

    coeffs = [Fraction((-1) ** k, k + 1) for k in range(10)]
    series = TruncatedSeries.from_fractions(coeffs, md_limbs)
    expected = series_oracle.pade(series, 4, 4).trace
    assert launch_records(pade(series, 4, 4).trace) == launch_records(expected)
    assert launch_records(pade_trace(4, 4, md_limbs)) == launch_records(expected)


def test_pade_trace_empty_for_taylor_polynomial():
    assert len(pade_trace(4, 0, 2)) == 0


def test_path_step_is_one_expansion_and_one_batched_pade():
    """A path step is priced as a fleet of one: the Newton expansion
    plus one batched Padé construction over all components, with the
    flops of one Padé solve per component."""
    dimension, order, limbs = 2, 8, 4
    step = path_fleet_trace(1, dimension, order, limbs, tile_size=1)
    newton = newton_series_trace(dimension, order, limbs, tile_size=1)
    one_pade = pade_trace((order - 1) // 2, (order - 1) // 2, limbs)
    assert len(step) == len(newton) + len(one_pade)
    assert step.total_flops() == pytest.approx(
        newton.total_flops() + dimension * one_pade.total_flops()
    )


def test_performance_model_times_series_traces():
    model = PerformanceModel("V100")
    trace = path_fleet_trace(1, 2, 8, 4, tile_size=1)
    timed = model.attribute(trace)
    assert timed.kernel_ms > 0.0
    assert timed.trace.kernel_gigaflops() > 0.0
    # octo double work costs more kernel time than double double work
    slow = model.attribute(path_fleet_trace(1, 2, 8, 8, tile_size=1)).kernel_ms
    fast = model.attribute(path_fleet_trace(1, 2, 8, 2, tile_size=1)).kernel_ms
    assert slow > fast
