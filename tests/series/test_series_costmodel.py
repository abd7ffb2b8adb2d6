"""Series operation counts and the analytic-vs-numeric trace contract.

The repo-wide invariant: for every workload that both executes
numerically and appears in the analytic cost model, the two paths must
produce *identical* kernel traces (same launches, same stages, same
geometry, same tallies, same byte counts).  This file extends that
contract to the series workloads.
"""

from __future__ import annotations

import numpy as np
import pytest

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


def assert_traces_identical(numeric, analytic):
    assert len(numeric.launches) == len(analytic.launches)
    for ours, model in zip(numeric.launches, analytic.launches):
        assert ours.name == model.name
        assert ours.stage == model.stage
        assert ours.blocks == model.blocks
        assert ours.threads_per_block == model.threads_per_block
        assert ours.limbs == model.limbs
        assert ours.tally.as_dict() == model.tally.as_dict()
        assert ours.bytes_read == model.bytes_read
        assert ours.bytes_written == model.bytes_written


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
# analytic traces mirror the numeric drivers launch for launch
# ---------------------------------------------------------------------------

def test_matrix_series_trace_matches_numeric(md_limbs):
    rng = np.random.default_rng(20220320)
    order = 4
    a0 = MDArray.from_double(rng.standard_normal((4, 4)) + 4 * np.eye(4), md_limbs)
    a1 = MDArray.from_double(rng.standard_normal((4, 4)), md_limbs)
    rhs = [MDArray.from_double(rng.standard_normal(4), md_limbs) for _ in range(order + 1)]
    numeric = solve_matrix_series([a0, a1], rhs, tile_size=2)
    analytic = matrix_series_trace(
        4, order, md_limbs, matrix_terms=2, tile_size=2
    )
    assert_traces_identical(numeric.trace, analytic)


def test_constant_head_trace_matches_numeric_batched(md_limbs):
    """A constant head solves all orders against the batched right-hand
    sides: one Q^H B launch, then one back substitution per order."""
    rng = np.random.default_rng(20220320)
    order = 4
    a0 = MDArray.from_double(rng.standard_normal((4, 4)) + 4 * np.eye(4), md_limbs)
    batched = MDArray.from_double(rng.standard_normal((4, order + 1)), md_limbs)
    numeric = solve_matrix_series(a0, batched, tile_size=2)
    analytic = matrix_series_trace(
        4, order, md_limbs, matrix_terms=1, tile_size=2
    )
    assert_traces_identical(numeric.trace, analytic)
    names = [launch.name for launch in numeric.trace.launches]
    assert names.count("apply_qt_batched") == 1
    assert names.count("apply_qt") == 0


def test_newton_series_trace_matches_numeric():
    def system(x, t):
        x1, x2 = x
        return [x1 * x1 - 1 - t, x1 * x2 - 1]

    def jacobian(x0):
        return [[2 * x0[0], 0], [x0[1], x0[0]]]

    numeric = newton_series(system, jacobian, [1, 1], 5, 2, tile_size=1)
    analytic = newton_series_trace(2, 5, 2, tile_size=1)
    assert_traces_identical(numeric.trace, analytic)


def test_pade_trace_matches_numeric(md_limbs):
    from fractions import Fraction

    coeffs = [Fraction((-1) ** k, k + 1) for k in range(10)]
    numeric = pade(TruncatedSeries.from_fractions(coeffs, md_limbs), 4, 4)
    analytic = pade_trace(4, 4, md_limbs)
    assert_traces_identical(numeric.trace, analytic)


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
