"""Series Newton workload: order x precision sweep.

Two views of the new :mod:`repro.series` subsystem, matching the split
used by the table benchmarks:

* ``test_real_series_newton`` genuinely executes the order-by-order
  series Newton staircase (one multiple double solve per order) on the
  examples' square-root system, sweeping truncation order and precision;
* ``test_model_path_step`` asks the analytic cost model and the
  performance model what one adaptive tracker step (series expansion
  plus per-component Padé construction) costs on the paper's V100 at
  paper-sized dimensions, sweeping the precision ladder.
"""

from __future__ import annotations

import pytest

from repro.md.opcounts import series_flops
from repro.perf.costmodel import path_fleet_trace
from repro.perf.model import PerformanceModel
from repro.series import newton_series, pade


def sqrt_system(x, t):
    x1, x2 = x
    return [x1 * x1 - 1 - t, x1 * x2 - 1]


def sqrt_jacobian(x0):
    return [[2 * x0[0], 0], [x0[1], x0[0]]]


@pytest.mark.parametrize("limbs", [1, 2, 4, 8], ids=["1d", "2d", "4d", "8d"])
@pytest.mark.parametrize("order", [8, 16])
def test_real_series_newton(benchmark, order, limbs):
    """Execute the staircase for real; wall time follows Table 1."""
    result = benchmark(
        lambda: newton_series(
            sqrt_system, sqrt_jacobian, [1, 1], order, limbs, tile_size=1
        )
    )
    assert result.order == order
    benchmark.extra_info["md_operations"] = result.trace.total_md_operations()
    benchmark.extra_info["series_mul_flops"] = series_flops("mul", order, limbs)


@pytest.mark.parametrize("limbs", [1, 2, 4, 8], ids=["1d", "2d", "4d", "8d"])
@pytest.mark.parametrize("order", [8, 16])
def test_real_series_pade(benchmark, order, limbs):
    """Summing the series with a Padé approximant (Hankel solve)."""
    expansion = newton_series(
        sqrt_system, sqrt_jacobian, [1, 1], order, limbs, tile_size=1
    )
    L = M = (order - 1) // 2
    approximant = benchmark(lambda: pade(expansion.series[0], L, M))
    assert approximant.defect is not None


@pytest.mark.parametrize("limbs", [2, 4, 8], ids=["2d", "4d", "8d"])
def test_model_path_step(benchmark, limbs):
    """Model one tracker step at paper scale (dimension 1024, order 24)."""
    model = PerformanceModel("V100")

    def run():
        trace = path_fleet_trace(1, 1024, 24, limbs, tile_size=128)
        return model.attribute(trace)

    timed = benchmark(run)
    assert timed.kernel_ms > 0.0
    benchmark.extra_info["kernel_ms"] = timed.kernel_ms
    benchmark.extra_info["kernel_gflops"] = timed.trace.kernel_gigaflops()
