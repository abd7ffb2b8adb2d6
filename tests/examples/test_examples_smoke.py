"""Smoke tests for the example scripts.

The examples are the workloads' user-facing narratives; these tests run
their ``main()`` entry points at reduced sizes so that refactoring the
scripts onto :mod:`repro.series` (or future subsystems) stays
regression-guarded without paying for the full-size tables.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

from ..oracles.solo_tracker import solo_track_path


@pytest.fixture(scope="module")
def power_series_example():
    return importlib.import_module("power_series_newton")


@pytest.fixture(scope="module")
def pade_example():
    return importlib.import_module("pade_approximation")


#: The exact table rows of ``power_series_newton.main(order=6)``.  The
#: arithmetic is deterministic IEEE double sequences (no platform- or
#: library-dependent kernels), so the "bit-identical tables" claim of
#: the rewritten examples is enforced literally: any change to these
#: digits means the series pipeline changed numerically.
POWER_SERIES_GOLDEN_ROWS = [
    "    double                   5.244e-15                 5.244e-15",
    "        dd                   2.019e-31                 2.019e-31",
    "        qd                   1.339e-64                 1.339e-64",
    "        od                  1.046e-129                1.046e-129",
]

#: The exact m = 2 block of ``pade_approximation.main(degrees=(2,))``.
PADE_GOLDEN_ROWS = [
    "   2      double                     1.776e-16               1.506e-05",
    "   2          dd                     7.765e-32               1.506e-05",
    "   2          qd                     2.583e-64               1.506e-05",
    "   2          od                    2.453e-129               1.506e-05",
]


def test_power_series_newton_table(power_series_example, capsys):
    power_series_example.main(order=6)
    out = capsys.readouterr().out
    assert "Power series solution up to order 6" in out
    for label in ("double", "dd", "qd", "od"):
        assert label in out
    # the table rows carry two scientific-notation error columns
    rows = [line for line in out.splitlines() if "e-" in line or "e+" in line]
    assert len(rows) >= 4


def test_power_series_newton_table_is_bit_identical(power_series_example, capsys):
    power_series_example.main(order=6)
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:6] == POWER_SERIES_GOLDEN_ROWS


def test_pade_table_is_bit_identical(pade_example, capsys):
    pade_example.main(degrees=(2,))
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:6] == PADE_GOLDEN_ROWS


def test_power_series_errors_shrink_with_precision(power_series_example):
    exact = power_series_example.exact_binomial_series(Fraction(1, 2), 6)
    worst = {}
    for limbs in (1, 2):
        x1, x2 = power_series_example.series_solve(limbs, 6)
        worst[limbs] = max(
            abs((c.to_fraction() - e) / e) for c, e in zip(x1[1:], exact[1:])
        )
        assert len(x1) == len(x2) == 7
    assert worst[2] < worst[1] or worst[1] == 0


def test_pade_approximation_table(pade_example, capsys):
    pade_example.main(degrees=(2, 3))
    out = capsys.readouterr().out
    assert "Pade approximants of log(1+x)/x" in out
    for label in ("double", "dd", "qd", "od"):
        assert label in out
    assert "ill" in out  # the closing narrative is printed


def test_pade_helpers_agree_with_exact_reference(pade_example):
    m = 3
    coeffs = pade_example.taylor_coefficients(2 * m + 1)
    exact = pade_example.exact_denominator(coeffs, m)
    approximant = pade_example.pade_approximant(coeffs, m, 8)
    worst = max(
        abs(q.to_fraction() - e)
        for q, e in zip(approximant.denominator, exact)
    )
    assert float(worst) < 1e-100


def test_quickstart_runs(capsys):
    quickstart = importlib.import_module("quickstart")
    quickstart.solve_and_report(16, 8)
    out = capsys.readouterr().out
    assert "Least squares problem: 16 equations, 8 unknowns" in out


def test_path_fleet_quickstart(capsys):
    path_fleet = importlib.import_module("path_fleet")
    path_fleet.main(tol=1e-8, batch=4)
    out = capsys.readouterr().out
    assert "Fleet of 2 paths" in out
    assert "Lock-step rounds" in out
    assert "bit-identical" in out
    assert "Fleet summary: 2/2 paths reached t = 1" in out
    assert "Path 0 summary: reached t = 1" in out
    # both branches of the homotopy reach t = 1 at this tolerance
    assert out.count("True") == 2


def test_homotopy_quickstart(capsys):
    """The total-degree fleet quickstart at its smallest family size.

    Golden assertion on the solution count: cyclic-2 has exactly two
    complex roots, and the fleet must find both (every path reaching
    t = 1, two distinct endpoint clusters).
    """
    quickstart = importlib.import_module("homotopy_quickstart")
    quickstart.main("cyclic", 2, max_steps=48)
    out = capsys.readouterr().out
    assert "total degree 2" in out
    assert "Reached t = 1: 2/2 paths" in out
    assert "Distinct solutions found: 2" in out
    assert "Fleet summary: 2/2 paths reached t = 1" in out
    assert "1d -> 2d" in out  # at least one path escalates d -> dd
    assert "x from batching" in out


def test_homotopy_quickstart_distinct_endpoint_clustering():
    quickstart = importlib.import_module("homotopy_quickstart")

    class _Path:
        def __init__(self, point, reached=True):
            self.final_point = point
            self.reached = reached

    class _Homotopy:
        backend = "realified"

    paths = [
        _Path([1.0, 0.0]),          # 1 + 0j (realified 1-dim point)
        _Path([1.0, 1e-6]),         # same cluster
        _Path([-1.0, 0.0]),         # second cluster
        _Path([5.0, 5.0], reached=False),  # ignored: never reached
    ]
    assert quickstart.distinct_endpoints(_Homotopy(), paths) == 2


def test_path_fleet_matches_single_path_tracker():
    path_fleet = importlib.import_module("path_fleet")

    fleet = path_fleet.track_fleet(tol=1e-8)
    reference = solo_track_path(
        path_fleet.branch_point_system,
        path_fleet.branch_point_jacobian,
        [0.5],
        tol=1e-8,
        order=10,
        max_steps=48,
    )
    assert fleet.paths[0].steps == reference.steps
    assert fleet.paths[0].reached == reference.reached
