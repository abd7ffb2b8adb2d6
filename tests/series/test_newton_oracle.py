"""The library's series Newton staircase against the unbatched oracle.

:func:`repro.series.newton.newton_series` is a batch of one over the
path fleet's staircase (``repro.batch.fleet``).  The per-path loop it
replaced is the oracle
:func:`tests.oracles.series.unbatched_newton_series`; here it calls
every system through the unbatched evaluators of ``tests/oracles/poly.py``
(a :class:`~repro.poly.homotopy.Homotopy` through
:func:`~tests.oracles.poly.unbatched_residual`, a
:class:`~repro.poly.system.PolynomialSystem` through
:func:`~tests.oracles.poly.unbatched_evaluate_series`) and takes the
Jacobian of a system object from
:func:`~tests.oracles.poly.unbatched_jacobian`, so neither the fleet's
staircase nor the batched evaluator checks itself.  The library side
passes a homotopy alone (``newton_series(homotopy, start, order)``),
as a system object may be passed.  Every limb of every coefficient,
the head residual and every launch record must agree, real and
complex, at d, dd and qd.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.poly import Homotopy, PolynomialSystem, cyclic
from repro.series import TruncatedSeries, newton_series
from repro.vec.complexmd import MDComplexArray

from ..oracles.poly import (
    unbatched_evaluate_series,
    unbatched_jacobian,
    unbatched_residual,
)
from ..oracles.series import unbatched_newton_series

ORDER = 6


def sqrt_system(x, t):
    x1, x2 = x
    return [x1 * x1 - 1 - t, x1 * x2 - 1]


def sqrt_jacobian(x0):
    x1, x2 = x0
    return [[2 * x1, 0], [x2, x1]]


def complex_system(x, t):
    (x1,) = x
    return [x1 * x1 + 1 + t]


def complex_jacobian(x0):
    return [[2 * x0[0]]]


def polynomial_residual(system):
    """A :class:`PolynomialSystem` as a residual callable on the
    unbatched evaluator (the parameter appended as its last variable
    when the system carries one)."""

    def residual(x, t):
        values = list(x)
        if len(values) + 1 == system.variables:
            values.append(t)
        return unbatched_evaluate_series(system, values).components()

    return residual


# x^2 + y^2 - 4 and x y - 1: square, independent of t
SQUARE = PolynomialSystem(
    [
        [(1, (2, 0)), (1, (0, 2)), (-4, (0, 0))],
        [(1, (1, 1)), (-1, (0, 0))],
    ],
    2,
)
# x^2 - 1 - t and x y - 1: the parameter is the last variable
PARAMETRIC = PolynomialSystem(
    [
        [(1, (2, 0, 0)), (-1, (0, 0, 0)), (-1, (0, 0, 1))],
        [(1, (1, 1, 0)), (-1, (0, 0, 0))],
    ],
    3,
)


def _homotopy_case(backend):
    homotopy = Homotopy.total_degree(cyclic(2), seed=7, backend=backend)
    start = homotopy.start_solutions()[1]
    return (homotopy, start), (
        unbatched_residual(homotopy),
        unbatched_jacobian(homotopy.jacobian),
        start,
    )


CASES = {
    "callable-real": lambda: (
        (sqrt_system, sqrt_jacobian, [1.5, 1.0]),
        (sqrt_system, sqrt_jacobian, [1.5, 1.0]),
    ),
    "callable-complex": lambda: (
        (complex_system, complex_jacobian, [1.1j]),
        (complex_system, complex_jacobian, [1.1j]),
    ),
    "square-system": lambda: (
        (SQUARE, SQUARE.jacobian, [1.8, 0.5]),
        (polynomial_residual(SQUARE), unbatched_jacobian(SQUARE.jacobian), [1.8, 0.5]),
    ),
    "parametric-system": lambda: (
        (PARAMETRIC, PARAMETRIC.jacobian, [1.0, 1.25]),
        (
            polynomial_residual(PARAMETRIC),
            unbatched_jacobian(PARAMETRIC.jacobian),
            [1.0, 1.25],
        ),
    ),
    "homotopy-realified": lambda: _homotopy_case("realified"),
    "homotopy-complex": lambda: _homotopy_case("complex"),
}


def _planes(vector):
    coefficients = vector.coefficients
    if isinstance(coefficients, MDComplexArray):
        return (coefficients.real.data, coefficients.imag.data)
    return (coefficients.data,)


def _launch(launch):
    return (
        launch.name,
        launch.stage,
        launch.blocks,
        launch.threads_per_block,
        launch.limbs,
        launch.tally.as_dict(),
        launch.bytes_read,
        launch.bytes_written,
        launch.efficiency,
    )


@pytest.mark.parametrize("limbs", [1, 2, 4], ids=["d", "dd", "qd"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_staircase_matches_the_unbatched_oracle(case, limbs):
    library_args, oracle_args = CASES[case]()
    ours = newton_series(*library_args, ORDER, limbs)
    oracle = unbatched_newton_series(*oracle_args, ORDER, limbs)

    for mine, theirs in zip(
        [ours.vector, *ours.series], [oracle.vector, *oracle.series], strict=True
    ):
        assert type(mine) is type(theirs)
        for a, b in zip(_planes(mine), _planes(theirs), strict=True):
            assert np.array_equal(a, b)
    assert ours.head_residual == oracle.head_residual
    assert (ours.tile_size, ours.bs_tile_size) == (oracle.tile_size, oracle.bs_tile_size)
    assert ours.trace.label == oracle.trace.label
    assert [_launch(launch) for launch in ours.trace.launches] == [
        _launch(launch) for launch in oracle.trace.launches
    ]


def test_system_objects_are_evaluated_fleet_wide(monkeypatch):
    """A system object goes through ``residual_fleet`` (the fleet's
    call), never through its per-path ``__call__``."""

    def per_path(self, *args, **kwargs):
        raise AssertionError("the per-path residual was called")

    monkeypatch.setattr(PolynomialSystem, "__call__", per_path)
    result = newton_series(PARAMETRIC, [1.0, 1.25], ORDER, 2)
    assert result.order == ORDER


def test_plain_callables_get_a_real_parameter():
    """Also for a complex start, a plain callable sees the real
    parameter series ``t`` (here expanded at 0)."""
    seen = []

    def system(x, t):
        seen.append(t)
        return complex_system(x, t)

    newton_series(system, complex_jacobian, [1j], 3, 2)
    assert seen and all(type(t) is TruncatedSeries for t in seen)
    assert [t.order for t in seen] == [0, 1, 2, 3]
    assert all(float(t.coefficient(0)) == 0.0 for t in seen)


def test_singular_head_raises_like_the_unbatched_solve():
    """A singular Jacobian head raises ``ZeroDivisionError`` once an
    order has to be solved, as the oracle's tiled back substitution
    does; order 0 solves nothing."""

    def system(x, t):
        return [x[0] * x[0] - t]

    def jacobian(x0):
        return [[2 * x0[0]]]

    for staircase in (newton_series, unbatched_newton_series):
        with pytest.raises(ZeroDivisionError):
            staircase(system, jacobian, [0.0], 3, 2)
        assert staircase(system, jacobian, [0.0], 0, 2).order == 0
