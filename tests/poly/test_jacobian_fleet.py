"""One polynomial evaluator: point evaluation is the order-0 series pass,
and the fleet differentiates each sub-batch in one call.

:meth:`PolynomialSystem.evaluate`, ``jacobian_matrix`` and
``evaluate_with_jacobian`` run the batched series pass on a batch of
one at order 0; :meth:`PolynomialSystem.jacobian_fleet` and
:meth:`Homotopy.jacobian_fleet` run it over stacked heads.  The
references are the unbatched point pass and the per-path homotopy
Jacobian combination of ``tests/oracles/poly.py``
(:func:`~tests.oracles.poly.unbatched_evaluate`,
:func:`~tests.oracles.poly.unbatched_jacobian_matrix`,
:func:`~tests.oracles.poly.unbatched_jacobian`), which never call the
series pass.  Every comparison is on int64 views of the limb planes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.batch import track_paths
from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.poly import Homotopy, PolynomialSystem, cyclic, katsura, noon
from repro.vec import batched as vb
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

from ..oracles.poly import (
    unbatched_evaluate,
    unbatched_jacobian,
    unbatched_jacobian_matrix,
)

PRECISIONS = pytest.mark.parametrize("limbs", [1, 2, 4, 8], ids=["d", "dd", "qd", "od"])

# x^2 - 1 - t + x y t^2 / 3 and x y - 1: the parameter is the last variable
PARAMETRIC = PolynomialSystem(
    [
        [(1, (2, 0, 0)), (-1, (0, 0, 0)), (-1, (0, 0, 1))],
        [(1, (1, 1, 0)), (-1, (0, 0, 0)), (Fraction(1, 3), (1, 1, 2))],
    ],
    3,
)
# complex coefficients: the system evaluates complex at real points
COMPLEX_COEFFICIENTS = PolynomialSystem(
    [
        [(1 + 2j, (2, 0)), (0.5, (0, 1)), (-1, (0, 0))],
        [(1, (1, 1)), (-0.25j, (0, 0))],
    ],
    2,
)
HOMOTOPY_TARGETS = {"cyclic3": lambda: cyclic(3), "noon2": lambda: noon(2), "katsura3": lambda: katsura(3)}


def _planes(array):
    if isinstance(array, MDComplexArray):
        return (array.real.data, array.imag.data)
    return (array.data,)


def assert_same_bits(ours, theirs):
    __tracebackhide__ = True
    assert type(ours) is type(theirs)
    for a, b in zip(_planes(ours), _planes(theirs), strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _scalars(rng, count, limbs, complex_data, scale=1.0):
    """Multiple double scalars with all limbs in use (a double divided
    by 3 or 7 at the working precision)."""
    values = []
    for _ in range(count):
        re = MultiDouble(float(scale * rng.uniform(-1.5, 1.5)), limbs) / MultiDouble(3, limbs)
        if complex_data:
            im = MultiDouble(float(scale * rng.uniform(-1.5, 1.5)), limbs) / MultiDouble(7, limbs)
            values.append(ComplexMultiDouble(re, im))
        else:
            values.append(re)
    return values


def _stack(rows, limbs):
    from_scalars = (
        MDComplexArray.from_multidoubles
        if isinstance(rows[0][0], ComplexMultiDouble)
        else MDArray.from_multidoubles
    )
    return vb.stack([from_scalars(row, limbs) for row in rows])


def _homotopy_heads(homotopy, batch, limbs, rng):
    """``batch`` heads near the start solutions, in tracker coordinates."""
    starts = homotopy.start_solutions()
    rows = []
    for p in range(batch):
        start = starts[p % len(starts)]
        factor = MultiDouble(float(rng.uniform(0.6, 1.4)), limbs) / MultiDouble(3, limbs)
        if homotopy.backend == "complex":
            rows.append(
                [
                    ComplexMultiDouble(
                        MultiDouble(value.real, limbs) * factor,
                        MultiDouble(value.imag, limbs) * factor,
                    )
                    for value in start
                ]
            )
        else:
            rows.append([MultiDouble(value, limbs) * factor for value in start])
    return _stack(rows, limbs)


class TestPointPass:
    """``evaluate``, ``jacobian_matrix`` and ``evaluate_with_jacobian``
    (an order-0 batch of one through the series pass) against the
    unbatched point pass, real and complex."""

    @staticmethod
    def systems():
        realified = Homotopy.total_degree(noon(2), seed=7)
        native = Homotopy.total_degree(cyclic(3), seed=7, backend="complex")
        return {
            "katsura3": katsura(3),
            "cyclic4": cyclic(4),
            "parametric": PARAMETRIC,
            "complex-coefficients": COMPLEX_COEFFICIENTS,
            "realified-start": realified.start_system,
            "realified-target": realified.target_system,
            "native-target": native.target_system,
        }

    @PRECISIONS
    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_point_pass_matches_the_unbatched_oracle(self, limbs, complex_data):
        rng = np.random.default_rng(limbs)
        for system in self.systems().values():
            point = _scalars(rng, system.variables, limbs, complex_data)
            values = system.evaluate(point)
            matrix = system.jacobian_matrix(point)
            both = system.evaluate_with_jacobian(point)
            expected_values = unbatched_evaluate(system, point)
            expected_matrix = unbatched_jacobian_matrix(system, point)
            assert_same_bits(values, expected_values)
            assert_same_bits(matrix, expected_matrix)
            assert_same_bits(both[0], expected_values)
            assert_same_bits(both[1], expected_matrix)

    def test_float_point_with_a_precision(self):
        point = [0.37, -1.21, 0.73, 0.11]
        system = katsura(3)
        for limbs in (1, 2, 4, 8):
            assert_same_bits(
                system.evaluate(point, limbs), unbatched_evaluate(system, point, limbs)
            )
            assert_same_bits(
                system.jacobian_matrix(point, limbs),
                unbatched_jacobian_matrix(system, point, limbs),
            )

    def test_one_ulp_in_the_point_is_caught(self):
        system = katsura(3)
        point = _scalars(np.random.default_rng(3), 4, 2, False)
        nudged = list(point)
        head = list(nudged[1].limbs)
        head[0] = float(np.nextafter(head[0], np.inf))
        nudged[1] = MultiDouble.from_limbs(head, 2)
        assert_same_bits(system.jacobian_matrix(point), unbatched_jacobian_matrix(system, point))
        with pytest.raises(AssertionError):
            assert_same_bits(
                system.jacobian_matrix(point), unbatched_jacobian_matrix(system, nudged)
            )


class TestSystemJacobianFleet:
    @PRECISIONS
    @pytest.mark.parametrize(
        "case",
        ["square", "parametric-real", "parametric-complex", "complex-coefficients"],
    )
    def test_slices_match_the_unbatched_oracle(self, limbs, case):
        system, complex_data = {
            "square": (katsura(3), False),
            "parametric-real": (PARAMETRIC, False),
            "parametric-complex": (PARAMETRIC, True),
            "complex-coefficients": (COMPLEX_COEFFICIENTS, False),
        }[case]
        unknowns = system.variables - 1 if system is PARAMETRIC else system.variables
        oracle = unbatched_jacobian(system.jacobian)
        rng = np.random.default_rng(10 + limbs)
        for batch in (1, 3, 6):
            rows = [_scalars(rng, unknowns, limbs, complex_data) for _ in range(batch)]
            t_heads = [float(t) for t in rng.uniform(0.0, 1.0, batch)]
            matrices = system.jacobian_fleet(_stack(rows, limbs), t_heads)
            assert matrices.shape == (batch, system.equations, unknowns)
            for p in range(batch):
                expected = oracle(rows[p], t_heads[p])
                assert_same_bits(matrices[p], expected)
                assert_same_bits(system.jacobian(rows[p], t_heads[p]), expected)


class TestHomotopyJacobianFleet:
    @PRECISIONS
    @pytest.mark.parametrize("backend", ["realified", "complex"])
    @pytest.mark.parametrize("target", sorted(HOMOTOPY_TARGETS))
    def test_slices_match_the_unbatched_oracle(self, limbs, backend, target):
        homotopy = Homotopy.total_degree(HOMOTOPY_TARGETS[target](), seed=7, backend=backend)
        oracle = unbatched_jacobian(homotopy.jacobian)
        dimension = homotopy.tracking_dimension
        rng = np.random.default_rng(20 + limbs)
        for batch in (1, 3, 6):
            heads = _homotopy_heads(homotopy, batch, limbs, rng)
            t_heads = [float(t) for t in rng.uniform(0.0, 1.0, batch)]
            matrices = homotopy.jacobian_fleet(heads, t_heads)
            assert matrices.shape == (batch, dimension, dimension)
            for p in range(batch):
                assert_same_bits(matrices[p], oracle(list(heads[p]), t_heads[p]))

    @pytest.mark.parametrize("backend", ["realified", "complex"])
    def test_per_path_jacobian_keeps_every_parameter_type(self, backend):
        """``Homotopy.jacobian`` is a batch of one through the same core:
        every ``t0`` it took before rounds the same way, and ``t0``
        defaults to the expansion point ``0.0``."""
        homotopy = Homotopy.total_degree(cyclic(3), seed=7, backend=backend)
        oracle = unbatched_jacobian(homotopy.jacobian)
        for limbs in (2, 4):
            point = list(_homotopy_heads(homotopy, 1, limbs, np.random.default_rng(5))[0])
            for t0 in (0.0, 0.37, 1.0, 1, Fraction(1, 3), MultiDouble(2, limbs) / MultiDouble(7, limbs)):
                assert_same_bits(homotopy.jacobian(point, t0), oracle(point, t0))
            assert_same_bits(homotopy.jacobian(point), homotopy.jacobian(point, 0.0))


@pytest.mark.parametrize(
    "owner",
    [
        lambda: katsura(3),
        lambda: PARAMETRIC,
        lambda: Homotopy.total_degree(cyclic(3), seed=7),
        lambda: Homotopy.total_degree(cyclic(3), seed=7, backend="complex"),
    ],
    ids=["square", "parametric", "realified", "complex"],
)
def test_wrong_number_of_parameters_raises_before_evaluating(owner, monkeypatch):
    owner = owner()
    dimension = getattr(owner, "tracking_dimension", None) or (
        owner.variables - 1 if owner is PARAMETRIC else owner.variables
    )
    complex_data = getattr(owner, "backend", None) == "complex"
    heads = _stack([_scalars(np.random.default_rng(1), dimension, 2, complex_data)] * 3, 2)

    def evaluated(*args, **kwargs):
        raise AssertionError("the series pass ran")

    monkeypatch.setattr(PolynomialSystem, "_series_pass", evaluated)
    for t_heads in ([0.5, 0.5], [0.5] * 4):
        with pytest.raises(ValueError, match="one expansion point per path"):
            owner.jacobian_fleet(heads, t_heads)


class TestFleetDispatch:
    """``track_fleet`` differentiates each sub-batch in one call."""

    KWARGS = dict(tol=1e-8, order=8, max_steps=3, precision_ladder=(1, 2))

    def test_one_jacobian_fleet_call_per_head_and_polish_iteration(self, monkeypatch):
        from repro.obs import recording

        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        calls = []
        jacobian_fleet = Homotopy.jacobian_fleet

        def counted(self, heads, t_heads):
            calls.append(heads.shape[0])
            return jacobian_fleet(self, heads, t_heads)

        def per_path(*args, **kwargs):
            raise AssertionError("a per-path Jacobian was evaluated")

        monkeypatch.setattr(Homotopy, "jacobian_fleet", counted)
        monkeypatch.setattr(Homotopy, "jacobian", per_path)
        monkeypatch.setattr(PolynomialSystem, "jacobian_matrix", per_path)
        with recording() as recorder:
            fleet = homotopy.track_fleet(**self.KWARGS)
        accepting = {r.fields["round"] for r in recorder.records if r.name == "step"}
        assert accepting
        assert len(calls) == len(fleet.sub_batches) + 2 * len(accepting)
        # the heads of every sub-batch, in one call each
        assert calls[0] == len(fleet.sub_batches[0][2]) == homotopy.path_count

    def test_plain_callable_is_called_per_path(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        starts = homotopy.start_solutions()
        calls = []

        def jacobian(x0, t0):
            calls.append(t0)
            return homotopy.jacobian(x0, t0)

        plain = track_paths(homotopy, jacobian, starts, **self.KWARGS)
        fleet = homotopy.track_fleet(**self.KWARGS)
        heads = sum(len(indices) for _, _, indices in plain.sub_batches)
        polished = sum(path.step_count for path in plain.paths)
        assert len(calls) == heads + 2 * polished
        for ours, theirs in zip(plain.paths, fleet.paths, strict=True):
            assert ours.steps == theirs.steps
