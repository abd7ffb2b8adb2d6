"""The fleet's batched step control against the scalar oracle.

``repro.series.pade.PadeBatch`` evaluates, estimates and pole-caps a
whole sub-batch on limb planes, and ``repro.batch.fleet._control_steps``
chooses every path's step from it.  The reference is the scalar step
control of ``tests/oracles/step_control.py`` (scalar Horner sweeps on
``MultiDouble`` values, the ``np.roots`` radius, the per-path halving
loop and noise estimate).  Every comparison is limb for limb, as int64
views of the doubles, so signed zeros and infinities count: at d, dd,
qd and od, on real and complex planes, on constructed edge rows and on
sub-batches recorded from real fleets.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.batch import fleet as fleet_module
from repro.md.constants import get_precision
from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.poly import Homotopy, cyclic, katsura, noon
from repro.series.pade import PadeBatch
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

from ..oracles import step_control as oracle

LIMBS = (1, 2, 4, 8)
KINDS = ("real", "complex")
DEGREE = 3  # L = M = 3, the tracker's degrees at order 8


def bits(values) -> np.ndarray:
    """int64 views of doubles: signed zeros and infinities are distinct."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def scalar_limbs(value) -> np.ndarray:
    """Every limb of a scalar (both planes of a complex one)."""
    if isinstance(value, ComplexMultiDouble):
        return np.array(value.real.limbs + value.imag.limbs)
    return np.array(value.limbs)


def assert_same_bits(expected, actual):
    """Equal int64 views; a NaN matches any NaN (its sign and payload
    may differ between exec backends)."""
    expected = np.asarray(expected, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    nan = np.isnan(expected)
    assert np.array_equal(nan, np.isnan(actual)), (expected, actual)
    assert np.array_equal(bits(expected)[~nan], bits(actual)[~nan]), (expected, actual)


def assert_scalar_matches(expected, array, index):
    """A batched result element against one scalar oracle value."""
    assert_same_bits(scalar_limbs(expected), scalar_limbs(array.to_multidouble(index)))


# ----------------------------------------------------------------------
# constructed batches with the edge rows
# ----------------------------------------------------------------------


def _real_planes(rng, shape, limbs) -> MDArray:
    """Random multiple doubles with every limb in use (quotients)."""
    numerator = MDArray.from_double(rng.standard_normal(shape), limbs)
    return numerator / MDArray.from_double(rng.uniform(1.0, 3.0, shape), limbs)


def _planes(rng, shape, limbs, kind):
    if kind == "complex":
        return MDComplexArray(
            _real_planes(rng, shape, limbs), _real_planes(rng, shape, limbs)
        )
    return _real_planes(rng, shape, limbs)


def _set(array, index, limb_values):
    """Overwrite one element's limbs (the real plane of complex data;
    the imaginary plane is zeroed)."""
    data = np.zeros(array.limbs)
    data[: len(limb_values)] = limb_values[: array.limbs]
    if isinstance(array, MDComplexArray):
        array.real.data[(slice(None), *index)] = data
        array.imag.data[(slice(None), *index)] = 0.0
    else:
        array.data[(slice(None), *index)] = data


def edge_batch(limbs, kind, seed=0):
    """A batch of random rows and every edge row, with one point each.

    Returns ``(batch, points, names)``; ``names`` labels the rows.
    """
    rng = np.random.default_rng([seed, limbs, KINDS.index(kind)])
    names = [f"random {i}" for i in range(6)] + [
        "constant denominator",
        "zero denominator value",
        "degree 1",
        "degree 2",
        "zero low-order coefficient",
        "-0.0 defect head",
        "zero point",
    ]
    if limbs >= 2:
        names += ["underflowed head", "zero head over a negative defect limb"]
    if limbs >= 4:
        names += ["fully cancelled top coefficient"]
    count = len(names)
    numerators = _planes(rng, (count, DEGREE + 1), limbs, kind)
    denominators = _planes(rng, (count, DEGREE + 1), limbs, kind)
    defects = _planes(rng, (count,), limbs, kind)
    points = rng.uniform(0.05, 0.9, count)
    for row, name in enumerate(names):
        _set(denominators, (row, 0), [1.0])
        if name == "constant denominator":
            for k in (1, 2, 3):
                _set(denominators, (row, k), [0.0])
        elif name == "zero denominator value":
            # q(t) = 1 - 2t vanishes exactly at t = 1/2
            _set(denominators, (row, 1), [-2.0])
            for k in (2, 3):
                _set(denominators, (row, k), [0.0])
            points[row] = 0.5
        elif name == "degree 1":
            for k in (2, 3):
                _set(denominators, (row, k), [0.0])
        elif name == "degree 2":
            _set(denominators, (row, 3), [0.0])
        elif name == "zero low-order coefficient":
            _set(denominators, (row, 0), [0.0])
        elif name == "-0.0 defect head":
            _set(defects, (row,), [-0.0])
            if isinstance(defects, MDComplexArray):
                defects.imag.data[:, row] = -0.0
        elif name == "zero point":
            points[row] = 0.0
        elif name == "underflowed head":
            # the t^2 coefficient is (0.0, 0.25): its root stays in
            _set(denominators, (row, 2), [0.0, 0.25])
            _set(denominators, (row, 3), [0.0])
        elif name == "zero head over a negative defect limb":
            _set(defects, (row,), [0.0, -1e-300])
        elif name == "fully cancelled top coefficient":
            _set(denominators, (row, 3), [0.0, 1e-300, -1e-300])
    return PadeBatch(numerators, denominators, defects, limbs), points, names


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("limbs", LIMBS)
def test_evaluation_matches_scalar_horner(limbs, kind):
    batch, points, names = edge_batch(limbs, kind)
    numerators = batch.evaluate_numerators(points)
    denominators = batch.evaluate_denominators(points)
    with np.errstate(divide="ignore", invalid="ignore"):  # the zero q row
        values = batch.evaluate(points)
    for row, point in enumerate(points):
        approximant = batch[row]
        scalar_point = MultiDouble(float(point), limbs)
        assert_scalar_matches(
            oracle.horner(approximant.numerator, scalar_point), numerators, row
        )
        assert_scalar_matches(
            oracle.evaluate_denominator(approximant, point), denominators, row
        )
        if row == names.index("zero denominator value"):
            # scalar division by a zero head raises; the batch row is inf
            with pytest.raises(ZeroDivisionError):
                oracle.evaluate(approximant, point)
            with pytest.raises(ZeroDivisionError):
                approximant.evaluate(point)
            assert not np.isfinite(scalar_limbs(values.to_multidouble(row))).all()
            continue
        assert_scalar_matches(oracle.evaluate(approximant, point), values, row)
        assert_same_bits(
            scalar_limbs(oracle.evaluate(approximant, point)),
            scalar_limbs(approximant.evaluate(point)),
        )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("limbs", LIMBS)
def test_error_estimates_match_scalar(limbs, kind):
    batch, points, names = edge_batch(limbs, kind)
    estimates = batch.error_estimates(points)
    expected = [oracle.error_estimate(batch[row], p) for row, p in enumerate(points)]
    assert_same_bits(expected, estimates)
    # the edge rows read what the scalar semantics give them
    by_name = dict(zip(names, estimates))
    assert by_name["zero denominator value"] == np.inf
    assert bits(by_name["zero point"]) == bits(0.0)
    if kind == "real":
        # float(abs(x)) keeps a -0.0 head; a complex modulus is a sqrt
        assert bits(by_name["-0.0 defect head"]) == bits(-0.0)
    if kind == "real" and limbs >= 2:
        # abs() of a zero head over a negative limb flips the zero's sign
        assert bits(by_name["zero head over a negative defect limb"]) == bits(-0.0)
    # the batch of one, the library's PadeApproximant, agrees too
    for row, point in enumerate(points):
        assert_same_bits(expected[row], batch[row].error_estimate(point))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("limbs", LIMBS)
def test_pole_radii_match_np_roots(limbs, kind):
    batch, _, names = edge_batch(limbs, kind)
    radii = batch.pole_radii()
    expected = [oracle.pole_radius(batch[row]) for row in range(len(batch))]
    assert_same_bits(expected, radii)
    assert_same_bits(
        [oracle.pole_estimate(batch[row]) for row in range(len(batch))],
        batch.pole_estimates(),
    )
    by_name = dict(zip(names, radii))
    assert by_name["constant denominator"] == np.inf
    assert by_name["zero low-order coefficient"] == 0.0
    assert by_name["degree 1"] < np.inf
    if limbs >= 2:
        # q = 1 + q1 t + (0.0, 0.25) t^2: a degree-2 root set
        underflowed = batch[names.index("underflowed head")]
        assert underflowed.pole_radius() == by_name["underflowed head"]
    # selected rows give the same floats as the whole batch
    rows = np.array([len(batch) - 1, 0, 3])
    assert_same_bits(radii[rows], batch.pole_radii(rows))


@pytest.mark.parametrize("kind", KINDS)
def test_non_finite_denominators_fall_back_to_the_cauchy_bound(kind):
    batch, _, _ = edge_batch(2, kind)
    denominators = batch.denominators.copy()
    _set(denominators, (0, 1), [np.inf])
    _set(denominators, (1, 2), [np.nan])
    broken = PadeBatch(batch.numerators, denominators, batch.defects, 2)
    expected = [oracle.pole_radius(broken[row]) for row in range(len(broken))]
    assert_same_bits(expected, broken.pole_radii())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("limbs", (1, 2))
def test_a_one_ulp_change_is_caught(limbs, kind):
    """The comparison is a gate: one ulp in one limb must fail it.  On
    the constant denominator ``q(t) = q_0`` the nudge reaches the value
    and the estimate unrounded."""
    batch, points, names = edge_batch(limbs, kind)
    row = names.index("constant denominator")
    expected_value = oracle.evaluate_denominator(batch[row], points[row])
    expected_estimate = oracle.error_estimate(batch[row], points[row])
    denominators = batch.denominators.copy()
    planes = denominators.real.data if kind == "complex" else denominators.data
    planes[0, row, 0] = np.nextafter(planes[0, row, 0], 2.0)
    nudged = PadeBatch(batch.numerators, denominators, batch.defects, limbs)
    with pytest.raises(AssertionError):
        assert_scalar_matches(
            expected_value, nudged.evaluate_denominators(points), row
        )
    with pytest.raises(AssertionError):
        assert_same_bits(expected_estimate, nudged.error_estimates(points)[row])


# ----------------------------------------------------------------------
# whole-sub-batch step control
# ----------------------------------------------------------------------


def assert_controls_match(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert all(type(value) is float for value in got), got
        assert_same_bits(want, got)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("limbs", LIMBS)
def test_control_steps_match_the_scalar_loop(limbs, kind):
    """Synthetic sub-batch: the edge rows spread over paths of two
    components, one path whose components estimate ``-0.0`` then
    ``0.0`` (Python ``max`` keeps the first), paths that halve several
    times and paths that do not."""
    batch, _, names = edge_batch(limbs, kind)
    n = 2
    count = len(batch) // n
    rows = count * n
    defects = batch.defects.copy()
    _set(defects, (0,), [-0.0])
    _set(defects, (1,), [0.0])
    batch = PadeBatch(
        batch.numerators[:rows], batch.denominators[:rows], defects[:rows], limbs
    )
    rng = np.random.default_rng([7, limbs])
    solution = _planes(rng, (count, n, 9), limbs, kind)
    snapshots = [(float(t), trial) for t, trial in zip(
        rng.uniform(0.0, 0.9, count), [None, 0.5, 1e-3, 0.25] * count
    )]
    states = [SimpleNamespace(t_current=t, trial_step=s) for t, s in snapshots]
    paths = np.arange(count)
    kwargs = dict(t_end=1.0, tol=1e-9, min_step=1e-6, pole_safety=0.5,
                  eps=get_precision(limbs).eps)
    actual = fleet_module._control_steps(batch, solution, paths, states, **kwargs)
    expected = oracle.control_steps(batch, solution, paths, states, **kwargs)
    assert_controls_match(expected, actual)
    if kind == "real":
        assert bits(actual[0][1]) == bits(-0.0)
    # a strict subset of the paths, out of order
    subset = np.array([count - 1, 1])
    actual = fleet_module._control_steps(
        batch, solution, subset, [states[p] for p in subset], **kwargs
    )
    expected = oracle.control_steps(
        batch, solution, subset, [states[p] for p in subset], **kwargs
    )
    assert_controls_match(expected, actual)


FLEETS = {
    "noon-2 realified": lambda: Homotopy.total_degree(noon(2), seed=3),
    "katsura-3 realified": lambda: Homotopy.total_degree(katsura(3), seed=3),
    "cyclic-3 complex": lambda: Homotopy.total_degree(
        cyclic(3), seed=3, backend="complex"
    ),
}


@pytest.mark.parametrize("limbs", LIMBS)
@pytest.mark.parametrize("fleet_name", sorted(FLEETS))
def test_recorded_fleet_sub_batches_match_the_scalar_loop(
    monkeypatch, fleet_name, limbs
):
    """Every sub-batch of a real fleet, recorded as the fleet ran it."""
    homotopy = FLEETS[fleet_name]()
    recorded = []
    control = fleet_module._control_steps

    def recording(approximants, solution, paths, states, **kwargs):
        snapshots = [SimpleNamespace(**vars(state)) for state in states]
        result = control(approximants, solution, paths, states, **kwargs)
        recorded.append(
            (approximants, solution.copy(), paths, snapshots, kwargs, result)
        )
        return result

    monkeypatch.setattr(fleet_module, "_control_steps", recording)
    steps, paths = (3, 3) if limbs <= 2 else (1, 2)
    homotopy.track_fleet(
        homotopy.start_solutions()[:paths],
        tol=1e-8,
        order=8,
        max_steps=steps,
        precision_ladder=(limbs,),
    )
    assert recorded
    for approximants, solution, paths, snapshots, kwargs, result in recorded:
        expected = oracle.control_steps(
            approximants, solution, paths, snapshots, **kwargs
        )
        assert_controls_match(expected, result)
