"""One-limb launches: plain IEEE double kernels, bit for bit the expansion path.

Both backends run a launch with ``m == 1`` and one-limb operands through
:mod:`repro.exec.onelimb` first.  The oracle here is
:mod:`repro.md.generic` itself, called on one-limb tuples at ``m = 1``.
Every comparison views the results as int64, so the sign of a zero and
the payload of a NaN count.

``div``, ``sqrt`` and one-limb pairwise sums check their operands once
against a window and, inside it, run their step sequence without step
guards.  The window tests run the proofs of the module docstring: inside
a window the guarded step sequence declines no step, and outside it the
kernel takes exactly the guarded sequence's decision and bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.exec import FusedBackend, GenericBackend, onelimb, use_backend
from repro.md import generic as mdgeneric
from repro.vec.linalg import cauchy_product
from repro.vec.mdarray import MDArray, pairwise_reduce

# inf/nan operands and overflowing products warn in both paths alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

MAX = np.finfo(np.float64).max
GRID = (
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -2.0**-1022, 2.0**-969, 1.0,
    2.0**995, 2.0**996, MAX, -MAX, math.inf, -math.inf, math.nan,
)
SIGNED_ZEROS = (0.0, -0.0, 1.0, -1.0)
BINARY = ("add", "sub", "mul", "div")
UNARY = ("sqr", "sqrt")
OPS = BINARY + UNARY


@pytest.fixture(params=["generic", "fused"])
def backend(request):
    return GenericBackend() if request.param == "generic" else FusedBackend()


def stack(values):
    """A one-limb stack over the given element values."""
    return np.asarray(values, dtype=np.float64)[None]


def oracle(op, *stacks):
    limbs = getattr(mdgeneric, op)(*[(s[0],) for s in stacks], 1)
    return np.stack(np.broadcast_arrays(*limbs), axis=0)


def same_bits(result, reference) -> bool:
    return result.shape == reference.shape and np.array_equal(
        result.view(np.int64), reference.view(np.int64)
    )


def grid_mismatches(backend, op, values):
    """Every one-element launch over ``values`` (pairs for binary ops)
    whose backend result differs from the oracle in any bit.

    The launches have element shape ``(1,)``, not ``()``: on a 0-d stack
    the oracle's limbs are NumPy scalars, whose NaN sign propagation
    differs from the array loops the fused backend runs.
    """
    arity = 2 if op in BINARY else 1
    bad = []
    for operands in itertools.product(values, repeat=arity):
        stacks = [stack([v]) for v in operands]
        if not same_bits(getattr(backend, op)(*stacks), oracle(op, *stacks)):
            bad.append(operands)
    return bad


def fuzz(rng, n):
    """Log-uniform magnitudes across 1e+-300, random signs, about 10%
    zeros of each sign."""
    values = 10.0 ** rng.uniform(-300, 300, n) * rng.choice((-1.0, 1.0), n)
    draw = rng.random(n)
    values[draw < 0.1] = 0.0
    values[(draw >= 0.1) & (draw < 0.2)] = -0.0
    return values


# ---------------------------------------------------------------------------
# identity against md.generic
# ---------------------------------------------------------------------------


class TestIdentity:
    @pytest.mark.parametrize("op", OPS)
    def test_special_value_grid(self, backend, op):
        assert grid_mismatches(backend, op, GRID) == []

    @pytest.mark.parametrize("op", BINARY)
    def test_grid_as_one_broadcast_launch(self, backend, op):
        x = stack(GRID).reshape(1, -1, 1)
        y = stack(GRID).reshape(1, 1, -1)
        assert same_bits(getattr(backend, op)(x, y), oracle(op, x, y))

    @pytest.mark.parametrize("op", OPS)
    def test_fuzz(self, backend, rng, op):
        """Launches of two elements: some in range, some declined; the
        results match either way."""
        vouched = 0
        for _ in range(300):
            x = stack(fuzz(rng, 2))
            y = stack(fuzz(rng, 2))
            if op == "sqrt":
                x = np.abs(x)
            operands = (x, y) if op in BINARY else (x,)
            vouched += getattr(onelimb, op)(*operands, 1) is not None
            assert same_bits(getattr(backend, op)(*operands), oracle(op, *operands))
        assert vouched > 0

    @pytest.mark.parametrize("op", BINARY)
    def test_cancelling_pairs(self, backend, rng, op):
        a = 10.0 ** rng.uniform(-300, 300, 4096) * rng.choice((-1.0, 1.0), 4096)
        tiny = a * 2.0**-45 * rng.standard_normal(4096)
        x, y = stack(a), stack(-a + tiny)
        assert same_bits(getattr(backend, op)(x, y), oracle(op, x, y))

    @pytest.mark.parametrize("op", BINARY)
    @pytest.mark.parametrize(
        "xs, ys", [((), ()), ((7, 1), (1, 6)), ((), (5,)), ((70000,), (70000,)),
                   ((300, 256), (1, 256))],
        ids=["0d", "broadcast", "scalar-mixed", "wide", "wide-broadcast"],
    )
    def test_shapes_binary(self, backend, rng, op, xs, ys):
        x = stack(rng.standard_normal(xs))
        y = stack(rng.standard_normal(ys))
        assert getattr(onelimb, op)(x, y, 1) is not None
        assert same_bits(getattr(backend, op)(x, y), oracle(op, x, y))

    @pytest.mark.parametrize("op", UNARY)
    @pytest.mark.parametrize("shape", [(), (7, 6), (70000,)], ids=str)
    def test_shapes_unary(self, backend, rng, op, shape):
        x = stack(np.abs(rng.standard_normal(shape)))
        assert getattr(onelimb, op)(x, 1) is not None
        assert same_bits(getattr(backend, op)(x), oracle(op, x))


# ---------------------------------------------------------------------------
# the guard: vouch in range, decline every out-of-range class
# ---------------------------------------------------------------------------


class TestGuard:
    @pytest.mark.parametrize("op", OPS)
    def test_in_range_launches_run_one_limb(self, rng, op):
        x = stack(rng.uniform(0.5, 2.0, (4, 5)))
        y = stack(rng.standard_normal((4, 5)))
        operands = (x, y) if op in BINARY else (x,)
        assert getattr(onelimb, op)(*operands, 1) is not None

    @pytest.mark.parametrize(
        "op, x, y",
        [
            ("add", [1.0, math.inf], [1.0, 1.0]),  # non-finite operand
            ("add", [1.0, math.nan], [1.0, 1.0]),
            ("add", [1.0, MAX], [1.0, MAX]),  # overflowing sum
            ("add", [1.0, -3 * 2.0**970], [1.0, MAX]),  # 2Sum overflows in s - a
            ("sub", [1.0, 2.0**1022], [1.0, -2.0**1022]),
            ("mul", [1.0, 2.0**996], [1.0, 2.0**-100]),  # split overflow
            ("mul", [1.0, 2.0**996 - 2.0**955], [1.0, 2.0**28]),  # split halves overflow
            ("mul", [1.0, 2.0**-500], [1.0, 2.0**-500]),  # split halves underflow
            ("mul", [1.0, 5e-324], [1.0, 3.0]),
            ("div", [1.0, 1.0], [1.0, 0.0]),  # division by zero
            ("div", [1.0, 2.0**-1000], [1.0, 2.0**20]),  # remainder product underflows
            ("div", [1.0, MAX], [1.0, 2.0**-10]),  # quotient overflows
        ],
        ids=[
            "inf", "nan", "sum-overflow", "2sum-spurious-overflow", "sub-overflow",
            "split-overflow", "product-overflow", "product-underflow",
            "subnormal-product", "div-by-zero", "div-underflow", "div-overflow",
        ],
    )
    def test_out_of_range_launches_decline(self, backend, op, x, y):
        # one bad element declines the whole launch, and the expansion
        # path still gives the oracle's bits
        x, y = stack(x), stack(y)
        assert getattr(onelimb, op)(x, y, 1) is None
        assert same_bits(getattr(backend, op)(x, y), oracle(op, x, y))

    @pytest.mark.parametrize(
        "op, x",
        [
            ("sqr", [1.0, 2.0**996]),
            ("sqr", [1.0, 2.0**-485]),
            ("sqr", [1.0, math.nan]),
            ("sqrt", [1.0, -1.0]),
            ("sqrt", [1.0, math.inf]),
            ("sqrt", [1.0, 2.0**-1070]),
        ],
        ids=["sqr-overflow", "sqr-underflow", "sqr-nan", "sqrt-negative",
             "sqrt-inf", "sqrt-subnormal"],
    )
    def test_out_of_range_unary_launches_decline(self, backend, op, x):
        x = stack(x)
        assert getattr(onelimb, op)(x, 1) is None
        assert same_bits(getattr(backend, op)(x), oracle(op, x))

    @pytest.mark.parametrize(
        "op, ieee, a, b",
        [("add", np.add, -3 * 2.0**970, MAX),
         ("mul", np.multiply, 2.0**996 - 2.0**955, 2.0**28)],
        ids=["2sum-overflow", "split-half-overflow"],
    )
    def test_the_guarded_cases_really_differ(self, op, ieee, a, b):
        """The guards are needed: on these inputs the expansion path
        returns a non-finite limb where the plain IEEE result is finite."""
        assert np.isfinite(ieee(a, b))
        assert not np.isfinite(oracle(op, stack(a), stack(b))).all()

    @pytest.mark.parametrize("op", OPS)
    def test_multi_limb_launches_are_not_one_limb(self, op):
        one, two = stack([1.5, 2.5]), np.array([[1.5, 2.5], [0.0, 0.0]])
        if op in BINARY:
            assert getattr(onelimb, op)(one, two, 1) is None
            assert getattr(onelimb, op)(one, one, 2) is None
        else:
            assert getattr(onelimb, op)(two, 1) is None
            assert getattr(onelimb, op)(one, 2) is None

    @pytest.mark.parametrize("op", OPS)
    def test_backends_call_the_kernel_first(self, backend, monkeypatch, op):
        marker = stack([42.0])
        monkeypatch.setattr(onelimb, op, lambda *args: marker)
        operands = (stack([1.0]), stack([2.0]))[: 2 if op in BINARY else 1]
        assert getattr(backend, op)(*operands) is marker


# ---------------------------------------------------------------------------
# seeded failure: the identity check can fire
# ---------------------------------------------------------------------------


class TestSeededFailure:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_kernels_without_plus_zero_fail_on_signed_zeros(
        self, backend, monkeypatch, op
    ):
        assert grid_mismatches(backend, op, SIGNED_ZEROS) == []
        monkeypatch.setattr(onelimb, "_settle", lambda v: v)
        assert grid_mismatches(backend, op, SIGNED_ZEROS) != []

    @pytest.mark.parametrize(
        "name, window, x, y",
        [("sqrt", "SQRT_WINDOW", [1.0, 1.5 * 2.0**1000], None),
         ("div", "DIV_WINDOW", [1.0, 2.0**1000], [1.0, 2.0**-10])],
    )
    def test_widened_windows_fail_on_the_split_overflow(
        self, backend, monkeypatch, name, window, x, y
    ):
        """Widened to ``2**1023``, a window vouches for a launch whose
        expansion path overflows a Veltkamp split and returns NaN."""
        operands = (stack(x),) if y is None else (stack(x), stack(y))
        assert same_bits(getattr(backend, name)(*operands), oracle(name, *operands))
        low, _ = getattr(onelimb, window)
        monkeypatch.setattr(onelimb, window, (low, 2.0**1023))
        assert not same_bits(getattr(backend, name)(*operands), oracle(name, *operands))

    def test_tree_bound_without_its_n_factor_fails(self, backend, monkeypatch):
        """Eight terms just below ``2**1022`` overflow the third level:
        the expansion path returns NaN, the plain tree inf."""
        data = stack([2.0**1022 * (1 - 2.0**-20)] * 8)
        with use_backend(backend):
            assert same_bits(MDArray(data).sum(axis=0).data, tree_oracle(data, 1))
            window = onelimb._tree_window
            monkeypatch.setattr(onelimb, "_tree_window", lambda data, n: window(data, 1))
            assert not same_bits(MDArray(data).sum(axis=0).data, tree_oracle(data, 1))


# ---------------------------------------------------------------------------
# windows: one check per launch, proved to vouch for every step guard
# ---------------------------------------------------------------------------

SQRT_LOW, SQRT_HIGH = onelimb.SQRT_WINDOW
DIV_LOW, DIV_HIGH = onelimb.DIV_WINDOW


def below(v):
    return float(np.nextafter(v, 0.0))


def above(v):
    return float(np.nextafter(v, math.inf))


def tree_edge(n):
    """The largest ``max|x|`` the tree bound admits over ``n`` terms."""
    big = onelimb.SUM_LIMIT / n
    while not n * big * onelimb.TREE_SLACK < onelimb.SUM_LIMIT:
        big = below(big)
    while n * above(big) * onelimb.TREE_SLACK < onelimb.SUM_LIMIT:
        big = above(big)
    return big


def span(low, high, count=25):
    """Magnitudes from ``low`` to ``high`` with alternating signs."""
    values = np.geomspace(low, high, count)
    values[1::2] *= -1.0
    return values


def step_sequence(op, *stacks):
    """``div`` or ``sqrt`` as the guarded step sequence every launch ran
    before the windows: its result, or None where a step guard declines."""
    run = onelimb._quotient if op == "div" else onelimb._newton_sqrt
    try:
        return run(*stacks, onelimb._GUARDED)
    except onelimb._Unvouched:
        return None


def same_decision(result, reference) -> bool:
    if result is None or reference is None:
        return result is None and reference is None
    return same_bits(result, reference)


def tree_levels(data, axis):
    """A pairwise sum of ``data`` with every level its own guarded
    one-limb ``add`` launch (the md.generic oracle where one declines):
    the sum and each level's decision (True: vouched)."""
    decisions = []

    def combine(first, second):
        out = onelimb.add(first, second, 1)
        decisions.append(out is not None)
        return oracle("add", first, second) if out is None else out

    return pairwise_reduce(data, axis, combine, np.zeros), decisions


def tree_oracle(data, axis):
    """The pairwise tree with md.generic's ``add`` on every level."""
    return pairwise_reduce(data, axis, lambda a, b: oracle("add", a, b), np.zeros)


def backend_sum(backend, data):
    with use_backend(backend):
        return MDArray(data).sum(axis=-1).data


SQRT_INSIDE = {
    "low-edge": [SQRT_LOW],
    "high-edge": [SQRT_HIGH],
    "signed-zeros": [0.0, -0.0],
    "edges-and-zeros": [-0.0, SQRT_LOW, 0.0, SQRT_HIGH],
    "span": np.append(np.abs(span(SQRT_LOW, SQRT_HIGH)), [0.0, -0.0]),
}
SQRT_OUTSIDE = {
    "below-low": [1.0, below(SQRT_LOW)],
    "above-high": [1.0, above(SQRT_HIGH)],
    "negative-subnormal": [1.0, -5e-324],
    "negative": [0.0, -SQRT_LOW],
    "subnormal": [5e-324, 1.0],
    "largest": [MAX],
    "inf": [1.0, math.inf],
    "nan": [1.0, math.nan],
}
DIV_INSIDE = {
    "edges": ([DIV_LOW, DIV_HIGH, -DIV_LOW, -DIV_HIGH],
              [DIV_HIGH, DIV_LOW, -DIV_LOW, DIV_HIGH]),
    "signed-zeros": ([0.0, -0.0, 0.0, -0.0], [DIV_LOW, DIV_LOW, -DIV_HIGH, -DIV_HIGH]),
    "span": (np.append(span(DIV_LOW, DIV_HIGH), [0.0, -0.0]),
             np.append(span(DIV_HIGH, DIV_LOW), [DIV_LOW, -DIV_HIGH])),
}
DIV_OUTSIDE = {
    "dividend-below-low": ([1.0, below(DIV_LOW)], [1.0, 1.0]),
    "dividend-above-high": ([1.0, above(DIV_HIGH)], [1.0, 1.0]),
    "divisor-below-low": ([1.0, 1.0], [1.0, below(DIV_LOW)]),
    "divisor-above-high": ([1.0, 1.0], [1.0, -above(DIV_HIGH)]),
    "divisor-zero": ([1.0, 1.0], [1.0, 0.0]),
    "divisor-negative-zero": ([1.0, 1.0], [1.0, -0.0]),
    "dividend-inf": ([1.0, math.inf], [1.0, 1.0]),
    "divisor-nan": ([1.0, 1.0], [1.0, math.nan]),
    "remainder-underflow": ([1.0, 2.0**-1000], [1.0, 2.0**20]),
    "quotient-overflow": ([1.0, MAX], [1.0, 2.0**-10]),
}
TREE_INSIDE = {
    "edge": [tree_edge(4), tree_edge(4), tree_edge(4), tree_edge(4)],
    "signed-zeros": [0.0, -0.0, -0.0, -0.0, 0.0],
    "cancelling-edge": [tree_edge(3), -tree_edge(3), -0.0],
    "span": np.append(span(5e-324, tree_edge(27)), [0.0, -0.0]),
}
TREE_OUTSIDE = {
    "above-edge": [above(tree_edge(4)), tree_edge(4), tree_edge(4), tree_edge(4)],
    "overflowing-level": [2.0**1021] * 4,
    "2sum-spurious-overflow": [-3 * 2.0**970, MAX],
    "inf": [1.0, math.inf, 2.0],
    "nan": [1.0, 2.0, math.nan],
}


def cases(table):
    return pytest.mark.parametrize("values", list(table.values()), ids=list(table))


class TestWindows:
    @cases(SQRT_INSIDE)
    def test_sqrt_inside_its_window(self, backend, values):
        for x in (stack(values), np.broadcast_to(stack(values), (1, 3, len(values)))):
            assert onelimb._sqrt_window(x)
            steps = step_sequence("sqrt", x)
            assert steps is not None  # no step guard declines
            assert same_bits(onelimb.sqrt(x, 1), steps)
            assert same_bits(backend.sqrt(x), oracle("sqrt", x))

    @cases(SQRT_OUTSIDE)
    def test_sqrt_outside_its_window_runs_the_steps(self, backend, values):
        x = stack(values)
        assert not onelimb._sqrt_window(x)
        assert same_decision(onelimb.sqrt(x, 1), step_sequence("sqrt", x))
        assert same_bits(backend.sqrt(x), oracle("sqrt", x))

    @cases(DIV_INSIDE)
    def test_div_inside_its_window(self, backend, values):
        x, y = stack(values[0]), stack(values[1])
        broadcast = (x.reshape(1, -1, 1), y.reshape(1, 1, -1))
        for operands in ((x, y), broadcast):
            assert onelimb._div_window(*operands)
            steps = step_sequence("div", *operands)
            assert steps is not None
            assert same_bits(onelimb.div(*operands, 1), steps)
            assert same_bits(backend.div(*operands), oracle("div", *operands))

    @cases(DIV_OUTSIDE)
    def test_div_outside_its_window_runs_the_steps(self, backend, values):
        x, y = stack(values[0]), stack(values[1])
        assert not onelimb._div_window(x, y)
        assert same_decision(onelimb.div(x, y, 1), step_sequence("div", x, y))
        assert same_bits(backend.div(x, y), oracle("div", x, y))

    @cases(TREE_INSIDE)
    def test_tree_inside_its_bound(self, backend, values):
        data = stack(values)
        for operand in (data, np.broadcast_to(data[:, None], (1, 3, len(values)))):
            axis = operand.ndim - 1
            assert onelimb.sum_tree(operand, axis, 1) is not None
            steps, decisions = tree_levels(operand, axis)
            assert all(decisions) and len(decisions) == math.ceil(math.log2(len(values)))
            assert same_bits(backend_sum(backend, operand), steps)
            assert same_bits(steps, tree_oracle(operand, axis))

    @cases(TREE_OUTSIDE)
    def test_tree_outside_its_bound_runs_each_level(self, backend, monkeypatch, values):
        data = stack(values)
        assert onelimb.sum_tree(data, 1, 1) is None
        _, expected = tree_levels(data, 1)
        decisions, add = [], onelimb.add

        def spied(x, y, m):
            out = add(x, y, m)
            decisions.append(out is not None)
            return out

        monkeypatch.setattr(onelimb, "add", spied)
        assert same_bits(backend_sum(backend, data), tree_oracle(data, 1))
        assert decisions == expected

    def test_multi_limb_sums_take_no_plain_tree(self):
        data = np.ones((2, 4))
        assert onelimb.sum_tree(data, 1, 2) is None
        assert onelimb.sum_tree(data[:1], 1, 2) is None


def window_fuzz(rng, size=None):
    """A launch of 1-11 elements: log-uniform magnitudes over 1e+-320,
    1e+-90 (about the sqrt window) or 1e+-72 and 1e+-36 (inside the div
    window), random signs, and a quarter of special values: zeros of
    both signs, window edges and their neighbours, subnormals, inf and
    nan."""
    if size is None:
        size = int(rng.integers(1, 12))
    reach = rng.choice((320.0, 90.0, 72.0, 36.0))
    values = 10.0 ** rng.uniform(-reach, reach, size) * rng.choice((-1.0, 1.0), size)
    specials = np.array([
        0.0, SQRT_LOW, SQRT_HIGH, below(SQRT_LOW), above(SQRT_HIGH), DIV_LOW,
        DIV_HIGH, below(DIV_LOW), above(DIV_HIGH), 5e-324, MAX, math.inf, math.nan,
    ])
    special = rng.random(size) < 0.25
    values[special] = rng.choice(specials, special.sum()) * rng.choice(
        (-1.0, 1.0), special.sum()
    )
    return stack(values)


class TestWindowFuzz:
    """The windowed kernels against the guarded step sequences: the
    same decision on every launch and, where vouched, the same bits."""

    ROUNDS = 3000

    def test_sqrt(self, rng):
        inside = 0
        for _ in range(self.ROUNDS):
            x = window_fuzz(rng)
            if rng.random() < 0.7:
                x = np.abs(x)
            inside += bool(onelimb._sqrt_window(x))
            assert same_decision(onelimb.sqrt(x, 1), step_sequence("sqrt", x))
        assert inside > self.ROUNDS // 20

    def test_div(self, rng):
        inside = 0
        for _ in range(self.ROUNDS):
            x = window_fuzz(rng)
            if rng.random() < 0.3:  # a broadcast launch
                x, y = x.reshape(1, -1, 1), window_fuzz(rng).reshape(1, 1, -1)
            else:
                y = window_fuzz(rng, x.shape[1])
            inside += bool(onelimb._div_window(x, y))
            assert same_decision(onelimb.div(x, y, 1), step_sequence("div", x, y))
        assert inside > self.ROUNDS // 20

    def test_tree(self, rng):
        inside = 0
        for _ in range(self.ROUNDS):
            data = window_fuzz(rng)
            if onelimb.sum_tree(data, 1, 1) is None:
                continue
            inside += 1
            steps, decisions = tree_levels(data, 1)
            assert all(decisions)
            assert same_bits(pairwise_reduce(data, 1, onelimb._plain_add, np.zeros), steps)
        assert inside > self.ROUNDS // 20


# ---------------------------------------------------------------------------
# the smallest nonzero magnitude without a masked reduction
# ---------------------------------------------------------------------------


def masked_magnitudes(a):
    """The masked-minimum formula ``_magnitudes`` used before: the
    reference."""
    size = np.abs(a)
    big = float(np.maximum.reduce(size, axis=None, initial=0.0))
    small = float(
        np.minimum.reduce(size, axis=None, initial=math.inf, where=size != 0.0)
    )
    return big, small


@pytest.mark.parametrize(
    "values",
    [[0.0, -0.0], [0.0], [0.0, -0.0, 3.0, -1e-300], [-0.0, 5e-324, -1e-310, 0.0],
     [5e-324], [0.0, math.inf, 1.0], [-math.inf, 0.0], [0.0, math.nan, 1.0],
     [math.nan], [MAX, -0.0, 2.0**-1022]],
    ids=["all-zero", "one-zero", "mixed-zero", "subnormal", "one-subnormal",
         "inf", "inf-and-zero", "nan", "only-nan", "extremes"],
)
def test_magnitudes_match_the_masked_minimum(values):
    a = stack(values)
    for operand in (a, a[:, ::-1], np.broadcast_to(a[:, None], (1, 3, len(values)))):
        assert np.array_equal(
            onelimb._magnitudes(operand), masked_magnitudes(operand), equal_nan=True
        )


def test_magnitudes_fuzz(rng):
    for _ in range(500):
        a = window_fuzz(rng)
        assert np.array_equal(onelimb._magnitudes(a), masked_magnitudes(a), equal_nan=True)


# ---------------------------------------------------------------------------
# step guards per launch (exact counts, no timing)
# ---------------------------------------------------------------------------


class GuardSpy:
    """Counts the step guards of repro.exec.onelimb while installed."""

    def __init__(self, monkeypatch):
        self.products = self.sums = 0
        product_guard, sum_guard = onelimb._product_guard, onelimb._sum_guard

        def product(a, b):
            self.products += 1
            product_guard(a, b)

        def total(s):
            self.sums += 1
            sum_guard(s)

        monkeypatch.setattr(onelimb, "_product_guard", product)
        monkeypatch.setattr(onelimb, "_sum_guard", total)

    def take(self):
        counts = (self.products, self.sums)
        self.products = self.sums = 0
        return counts


class TestStepGuardCounts:
    def test_sqrt_inside_its_window_runs_none(self, backend, monkeypatch):
        x = stack(np.geomspace(SQRT_LOW, SQRT_HIGH, 9))
        spy = GuardSpy(monkeypatch)
        backend.sqrt(x)
        assert spy.take() == (0, 0)
        step_sequence("sqrt", x)  # the guarded sequence: 15 step guards
        assert spy.take() == (9, 6)

    def test_div_inside_its_window_runs_none(self, backend, monkeypatch):
        x, y = stack([3.0, -0.0, 1e-50]), stack([7.0, 2.0, -1e60])
        spy = GuardSpy(monkeypatch)
        backend.div(x, y)
        assert spy.take() == (0, 0)
        step_sequence("div", x, y)
        assert spy.take() == (1, 2)

    def test_order_8_cauchy_product_runs_one_product_guard(self, backend, rng, monkeypatch):
        a, b = (MDArray(stack(rng.standard_normal(9))) for _ in range(2))
        spy = GuardSpy(monkeypatch)
        with use_backend(backend):
            cauchy_product(a, b)
            assert spy.take() == (1, 0)
            # without the tree check each of the 4 levels is an add launch
            monkeypatch.setattr(onelimb, "sum_tree", lambda data, axis, m: None)
            cauchy_product(a, b)
            assert spy.take() == (1, 4)
