"""One-limb launches: plain IEEE double kernels, bit for bit the expansion path.

Both backends run a launch with ``m == 1`` and one-limb operands through
:mod:`repro.exec.onelimb` first.  The oracle here is
:mod:`repro.md.generic` itself, called on one-limb tuples at ``m = 1``.
Every comparison views the results as int64, so the sign of a zero and
the payload of a NaN count.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.exec import FusedBackend, GenericBackend, onelimb
from repro.md import generic as mdgeneric

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
