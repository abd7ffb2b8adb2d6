"""Narrow launches: md.generic on Python floats, bit for bit the generic backend.

The fused backend runs a launch whose output plane holds at most a
per-``(op, m)`` element count through :mod:`repro.exec.narrow`, which
replays the limb-tuple arithmetic of :mod:`repro.md.generic` element by
element on Python floats.  The oracle here is :class:`GenericBackend`,
which runs the same arithmetic on whole NumPy limb planes.  Every
comparison views the results as int64, so the sign of a zero and the
payload of a NaN count.

A launch the replay declines, or whose replayed result holds a NaN,
must come out of the fused kernel: those tests compare with the same
launch run with the replay table emptied.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest

from repro.exec import FusedBackend, GenericBackend, narrow

# inf/nan operands and overflowing launches warn in the kernels alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

PRECISIONS = [2, 4, 8]
BINARY = ("add", "sub", "mul", "div")
UNARY = ("sqr", "sqrt")
OPS = BINARY + UNARY
MAX = np.finfo(np.float64).max

limbs_param = pytest.mark.parametrize("limbs", PRECISIONS, ids=lambda m: f"{m}d")
op_param = pytest.mark.parametrize("op", OPS)


@pytest.fixture(scope="module")
def fused():
    return FusedBackend()


@pytest.fixture(scope="module")
def generic():
    return GenericBackend()


class Spy:
    """Counts the launches :func:`narrow._replay` runs."""

    def __init__(self, monkeypatch):
        self.calls = 0
        replay = narrow._replay

        def counting(*args):
            self.calls += 1
            return replay(*args)

        monkeypatch.setattr(narrow, "_replay", counting)


@pytest.fixture
def spy(monkeypatch):
    return Spy(monkeypatch)


def widest(op, limbs):
    return narrow._WIDEST[(op, limbs)]


def expansion(rng, limbs, shape, positive=False):
    """Normalized ``limbs``-limb expansions of the given element shape."""
    data = np.empty((limbs, *shape))
    data[0] = rng.standard_normal(shape)
    if positive:
        data[0] = np.abs(data[0]) + 0.5
    for k in range(1, limbs):
        data[k] = data[k - 1] * 2.0**-53 * rng.standard_normal(shape)
    return data


def operands(rng, op, limbs, *shapes):
    """The operands of one ``op`` launch; operand ``i`` has element
    shape ``shapes[i]`` (the last shape repeats) and ``limbs[i]`` limbs
    when ``limbs`` is a tuple.  A ``sqrt`` radicand is positive."""
    arity = 2 if op in BINARY else 1
    counts = limbs if isinstance(limbs, tuple) else (limbs,) * arity
    return [
        expansion(rng, counts[i], shapes[min(i, len(shapes) - 1)], positive=op == "sqrt")
        for i in range(arity)
    ]


def same_bits(result, reference) -> bool:
    return result.shape == reference.shape and np.array_equal(
        result.view(np.int64), reference.view(np.int64)
    )


def kernel_result(monkeypatch, fused, op, stacks, m=None):
    """The launch as the fused kernel runs it, the replay turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(narrow, "_WIDEST", {})
        return getattr(fused, op)(*stacks, m)


def replayed(op, stacks, m):
    """``narrow``'s result for the launch, or None when it declines."""
    return narrow.launch(op, m, *stacks)


# ---------------------------------------------------------------------------
# identity against the generic backend
# ---------------------------------------------------------------------------


class TestIdentity:
    @op_param
    @limbs_param
    def test_planes_up_to_the_limit(self, fused, generic, spy, rng, op, limbs):
        for n in range(1, widest(op, limbs) + 1):
            stacks = operands(rng, op, limbs, (n,))
            assert replayed(op, stacks, limbs) is not None
            assert same_bits(getattr(fused, op)(*stacks), getattr(generic, op)(*stacks))
        assert spy.calls == 2 * widest(op, limbs)

    @op_param
    @limbs_param
    def test_one_past_the_limit_runs_the_kernel(self, fused, generic, spy, rng, op, limbs):
        stacks = operands(rng, op, limbs, (widest(op, limbs) + 1,))
        assert replayed(op, stacks, limbs) is None
        assert same_bits(getattr(fused, op)(*stacks), getattr(generic, op)(*stacks))
        assert spy.calls == 0

    @pytest.mark.parametrize("op", BINARY)
    @limbs_param
    def test_broadcast_and_0d_shapes(self, fused, generic, spy, rng, op, limbs):
        w = widest(op, limbs)
        pairs = [((), ()), ((), (w,)), ((w,), ()), ((w, 1), (1,)), ((1, 1), (w,))]
        if w >= 4:
            pairs.append(((2, 1), (1, 2)))
        for shapes in pairs:
            stacks = operands(rng, op, limbs, *shapes)
            result = getattr(fused, op)(*stacks)
            assert same_bits(result, getattr(generic, op)(*stacks)), shapes
            assert result.shape == (limbs, *np.broadcast_shapes(*shapes))
            assert result.flags.c_contiguous and result.dtype == np.float64
            assert not any(np.shares_memory(result, s) for s in stacks)
        assert spy.calls == len(pairs)

    @pytest.mark.parametrize("op", UNARY)
    @limbs_param
    def test_0d_and_2d_unary_shapes(self, fused, generic, spy, rng, op, limbs):
        shapes = [(), (1, widest(op, limbs)), (widest(op, limbs), 1)]
        for shape in shapes:
            stacks = operands(rng, op, limbs, shape)
            result = getattr(fused, op)(*stacks)
            assert same_bits(result, getattr(generic, op)(*stacks)), shape
            assert result.shape == (limbs, *shape) and result.flags.c_contiguous
        assert spy.calls == len(shapes)

    @pytest.mark.parametrize("op", BINARY)
    @pytest.mark.parametrize(
        "counts", [(1, 4), (4, 1), (2, 4), (4, 8), (8, 4)], ids=lambda c: f"{c[0]}x{c[1]}"
    )
    @pytest.mark.parametrize("m", [2, 4])
    def test_mixed_limb_counts(self, fused, generic, spy, rng, op, counts, m):
        stacks = operands(rng, op, counts, (1,))
        result = getattr(fused, op)(*stacks, m)
        assert same_bits(result, getattr(generic, op)(*stacks, m))
        assert result.shape == (m, 1)
        assert spy.calls == 1

    @pytest.mark.parametrize("op", UNARY)
    @pytest.mark.parametrize("counts", [1, 2, 8])
    def test_mixed_limb_counts_unary(self, fused, generic, spy, rng, op, counts):
        stacks = operands(rng, op, counts, (1,))
        assert same_bits(getattr(fused, op)(*stacks, 4), getattr(generic, op)(*stacks, 4))
        assert spy.calls == 1

    @op_param
    @limbs_param
    def test_fuzz(self, fused, generic, monkeypatch, rng, op, limbs):
        """One-element launches with heads log-uniform over 1e+-300 and
        about 10% zeros of each sign: a replayed result equals the
        generic backend's, every other one the fused kernel's."""
        replays = 0
        for _ in range(40 if limbs < 8 else 12):
            stacks = operands(rng, op, limbs, (1,))
            for stack in stacks:
                draw = rng.random()
                scale = 0.0 if draw < 0.2 else 10.0 ** rng.uniform(-300, 300)
                stack *= -scale if draw < 0.1 else scale
                if op == "sqrt":
                    stack *= math.copysign(1.0, stack[0, 0])
            result = getattr(fused, op)(*stacks)
            if replayed(op, stacks, limbs) is not None:
                replays += 1
                assert same_bits(result, getattr(generic, op)(*stacks))
            else:
                assert same_bits(result, kernel_result(monkeypatch, fused, op, stacks))
        assert replays > 0

    @pytest.mark.parametrize("head", [0.0, -0.0], ids=["+0", "-0"])
    @limbs_param
    def test_sqrt_of_a_zero_head_is_replayed(self, fused, generic, spy, head, limbs):
        x = np.zeros((limbs, 1))
        x[0] = head
        assert same_bits(fused.sqrt(x), generic.sqrt(x))
        assert spy.calls == 1


# ---------------------------------------------------------------------------
# declines: the fused kernel runs, and the replay never starts
# ---------------------------------------------------------------------------


class TestDecline:
    @op_param
    @limbs_param
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
    def test_a_non_finite_limb_anywhere_declines(
        self, fused, monkeypatch, spy, rng, op, limbs, value
    ):
        n = widest(op, limbs)
        for index in range(2 if op in BINARY else 1):
            for limb in range(limbs):
                stacks = operands(rng, op, limbs, (n,))
                stacks[index][limb, n - 1] = value
                assert replayed(op, stacks, limbs) is None
                assert same_bits(
                    getattr(fused, op)(*stacks),
                    kernel_result(monkeypatch, fused, op, stacks),
                )
        assert spy.calls == 0

    @limbs_param
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("lower", [False, True], ids=["zero", "nonzero-tail"])
    def test_a_zero_divisor_head_declines(
        self, fused, monkeypatch, spy, rng, limbs, zero, lower
    ):
        x, y = operands(rng, "div", limbs, (widest("div", limbs),))
        y[:, -1] = 0.0
        y[0, -1] = zero
        if lower:
            y[1:, -1] = 2.0**-60
        assert replayed("div", (x, y), limbs) is None
        assert same_bits(fused.div(x, y), kernel_result(monkeypatch, fused, "div", (x, y)))
        assert spy.calls == 0

    @limbs_param
    def test_a_negative_radicand_head_declines(self, fused, monkeypatch, spy, rng, limbs):
        (x,) = operands(rng, "sqrt", limbs, (widest("sqrt", limbs),))
        x[:, -1] *= -1.0
        assert replayed("sqrt", (x,), limbs) is None
        assert same_bits(fused.sqrt(x), kernel_result(monkeypatch, fused, "sqrt", (x,)))
        assert spy.calls == 0

    @op_param
    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_an_unlisted_m_declines(self, fused, generic, spy, rng, op, m):
        stacks = operands(rng, op, 2, (1,))
        assert replayed(op, stacks, m) is None
        assert same_bits(getattr(fused, op)(*stacks, m), getattr(generic, op)(*stacks, m))
        assert spy.calls == 0

    @op_param
    def test_an_empty_plane_declines(self, fused, spy, op):
        stacks = [np.ones((2, 0))] * (2 if op in BINARY else 1)
        assert replayed(op, stacks, 2) is None
        assert getattr(fused, op)(*stacks).shape == (2, 0)
        assert spy.calls == 0


# ---------------------------------------------------------------------------
# a NaN result is discarded: the fused kernel's bits, call after call
# ---------------------------------------------------------------------------

# finite operands whose float sequence overflows into inf - inf: sums
# and quotients at the top of the range, splits above SPLIT_THRESHOLD
OVERFLOWING = {
    "add": (MAX, MAX),
    "sub": (MAX, -MAX),
    "mul": (2.0**1000, 3.0),
    "div": (MAX, 2.0**-10),
    "sqr": (2.0**1000,),
    "sqrt": (MAX,),
}


class TestNaNDiscard:
    @op_param
    @limbs_param
    def test_overflowing_operands_give_the_kernels_bits(
        self, fused, monkeypatch, spy, op, limbs
    ):
        stacks = []
        for head in OVERFLOWING[op]:
            stack = np.zeros((limbs, 1))
            stack[0] = head
            stacks.append(stack)
        expected = kernel_result(monkeypatch, fused, op, stacks)
        assert np.isnan(expected).any()  # the launch really overflows
        for _ in range(12):
            assert same_bits(getattr(fused, op)(*stacks), expected)
        assert spy.calls == 12  # replayed every time, and discarded


# ---------------------------------------------------------------------------
# the launch order
# ---------------------------------------------------------------------------


class TestLaunchOrder:
    @op_param
    def test_fused_tries_the_replay_after_one_limb(self, fused, monkeypatch, op):
        marker = np.full((2, 1), 42.0)
        monkeypatch.setattr(narrow, "launch", lambda *args: marker)
        stacks = [np.ones((2, 1))] * (2 if op in BINARY else 1)
        assert getattr(fused, op)(*stacks) is marker
        one = [np.ones((1, 1))] * len(stacks)
        assert getattr(fused, op)(*one) is not marker  # d launches take onelimb

    @op_param
    def test_generic_never_replays(self, generic, monkeypatch, rng, op):
        monkeypatch.setattr(narrow, "launch", refuse)
        getattr(generic, op)(*operands(rng, op, 2, (1,)))

    @op_param
    def test_another_array_module_skips_the_replay(self, generic, monkeypatch, rng, op):
        """The replay reads host floats, so a backend on another array
        module (a stand-in that only allocates) runs its kernels."""
        device = FusedBackend(xp=types.SimpleNamespace(empty=np.empty, __name__="device"))
        monkeypatch.setattr(narrow, "launch", refuse)
        stacks = operands(rng, op, 2, (1,))
        assert same_bits(getattr(device, op)(*stacks), getattr(generic, op)(*stacks))


def refuse(*args):
    raise AssertionError("the replay was called")
