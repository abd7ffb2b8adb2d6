"""The renormalization head chain: one scan on narrow planes, bit for bit the loop.

:meth:`FusedBackend._vecsum_window` computes the head chain
``chain[k] = fl(work[lo + k] + chain[k + 1])`` with one
``np.add.accumulate`` on planes of at most ``_SCAN_MAX_PLANE`` elements
and with one add per term above that.  Both must give the same bits, so
every launch here runs three times: as the module ships, with the loop
forced everywhere (the constant patched to 0) and with the scan forced
everywhere (the constant patched above the plane size).  The forced
runs also turn off the narrow replay of :mod:`repro.exec.narrow`, so
on the planes it takes as shipped they still compare the fused
kernel's loop and scan, and the shipped run checks the replay against
both.  Results are compared as int64 views, so zero signs, NaN signs
and NaN payloads count.

The inputs are the ones where a sum's operand order could show:
cancelling term stacks that leave exact zeros (the zero-bubbling swaps
fire), signed zeros, sums near ``2**1023`` that overflow inside 2Sum,
and inf/NaN-heavy operands with NaNs of both signs and a payload NaN.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import FusedBackend, narrow
from repro.exec import fused as fused_module

# overflowing sums and inf/nan operands warn; the bits are the contract
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

PRECISIONS = [2, 4, 8]
PLANES = [1, 24, 256, 257, 600]
KINDS = ["cancelling", "signed_zeros", "overflow", "special"]
OPS = ["add", "sub", "mul", "div", "sqr", "fma", "sqrt", "renormalize"]
ARITY = {"add": 2, "sub": 2, "mul": 2, "div": 2, "sqr": 1, "fma": 3, "sqrt": 1}

NANS = np.array(
    [0x7FF8000000000000, -0x0008000000000000, 0x7FF8000000000ABC], dtype=np.int64
).view(np.float64)  # +NaN, -NaN and a payload NaN
SPECIALS = np.concatenate([NANS, [np.inf, -np.inf]])


@pytest.fixture(scope="module")
def backend():
    return FusedBackend()


def expansion(rng, limbs, n):
    """Normalized expansions; every fourth element (the first included)
    has exact zeros for all its lower limbs, so heads extract as exact
    zeros and the zero-bubbling swaps fire."""
    data = np.empty((limbs, n))
    data[0] = rng.standard_normal(n)
    for k in range(1, limbs):
        data[k] = data[k - 1] * 2.0**-53 * rng.standard_normal(n)
    data[1:, ::4] = 0.0
    return data


def operand(rng, kind, limbs, n):
    """One operand stack of the given input kind."""
    data = expansion(rng, limbs, n)
    if kind == "signed_zeros":
        zeros = rng.choice((0.0, -0.0), size=(limbs, n))
        data = np.where(rng.random(n) < 0.5, data, zeros)
        data[1:] = np.where(rng.random((limbs - 1, n)) < 0.5, zeros[1:], data[1:])
    elif kind == "overflow":
        data[0] = rng.uniform(0.5, 1.0, n) * 2.0**1023 * rng.choice((1.0, -1.0), n)
        data[0, ::3] = np.finfo(np.float64).max
        data[0, 1::3] = -3.0 * 2.0**970
        for k in range(1, limbs):
            data[k] = data[k - 1] * 2.0**-53 * rng.standard_normal(n)
    elif kind == "special":
        hits = rng.random((limbs, n)) < 0.35
        data[hits] = rng.choice(SPECIALS, size=int(hits.sum()))
        # a NaN of the other sign (or payload) below each leading NaN,
        # so chains add two different NaNs
        data[0, :3] = NANS[: min(3, n)]
        data[-1, :3] = -NANS[: min(3, n)]
    return data


def launch(backend, op, kind, limbs, n):
    """Run ``op`` on a launch of ``kind`` seeded by its arguments, so
    every variant sees the same operands."""
    rng = np.random.default_rng([limbs, n, KINDS.index(kind), OPS.index(op)])
    if op == "renormalize":
        # 2*limbs+1 single planes: every extraction and guard pass runs
        terms = operand(rng, kind, 2 * limbs + 1, n)
        if kind == "cancelling":
            terms = np.concatenate([terms, -terms[:2]])
        return backend.renormalize(list(terms), limbs)
    operands = [operand(rng, kind, limbs, n) for _ in range(ARITY[op])]
    if kind == "cancelling" and op in ("add", "sub"):
        # the leading limbs cancel exactly; a third of the elements
        # cancel to zero altogether
        x, y = operands
        sign = -1.0 if op == "add" else 1.0
        y[: limbs // 2] = sign * x[: limbs // 2]
        whole = rng.random(n) < 0.3
        y[:, whole] = sign * x[:, whole]
    elif kind == "cancelling" and op == "fma":
        x, y, z = operands  # z's leading limb cancels x*y's leading term
        z[0] = -(x[0] * y[0])
    elif op == "sqrt":
        operands[0] = operands[0] * np.copysign(1.0, operands[0][0])
    return getattr(backend, op)(*operands)


def variants(backend, monkeypatch, run, widest):
    """``run()`` as shipped, with the loop forced and with the scan
    forced for planes of up to ``widest`` elements.  The forced variants
    turn the narrow replay off, so a plane it would take still runs the
    fused kernel both ways."""
    shipped = run()
    with monkeypatch.context() as patch:
        patch.setattr(narrow, "_WIDEST", {})
        patch.setattr(fused_module, "_SCAN_MAX_PLANE", 0)
        loop = run()
    with monkeypatch.context() as patch:
        patch.setattr(narrow, "_WIDEST", {})
        patch.setattr(fused_module, "_SCAN_MAX_PLANE", widest)
        scan = run()
    return shipped, loop, scan


def same_bits(result, reference) -> bool:
    return result.shape == reference.shape and np.array_equal(
        result.view(np.int64), reference.view(np.int64)
    )


class CountingAccumulate:
    """Counts calls to the module's accumulate handle and the plane
    size each one scanned."""

    def __init__(self):
        self.planes = []

    def __call__(self, terms, axis, out):
        self.planes.append(terms[0].size)
        return np.add.accumulate(terms, axis=axis, out=out)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", PLANES)
@pytest.mark.parametrize("limbs", PRECISIONS, ids=lambda m: f"{m}d")
@pytest.mark.parametrize("op", OPS)
def test_scan_and_loop_agree_bit_for_bit(backend, monkeypatch, op, limbs, n, kind):
    shipped, loop, scan = variants(
        backend, monkeypatch, lambda: launch(backend, op, kind, limbs, n), n
    )
    assert same_bits(shipped, loop)
    assert same_bits(shipped, scan)


@pytest.mark.parametrize("limbs", PRECISIONS, ids=lambda m: f"{m}d")
def test_a_chunked_launch_scans_its_narrow_last_chunk(backend, monkeypatch, limbs):
    """A ``div`` launch cut into chunks: the full chunks run the loop,
    the last one, at most ``_SCAN_MAX_PLANE`` elements wide, scans."""
    probe = [np.ones((limbs, 1)), np.ones((limbs, 1))]
    fit = backend.arena.capacity // backend._scratch_planes(backend._div_into, probe, limbs)
    assert fit > fused_module._SCAN_MAX_PLANE
    n = 2 * fit + 100
    spy = CountingAccumulate()
    monkeypatch.setattr(fused_module, "_accumulate", spy)
    shipped, loop, scan = variants(
        backend, monkeypatch, lambda: launch(backend, "div", "special", limbs, n), n
    )
    assert same_bits(shipped, loop)
    assert same_bits(shipped, scan)
    assert 100 in spy.planes and fit in spy.planes  # shipped: last chunk; forced: all
    assert max(spy.planes[: spy.planes.index(fit)]) == 100  # shipped scans nothing wider


@pytest.mark.parametrize(("n", "scans"), [(1, True), (600, False)])
def test_only_narrow_planes_take_the_scan(backend, monkeypatch, n, scans):
    """A one-element od ``mul`` run by the fused kernel (the narrow
    replay turned off) scans its chains; a 600-element one keeps the
    loop."""
    monkeypatch.setattr(narrow, "_WIDEST", {})
    spy = CountingAccumulate()
    monkeypatch.setattr(fused_module, "_accumulate", spy)
    rng = np.random.default_rng(n)
    backend.mul(expansion(rng, 8, n), expansion(rng, 8, n))
    assert bool(spy.planes) is scans
    assert all(plane == n for plane in spy.planes)
