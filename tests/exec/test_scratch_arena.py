"""The fused backend's scratch lives in one bounded workspace per thread.

Every fused launch carves its scratch from :class:`ScratchArena`'s flat
workspace at a bump offset, with nested kernels carving above their
caller; a launch whose scratch would not fit runs in element chunks.
A sweep over many launch shapes must leave results bitwise equal to
:class:`GenericBackend` and the workspace no larger than
:data:`WORKSPACE_BYTES`, and threads sharing one backend must never
share scratch.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.exec import FusedBackend, GenericBackend, ScratchArena, narrow
from repro.exec.arena import WORKSPACE_BYTES

SWEEP_SHAPES = 200


def expansion(rng, limbs, *shape, positive=False):
    """Random normalized ``limbs``-limb expansions of the given shape."""
    data = np.empty((limbs, *shape))
    data[0] = rng.standard_normal(shape)
    if positive:
        data[0] = np.abs(data[0]) + 0.5
    for k in range(1, limbs):
        data[k] = data[k - 1] * 2.0**-53 * rng.standard_normal(shape)
    return data


def tiled_launches(rng):
    """qd and od launches whose scratch exceeds the workspace; the
    broadcast and leading-axis-1 shapes make the chunker cut deeper
    element axes too."""

    def e(limbs, *shape, positive=False):
        return expansion(rng, limbs, *shape, positive=positive)

    return [
        ("div", (e(4, 40, 200), e(4, 40, 200, positive=True))),
        ("sqrt", (e(4, 6000, positive=True),)),
        ("fma", (e(4, 1, 3000), e(4, 2, 3000), e(4, 2, 1))),
        ("div", (e(8, 1, 2500), e(8, 1, 2500, positive=True))),
        ("sqrt", (e(8, 1200, positive=True),)),
        ("fma", (e(8, 1200), e(8, 1200), e(8, 1200))),
    ]


def check_sweep(fused, generic, rng):
    """Run the sweep, asserting every result equals the oracle's; return
    the arena stats after two and after all the launch shapes."""
    for i in range(SWEEP_SHAPES):
        n = 4096 + 8 * i  # a distinct launch shape per step
        x, y = expansion(rng, 2, n), expansion(rng, 2, n)
        for op in ("add", "mul"):
            assert np.array_equal(getattr(fused, op)(x, y), getattr(generic, op)(x, y))
        if i == 1:
            after_two = fused.arena.stats
    for op, operands in tiled_launches(rng):
        m = operands[0].shape[0]
        plane = np.broadcast_shapes(*(o.shape[1:] for o in operands))
        planes = fused._scratch_planes(getattr(fused, f"_{op}_into"), operands, m)
        assert planes * np.prod(plane) * 8 > WORKSPACE_BYTES  # it must tile
        result = getattr(fused, op)(*operands)
        assert np.array_equal(result, getattr(generic, op)(*operands))
    return after_two, fused.arena.stats


def test_shape_sweep_stays_within_the_workspace_budget_bit_for_bit(rng):
    after_two, final = check_sweep(FusedBackend(), GenericBackend(), rng)
    assert after_two["workspace_bytes"] == WORKSPACE_BYTES
    assert final["allocated"] == 1  # one workspace, allocated once
    assert final["workspace_bytes"] == after_two["workspace_bytes"]
    assert after_two["peak_bytes"] <= final["peak_bytes"] <= WORKSPACE_BYTES


def test_sweep_fails_when_nested_scratch_aliases_its_caller(rng, monkeypatch):
    """Seeded failure: a carve offset that never advances hands a nested
    kernel the scratch its caller is still using."""
    carve = ScratchArena.carve

    def carve_without_advancing(self, top, *shapes, **kwargs):
        views = carve(self, top, *shapes, **kwargs)
        views[-1] = top
        return views

    monkeypatch.setattr(ScratchArena, "carve", carve_without_advancing)
    with pytest.raises(AssertionError):
        check_sweep(FusedBackend(), GenericBackend(), rng)


def launch(backend, op, operands, m):
    if op == "renormalize":  # single-limb stacks stand for its term planes
        return backend.renormalize([stack[0] for stack in operands], m)
    return getattr(backend, op)(*operands, m)


@pytest.mark.parametrize(
    "op", ["add", "sub", "mul", "sqr", "div", "fma", "sqrt", "renormalize"]
)
def test_every_launch_carves_within_its_probed_scratch(rng, monkeypatch, md_limbs, op):
    """Chunk sizing rests on one fact: a launch carves at most, per
    output element, what its one-element probe carved.  Neither exact
    zeros (the renormalization's swap path) nor their absence, nor
    broadcast operands, may make it carve more.  The narrow replay is
    turned off, so the three-element unary launches run the kernel."""
    monkeypatch.setattr(narrow, "_WIDEST", {})
    fused, generic = FusedBackend(), GenericBackend()
    limbs, arity = md_limbs, {"sqr": 1, "sqrt": 1, "fma": 3}.get(op, 2)
    if op == "renormalize":
        limbs, arity = 1, 2 * md_limbs + 1
    kernel = getattr(fused, f"_{op}_into")
    for shapes, zeros in itertools.product(
        ([(3, 7)] * 3, [(3, 1), (1, 7), (3, 7)]), (False, True)
    ):
        operands = [
            expansion(rng, limbs, *shapes[k % 3], positive=op in ("div", "sqrt"))
            for k in range(arity)
        ]
        if zeros:
            operands[0][:, 0] = 0.0
        planes = fused._scratch_planes(kernel, operands, md_limbs)
        got = []
        peak = fused.arena.high_water(
            lambda operands=operands: got.append(launch(fused, op, operands, md_limbs))
        )
        want = launch(generic, op, operands, md_limbs)
        assert np.array_equal(got[0], want)
        assert 0 < peak <= planes * np.prod(want.shape[1:])


def test_threads_share_one_backend_bit_for_bit(rng):
    """Three threads drive one backend at once on different shapes and
    precisions, switching often enough to interleave inside kernels."""
    fused, generic = FusedBackend(), GenericBackend()
    jobs = [
        ("mul", (expansion(rng, 2, 3000), expansion(rng, 2, 3000))),
        ("div", (expansion(rng, 4, 50, 40), expansion(rng, 4, 50, 40, positive=True))),
        ("sqrt", (expansion(rng, 8, 700, positive=True),)),
    ]
    expected = [getattr(generic, op)(*operands) for op, operands in jobs]
    results = [[] for _ in jobs]
    errors = []

    def work(i):
        op, operands = jobs[i]
        try:
            for _ in range(3):
                results[i].append(getattr(fused, op)(*operands))
        except Exception as exc:  # re-raised in the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for want, got in zip(expected, results):
        assert len(got) == 3
        for result in got:
            assert np.array_equal(result, want)
