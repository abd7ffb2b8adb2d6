"""The fused backend's scratch-bundle cache is bounded by bytes.

:meth:`repro.exec.arena.ScratchArena.bundle` keeps one buffer set per
(kernel, launch shape).  A sweep over many distinct launch shapes must
stay within :data:`repro.exec.arena.BUNDLE_BYTES`, dropping the least
recently used bundles, and must leave every result bitwise unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.exec import FusedBackend, GenericBackend, ScratchArena, arena

SWEEP_SHAPES = 200


def dd_stack(rng, n):
    data = rng.standard_normal((2, n))
    data[1] = data[0] * 2.0**-53 * rng.standard_normal(n)
    return data


def test_shape_sweep_stays_under_the_cap_with_identical_results(rng):
    fused, generic = FusedBackend(), GenericBackend()
    demanded = 0
    for i in range(SWEEP_SHAPES):
        n = 4096 + 8 * i  # a distinct launch shape per step
        x, y = dd_stack(rng, n), dd_stack(rng, n)
        for op in ("add", "mul"):
            result = getattr(fused, op)(x, y)
            assert np.array_equal(result, getattr(generic, op)(x, y))
        demanded += 20 * n * 8  # ten dd planes per kernel bundle
        assert fused.arena.stats["bundle_bytes"] <= arena.BUNDLE_BYTES
    # the sweep asked for several times the budget: eviction happened
    assert demanded > 3 * arena.BUNDLE_BYTES
    assert fused.arena.stats["bundles"] < 2 * SWEEP_SHAPES


def test_least_recently_used_bundle_goes_first(monkeypatch):
    monkeypatch.setattr(arena, "BUNDLE_BYTES", 3000)
    scratch = ScratchArena()
    first = {key: scratch.bundle(key, ((100,),)) for key in "abc"}  # 800 B each
    assert scratch.stats["bundle_bytes"] == 2400
    assert scratch.bundle("a", ((100,),)) is first["a"]  # touch: a is recent
    scratch.bundle("d", ((100,),))  # 3200 B > 3000: drop b, the oldest
    stats = scratch.stats
    assert stats["bundles"] == 3 and stats["bundle_bytes"] == 2400
    assert scratch.bundle("a", ((100,),)) is first["a"]
    assert scratch.bundle("c", ((100,),)) is first["c"]
    assert scratch.bundle("b", ((100,),)) is not first["b"]


def test_bundle_over_the_whole_budget_is_not_cached(monkeypatch):
    monkeypatch.setattr(arena, "BUNDLE_BYTES", 3000)
    scratch = ScratchArena()
    kept = scratch.bundle("small", ((100,),))
    big = scratch.bundle("big", ((1000,),))
    assert big[0].shape == (1000,)
    assert scratch.stats["bundles"] == 1 and scratch.stats["bundle_bytes"] == 800
    assert scratch.bundle("small", ((100,),)) is kept
    assert scratch.bundle("big", ((1000,),)) is not big


def test_views_in_a_built_bundle_cost_nothing():
    scratch = ScratchArena()

    def build(xp):
        whole = xp.empty((2, 50))
        return whole, whole[0], whole[1]

    scratch.bundle("views", build=build)
    assert scratch.stats["bundle_bytes"] == 800
