"""The per-layer tracer and the speed sampler: exact self and
inclusive time, clean restore, and results bitwise identical to
unobserved runs."""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

from layers import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_and_inclusive_time_are_exact_with_recursion():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.tick(2)

    def inner():
        clock.tick(1)
        leaf()
        clock.tick(3)

    def outer(depth):
        clock.tick(5)
        if depth:
            outer(depth - 1)
        else:
            inner()
        clock.tick(7)

    leaf = tracer.wrap(leaf, "B")
    inner = tracer.wrap(inner, "A")
    outer = tracer.wrap(outer, "A")
    outer(1)  # A(outer) > A(outer) > A(inner) > B(leaf)

    summary = tracer.layer_summary()
    assert summary["layers"]["A"] == {"self_s": 28.0, "incl_s": 30.0, "calls": 3}
    assert summary["layers"]["B"] == {"self_s": 2.0, "incl_s": 2.0, "calls": 1}
    assert summary["root_s"] == 30.0

    tracer.clear()
    leaf()
    assert tracer.layer_summary()["layers"]["B"]["calls"] == 1


def test_split_labels_roll_up_into_their_layer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def kernel(limbs):
        clock.tick(limbs)

    kernel = tracer.wrap(kernel, "exec", split=lambda args, kwargs: f"{args[0]}l")
    for limbs in (1, 2, 2, 4):
        kernel(limbs)
    summary = tracer.layer_summary()
    assert summary["layers"]["exec"] == {"self_s": 9.0, "incl_s": 9.0, "calls": 4}
    assert summary["labels"]["exec.2l"] == {"self_s": 4.0, "incl_s": 4.0, "calls": 2}


def test_empty_tracer_summarizes():
    assert Tracer().layer_summary()["root_s"] == 0.0


def _attributes():
    """Every attribute of every loaded repro module and of the classes
    they define, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for member, item in vars(value).items():
                    seen[(name, attr, member)] = id(item)
    return seen


def test_every_patched_attribute_is_restored():
    from repro.core import least_squares
    from repro.vec.mdarray import MDArray
    from repro.vec.random import random_lstsq_problem

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()  # first install imports every boundary module
    a, b = random_lstsq_problem(4, 4, 2, np.random.default_rng(0))
    least_squares.lstsq(a, b)  # first use sets up the exec backend
    before = _attributes()
    lstsq, add = least_squares.lstsq, MDArray.__add__
    with tracer:
        assert least_squares.lstsq is not lstsq
        assert MDArray.__add__ is not add
        least_squares.lstsq(a, b)
    assert tracer.layer_summary()["layers"]["exec"]["calls"] > 0
    assert _attributes() == before
    assert least_squares.lstsq is lstsq and MDArray.__add__ is add


def test_install_twice_is_refused():
    tracer = Tracer()
    with tracer, pytest.raises(RuntimeError):
        tracer.install()


def _fleet_bits(fleet):
    return [
        (
            [value.limbs for value in path.final_point],
            [astuple(step) for step in path.steps],
            path.escalations,
            path.reached,
        )
        for path in fleet.paths
    ]


def test_traced_cyclic2_fleet_is_bitwise_identical():
    from repro.poly.families import cyclic
    from repro.poly.homotopy import Homotopy

    homotopy = Homotopy.total_degree(cyclic(2))
    track = {"tol": 1e-6, "order": 8, "max_steps": 8}
    plain = homotopy.track_fleet(**track)
    tracer = Tracer()
    with tracer:
        traced = homotopy.track_fleet(**track)
    assert _fleet_bits(traced) == _fleet_bits(plain)
    assert sum(path.step_count for path in plain.paths) > 0
    summary = tracer.layer_summary()
    layers = summary["layers"]
    for layer in ("exec", "poly.homotopy", "batch.fleet", "batch.qr", "series.pade"):
        assert layers[layer]["calls"] > 0, layer
    assert layers["batch.fleet"]["calls"] == 1
    total_self = sum(entry["self_s"] for entry in layers.values())
    assert total_self == pytest.approx(summary["root_s"], rel=1e-9)


def test_speed_sampling_changes_no_bit_and_hides_its_time():
    from calibrate import SpeedSampler
    from repro.poly.families import cyclic
    from repro.poly.homotopy import Homotopy

    homotopy = Homotopy.total_degree(cyclic(2))
    track = {"tol": 1e-6, "order": 8, "max_steps": 8}
    plain = homotopy.track_fleet(**track)
    sampler = SpeedSampler()
    wall, clock = time.perf_counter(), sampler.clock()
    with sampler:
        sampled = homotopy.track_fleet(**track)
    wall, clock = time.perf_counter() - wall, sampler.clock() - clock
    assert _fleet_bits(sampled) == _fleet_bits(plain)
    assert sum(map(len, sampler.samples)) > 0 and sampler.spent > 0
    assert wall - clock == pytest.approx(sampler.spent, abs=1e-4)
    assert sampler.slowdown() > 0
    assert min(map(len, sampler.samples)) >= 5
