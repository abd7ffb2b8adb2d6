"""The realified homotopy combines in one launch sequence.

``Homotopy``'s realified residual core applies ``gamma`` as one stacked
product launch and one sum, then convolves ``[left_re, left_im, f_re,
f_im]`` against ``[1 - t, 1 - t, t, t]`` in one batched Cauchy launch
sequence and one sum (the tail it shares with the native complex core).
Its Jacobian core forms ``gamma_re (1 - t)`` and ``gamma_im (1 - t)`` in
one launch and its six products in one launch and two sums.  A
subtraction runs as the addition of an exactly negated product, which
is how every exec backend subtracts, so the bits stay those of the
unbatched oracles of ``tests/oracles/poly.py`` (compared as int64 views,
signed zeros included).

The launch counts are pinned with a counting wrapper on the active exec
backend, around the combination alone: the start and target systems'
evaluations are computed beforehand and handed back unchanged.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exec import get_backend
from repro.md.constants import get_precision
from repro.md.number import MultiDouble
from repro.poly import Homotopy, cyclic, noon
from repro.series.truncated import TruncatedSeries
from repro.series.vector import VectorSeries
from repro.vec.mdarray import MDArray

from ..oracles.poly import unbatched_homotopy, unbatched_jacobian

PRECISIONS = pytest.mark.parametrize("limbs", [1, 2, 4, 8], ids=["d", "dd", "qd", "od"])

#: The backend methods that are one limb launch each.
LAUNCHES = ("add", "sub", "mul", "div", "sqr", "sqrt")


class LaunchCounter:
    """Counts the active backend's arithmetic launches while installed."""

    def __init__(self, monkeypatch):
        self.launches = 0
        backend = get_backend()
        for op in LAUNCHES:
            method = getattr(backend, op)

            def counted(*args, _method=method, **kwargs):
                self.launches += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(backend, op, counted)


def _frozen_evaluations(monkeypatch, homotopy, method, argument):
    """Evaluate both systems once, then make ``method`` hand those
    values back, so a counter sees the combination alone."""
    for system in (homotopy.start_system, homotopy.target_system):
        value = getattr(system, method)(argument)
        monkeypatch.setattr(
            system, method, lambda *args, _value=value, **kwargs: _value
        )


def _planes(batch, variables, order, limbs, seed):
    """Random coefficient planes with exact zeros of both signs mixed in:
    one whole component of the first and of the last path, and, above
    order 0, every top coefficient."""
    rng = np.random.default_rng(seed)
    data = np.zeros((limbs, batch, variables, order + 1))
    data[0] = rng.uniform(-1.5, 1.5, (batch, variables, order + 1)) / 3.0
    if limbs > 1:
        data[1] = data[0] * 2.0**-60 / 7.0
    data[:, 0, 0] = 0.0
    data[:, -1, -1] = -0.0
    if order:
        data[:, :, :, -1] = -0.0
    return MDArray(data)


def _int64(array):
    return array.data.view(np.int64)


class TestRealifiedResidual:
    @pytest.mark.parametrize("order", [0, 1, 4, 8])
    def test_launch_count(self, order, monkeypatch):
        homotopy = Homotopy.total_degree(noon(2), seed=7)
        planes = _planes(3, homotopy.tracking_dimension, order, 2, seed=order)
        t_heads = [0.0, 0.25, 0.625]
        _frozen_evaluations(monkeypatch, homotopy, "evaluate_series", planes)
        counter = LaunchCounter(monkeypatch)
        homotopy.residual_fleet(planes, t_heads)
        # gamma: one product and one sum; 1 - t: one subtraction; the
        # Cauchy sequence: one product grid and ceil(log2(K+1)) pairwise
        # sums; then one sum
        assert counter.launches == 5 + math.ceil(math.log2(order + 1))

    @PRECISIONS
    @pytest.mark.parametrize("target", [cyclic(3), noon(2)], ids=["cyclic3", "noon2"])
    def test_bits_match_the_unbatched_oracle(self, limbs, target):
        homotopy = Homotopy.total_degree(target, seed=7)
        order = 5
        planes = _planes(3, homotopy.tracking_dimension, order, limbs, seed=limbs)
        t_heads = [0.0, 0.375, -0.0]
        values = homotopy.residual_fleet(planes, t_heads)
        prec = get_precision(limbs)
        for p, head in enumerate(t_heads):
            x = VectorSeries(MDArray(planes.data[:, p].copy())).components()
            t = TruncatedSeries.variable(order, prec, head=head)
            expected = VectorSeries.from_components(unbatched_homotopy(homotopy, x, t))
            assert np.array_equal(
                _int64(MDArray(values.data[:, p])), _int64(expected.coefficients)
            )


class TestRealifiedJacobian:
    def test_launch_count(self, monkeypatch):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        heads = _planes(4, homotopy.tracking_dimension, 0, 2, seed=3)[..., 0]
        planes = MDArray(heads.data[..., None])
        _frozen_evaluations(monkeypatch, homotopy, "jacobian_series", planes)
        counter = LaunchCounter(monkeypatch)
        homotopy.jacobian_fleet(heads, [0.0, 0.125, 0.5, 0.875])
        # 1 - t; gamma_re (1 - t) and gamma_im (1 - t); the six
        # products; two sums
        assert counter.launches == 5

    @PRECISIONS
    def test_bits_match_the_unbatched_oracle(self, limbs):
        homotopy = Homotopy.total_degree(noon(2), seed=7)
        heads = _planes(3, homotopy.tracking_dimension, 0, limbs, seed=limbs)[..., 0]
        t_heads = [0.0, 0.375, -0.0]
        matrices = homotopy.jacobian_fleet(heads, t_heads)
        oracle = unbatched_jacobian(homotopy.jacobian)
        for p, head in enumerate(t_heads):
            point = [
                MultiDouble.from_limbs(heads.data[:, p, i].tolist())
                for i in range(homotopy.tracking_dimension)
            ]
            assert np.array_equal(
                _int64(MDArray(matrices.data[:, p])), _int64(oracle(point, head))
            )
