"""End-to-end: total-degree fleets through the batched tracker.

The acceptance contract of the ``repro.poly`` subsystem: a
``PolynomialSystem``/``Homotopy`` hands itself to ``track_paths`` with
no hand-written callables, the fleet finds the target's roots, and the
vectorized evaluation driving every step is bit-identical to the
scalar loop-per-monomial reference at every paper precision
(``tests/poly/test_homotopy.py`` pins the per-precision identity on
cyclic-3; here cyclic-4 is pinned along real tracked paths).

Full cyclic-4 tracking to ``t = 1`` is *not* attempted in tier 1: its
solution set is positive dimensional (the classic degenerate cyclic
case), so endpoints are singular and the adaptive tracker would crawl
through the od rung; the fleet is instead tracked through the regular
part of the homotopy, and the all-roots contract is exercised on
cyclic-2 (whose two complex roots the fleet must find exactly).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.batch.fleet import track_paths
from repro.poly import Homotopy, cyclic
from repro.poly.homotopy import extract_complex
from repro.series.reference import ScalarSeries
from repro.series.truncated import TruncatedSeries

from ..oracles.solo_tracker import solo_track_path


class TestCyclic2AllRoots:
    """cyclic-2 has exactly two (complex) roots: (i, -i) and (-i, i);
    the total-degree fleet must find both, each exactly once."""

    @pytest.fixture(scope="class")
    def homotopy(self):
        return Homotopy.total_degree(cyclic(2), seed=7)

    @pytest.fixture(scope="class")
    def fleet(self, homotopy):
        return homotopy.track_fleet(
            tol=1e-6, order=8, max_steps=48, precision_ladder=(1, 2, 4)
        )

    def test_every_path_reaches_the_target(self, fleet):
        assert fleet.batch == 2
        assert fleet.reached_count == 2
        assert fleet.failed_count == 0

    def test_endpoints_are_the_two_roots(self, homotopy, fleet):
        expected = {(1j, -1j), (-1j, 1j)}
        observed = set()
        for path in fleet.paths:
            z = [v.as_complex() for v in extract_complex(path.final_point)]
            rounded = tuple(complex(round(v.real, 6), round(v.imag, 6)) for v in z)
            observed.add(rounded)
            assert homotopy.target_residual(path.final_point) < 1e-10
        assert observed == expected

    def test_endpoints_distinct(self, fleet):
        ends = [
            extract_complex([float(v) for v in path.final_point])
            for path in fleet.paths
        ]
        for a, b in itertools.combinations(ends, 2):
            assert max(abs(x - y) for x, y in zip(a, b)) > 1e-3

    def test_fleet_bitwise_equals_solo_tracking(self, homotopy, fleet):
        solo = solo_track_path(
            homotopy,
            homotopy.start_solutions()[0],
            tol=1e-6,
            order=8,
            max_steps=48,
            precision_ladder=(1, 2, 4),
        )
        assert fleet.paths[0].steps == solo.steps
        assert fleet.paths[0].reached == solo.reached
        assert [float(v) for v in fleet.paths[0].final_point] == [
            float(v) for v in solo.final_point
        ]


class TestCyclic4Fleet:
    """The degenerate cyclic case, tracked through the regular part of
    its total-degree homotopy in lock-step batched steps."""

    @pytest.fixture(scope="class")
    def homotopy(self):
        return Homotopy.total_degree(cyclic(4), seed=11)

    def test_total_degree_seeding(self, homotopy):
        assert homotopy.path_count == 24  # 1 * 2 * 3 * 4
        assert homotopy.real_dimension == 8

    @pytest.fixture(scope="class")
    def fleet(self, homotopy):
        # track_paths(homotopy, starts): the object is the system, the
        # Jacobian adapter is generated — no hand-written callables
        return track_paths(
            homotopy,
            homotopy.start_solutions()[:3],
            tol=1e-6,
            order=6,
            max_steps=12,
            t_end=0.35,
            precision_ladder=(1, 2),
        )

    def test_every_path_advances(self, fleet):
        assert fleet.batch == 3
        assert fleet.failed_count == 0
        for path in fleet.paths:
            assert path.step_count > 0
            assert path.final_t > 0.05

    def test_fleet_bitwise_equals_solo_tracking(self, homotopy, fleet):
        solo = solo_track_path(
            homotopy,
            homotopy.start_solutions()[0],
            tol=1e-6,
            order=6,
            max_steps=12,
            t_end=0.35,
            precision_ladder=(1, 2),
        )
        assert fleet.paths[0].steps == solo.steps

    def test_residual_bit_identity_along_tracked_points(self, homotopy, fleet, limbs):
        """The homotopy residual at a *tracked* expansion point:
        vectorized versus scalar reference, exact at d/dd/qd/od."""
        step = fleet.paths[0].steps[-1]
        point = list(step.point)
        rng = np.random.default_rng(8)
        tails = rng.standard_normal((homotopy.real_dimension, 3))
        vectorized = homotopy(
            [
                TruncatedSeries([x, *tail], limbs)
                for x, tail in zip(point, tails)
            ],
            TruncatedSeries.variable(3, limbs, head=step.t + step.step),
        )
        reference = homotopy(
            [
                ScalarSeries([x, *tail], limbs)
                for x, tail in zip(point, tails)
            ],
            ScalarSeries.variable(3, limbs, head=step.t + step.step),
        )
        for a, b in zip(vectorized, reference):
            expected = np.array([c.limbs for c in b.coefficients]).T
            assert np.array_equal(a.coefficients.data, expected)


class TestQuadraticHomotopy:
    """x^2 + 1 from the total-degree start x^2 - 1: the smallest
    homotopy whose roots are genuinely complex (+-i)."""

    def test_both_roots_found(self):
        from repro.poly import PolynomialSystem

        target = PolynomialSystem([[(1, (2,)), (1, (0,))]], 1)
        homotopy = Homotopy.total_degree(target, seed=3)
        fleet = homotopy.track_fleet(tol=1e-8, order=8, max_steps=48)
        assert fleet.reached_count == 2
        roots = sorted(
            float(extract_complex(path.final_point)[0].imag)
            for path in fleet.paths
        )
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-8)
