"""Native complex homotopy backend: cross-backend identity suite.

The acceptance contract of the complex series backend: the native
complex tracker and the realified cross-check track the same homotopies
to the same endpoints (to working precision), the complex fleet is
bit-identical to the unbatched complex reference tracker
(``tests/oracles/solo_tracker.py``), the complex Jacobian matches
the realified block structure, and the ``embed_complex`` → track →
``extract_complex`` round trip is lossless.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.poly import Homotopy, PolynomialSystem, cyclic, katsura
from repro.poly.homotopy import embed_complex, extract_complex
from repro.series.complexvec import ComplexTruncatedSeries, ComplexVectorSeries
from repro.series.tracker import track_path
from repro.series.truncated import TruncatedSeries
from repro.vec.complexmd import MDComplexArray

from ..oracles.solo_tracker import solo_track_path

TRACK = dict(tol=1e-6, order=8, max_steps=192, precision_ladder=(1, 2))


def _endpoints(homotopy, fleet):
    """Endpoints folded to complex, whatever the backend."""
    out = []
    for path in fleet.paths:
        if homotopy.backend == "complex":
            out.append([complex(value) for value in path.final_point])
        else:
            out.append(
                [value.as_complex() for value in extract_complex(path.final_point)]
            )
    return out


class TestComplexSystemEvaluation:
    def test_complex_point_matches_direct_evaluation(self, rng):
        system = cyclic(3)
        point = [complex(a, b) for a, b in rng.standard_normal((3, 2))]
        observed = system.evaluate(point, 2).to_complex()
        expected = []
        for eq in system.terms:
            total = 0j
            for coefficient, exponents in eq:
                product = complex(coefficient)
                for z, e in zip(point, exponents):
                    product *= z**e
                total += product
            expected.append(total)
        assert np.allclose(observed, expected)

    def test_complex_coefficients_accepted_natively(self):
        system = PolynomialSystem([[(1 + 2j, (2,)), (-1j, (0,))]], 1)
        value = system.evaluate([0.5], 2).to_complex()[0]
        assert value == pytest.approx((1 + 2j) * 0.25 - 1j)

    def test_complex_series_evaluation_matches_point(self, rng):
        system = katsura(2)
        point = [complex(a, b) for a, b in rng.standard_normal((3, 2))]
        series = [
            ComplexTruncatedSeries([value, 0.0, 0.0], 2) for value in point
        ]
        result = system.evaluate_series(series)
        assert isinstance(result, ComplexVectorSeries)
        heads = result.coefficients.to_complex()[:, 0]
        assert np.allclose(heads, system.evaluate(point, 2).to_complex())

    def test_scalar_reference_rejected_for_complex(self):
        from repro.series.reference import ScalarSeries

        system = PolynomialSystem([[(1j, (1,)), (1, (0,))]], 1)
        with pytest.raises(TypeError):
            system([ScalarSeries([1.0], 2)])


class TestComplexJacobianStructure:
    """The native complex Jacobian equals the realified block structure
    ``J_c = J_r[:n, :n] + i J_r[n:, :n]`` at embedded points."""

    def test_blocks_agree(self, rng):
        native = Homotopy.total_degree(cyclic(3), seed=7, backend="complex")
        realified = Homotopy.total_degree(cyclic(3), seed=7)
        assert native.gamma == realified.gamma
        point = [complex(a, b) for a, b in rng.standard_normal((3, 2))]
        for t0 in (0.0, 0.37, 1.0):
            j_c = native.jacobian(point, t0)
            assert isinstance(j_c, MDComplexArray)
            j_r = realified.jacobian(embed_complex(point), t0).to_double()
            n = native.dimension
            expected = j_r[:n, :n] + 1j * j_r[n:, :n]
            assert np.allclose(j_c.to_complex(), expected)

    def test_residual_matches_realified(self, rng):
        """H(x, t) on complex series arguments equals the realified
        residual recombined, coefficient for coefficient."""
        native = Homotopy.total_degree(cyclic(3), seed=7, backend="complex")
        realified = Homotopy.total_degree(cyclic(3), seed=7)
        coefficients = rng.standard_normal((3, 2, 4))  # (component, re/im, order)
        x_c = [
            ComplexTruncatedSeries(
                [complex(a, b) for a, b in zip(row[0], row[1])], 2
            )
            for row in coefficients
        ]
        x_r = [
            TruncatedSeries(list(coefficients[i, 0]), 2) for i in range(3)
        ] + [TruncatedSeries(list(coefficients[i, 1]), 2) for i in range(3)]
        t = TruncatedSeries.variable(3, 2, head=0.3)
        h_c = native(x_c, t)
        h_r = realified(x_r, t)
        n = 3
        for i in range(n):
            expected = (
                h_r[i].coefficients.to_double()
                + 1j * h_r[n + i].coefficients.to_double()
            )
            assert np.allclose(
                h_c[i].coefficients.to_complex(), expected, atol=1e-13
            )


class TestQuadraticBothBackends:
    """x^2 + 1: the smallest genuinely complex target, tracked by both
    backends to +-i."""

    @pytest.fixture(scope="class", params=["complex", "realified"])
    def fleet(self, request):
        target = PolynomialSystem([[(1, (2,)), (1, (0,))]], 1)
        homotopy = Homotopy.total_degree(target, seed=3, backend=request.param)
        return homotopy, homotopy.track_fleet(tol=1e-8, order=8, max_steps=48)

    def test_both_roots_found(self, fleet):
        homotopy, result = fleet
        assert result.reached_count == 2
        roots = sorted(
            round(z[0].imag, 8) for z in _endpoints(homotopy, result)
        )
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-8)
        for path in result.paths:
            assert homotopy.target_residual(path.final_point) < 1e-10


class TestCyclic3NativeFleet:
    """The acceptance criterion: the native complex fleet finds all six
    cyclic-3 roots with ~1e-16 residuals at dd, and agrees per path with
    the realified cross-check."""

    @pytest.fixture(scope="class")
    def native(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7, backend="complex")
        return homotopy, homotopy.track_fleet(**TRACK)

    @pytest.fixture(scope="class")
    def realified(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7)
        return homotopy, homotopy.track_fleet(**TRACK)

    def test_all_six_roots_found(self, native):
        homotopy, fleet = native
        assert fleet.batch == 6
        assert fleet.reached_count == 6
        assert fleet.failed_count == 0
        for path in fleet.paths:
            assert homotopy.target_residual(path.final_point) < 1e-12
        rounded = {
            tuple(complex(round(z.real, 6), round(z.imag, 6)) for z in endpoint)
            for endpoint in _endpoints(homotopy, fleet)
        }
        assert len(rounded) == 6  # six distinct roots

    def test_endpoints_agree_with_realified(self, native, realified):
        h_native, f_native = native
        h_real, f_real = realified
        assert f_real.reached_count == 6
        for z_c, z_r in zip(
            _endpoints(h_native, f_native), _endpoints(h_real, f_real)
        ):
            assert max(abs(a - b) for a, b in zip(z_c, z_r)) < 1e-8

    def test_native_needs_fewer_steps(self, native, realified):
        """The structural payoff the benchmark measures: the native
        n-dimensional complex expansion takes larger steps than the
        realified 2n-dimensional detour."""
        _, f_native = native
        _, f_real = realified
        native_steps = sum(p.step_count for p in f_native.paths)
        realified_steps = sum(p.step_count for p in f_real.paths)
        assert native_steps < realified_steps

    def test_complex_fleet_bitwise_equals_complex_solo(self, native):
        homotopy, fleet = native
        solo = solo_track_path(
            homotopy, homotopy.start_solutions()[0], **TRACK
        )
        assert fleet.paths[0].steps == solo.steps
        assert fleet.paths[0].reached == solo.reached
        for a, b in zip(fleet.paths[0].final_point, solo.final_point):
            assert complex(a) == complex(b)
            assert a.real.limbs == b.real.limbs
            assert a.imag.limbs == b.imag.limbs


class TestKatsura2BothBackends:
    def test_endpoints_agree(self):
        native = Homotopy.total_degree(katsura(2), seed=11, backend="complex")
        realified = Homotopy.total_degree(katsura(2), seed=11)
        f_native = native.track_fleet(tol=1e-6, order=8, max_steps=96,
                                      precision_ladder=(2,))
        f_real = realified.track_fleet(tol=1e-6, order=8, max_steps=96,
                                       precision_ladder=(2,))
        assert f_native.reached_count == f_real.reached_count == 4
        for z_c, z_r in zip(
            _endpoints(native, f_native), _endpoints(realified, f_real)
        ):
            assert max(abs(a - b) for a, b in zip(z_c, z_r)) < 1e-8


class TestLosslessExtraction:
    """The extract_complex bugfix: multiple double endpoint coordinates
    keep every limb through the realified round trip."""

    def test_roundtrip_is_lossless_at_qd(self):
        third = MultiDouble(1, 4) / MultiDouble(3, 4)
        seventh = MultiDouble(1, 4) / MultiDouble(7, 4)
        realified = [third, seventh, -seventh, third]
        extracted = extract_complex(realified)
        assert all(isinstance(z, ComplexMultiDouble) for z in extracted)
        # every limb survives — no float() truncation anywhere
        assert extracted[0].real.limbs == third.limbs
        assert extracted[0].imag.limbs == (-seventh).limbs
        assert extracted[1].real.limbs == seventh.limbs
        assert extracted[1].imag.limbs == third.limbs
        # the rounded convenience view is explicit
        assert extracted[0].as_complex() == complex(float(third), float(-seventh))

    def test_plain_floats_still_work(self):
        point = [1.5 - 2j, 0.25j, -3.0]
        assert extract_complex(embed_complex(point)) == [complex(v) for v in point]

    def test_embed_preserves_multidouble_components(self):
        third = MultiDouble(1, 4) / MultiDouble(3, 4)
        point = [ComplexMultiDouble(third, -third)]
        embedded = embed_complex(point)
        assert embedded[0].limbs == third.limbs
        assert embedded[1].limbs == (-third).limbs
        back = extract_complex(embedded)
        assert back[0].real.limbs == third.limbs
        assert back[0].imag.limbs == (-third).limbs

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            extract_complex([1.0, 2.0, 3.0])

    def test_tracked_endpoint_precision_survives(self):
        """A dd-tracked realified endpoint reports dd coordinates: the
        extracted components carry the full limb tuples of the tracked
        MultiDoubles (pre-fix, everything collapsed to one double)."""
        homotopy = Homotopy.total_degree(
            PolynomialSystem([[(1, (2,)), (1, (0,))]], 1), seed=3
        )
        result = homotopy.track(
            tol=1e-8, order=8, max_steps=96, precision_ladder=(2,)
        )
        assert result.reached
        extracted = extract_complex(result.final_point)
        assert extracted[0].precision.limbs == 2
        assert extracted[0].real.limbs == result.final_point[0].limbs
        assert extracted[0].imag.limbs == result.final_point[1].limbs


class TestComplexCoefficientPromotion:
    """A complex-coefficient system promotes even an all-real start
    point to the complex staircase (the system's residuals are complex
    series regardless of the point)."""

    @pytest.fixture()
    def system(self):
        # (1+i) x^2 - (2+i)(1 + t): root sqrt((2+i)/(1+i)) at t = 0
        return PolynomialSystem(
            [[(1 + 1j, (2, 0)), (-2 - 1j, (0, 0)), (-2 - 1j, (0, 1))]], 2
        )

    def test_property_reported(self, system):
        assert system.complex_coefficients
        assert not cyclic(3).complex_coefficients

    def test_newton_series_promotes_real_start(self, system):
        from repro.series.newton import newton_series

        result = newton_series(system, [1.0], 4, 2)
        assert isinstance(result.vector, ComplexVectorSeries)
        assert all(
            isinstance(s, ComplexTruncatedSeries) for s in result.series
        )

    def test_tracker_promotes_real_start(self, system):
        root = ((2 + 1j) / (1 + 1j)) ** 0.5
        result = track_path(
            system, [root.real], order=6, tol=1e-8, max_steps=32
        )
        assert result.reached
        assert all(
            isinstance(v, ComplexMultiDouble) for v in result.final_point
        )

    def test_fleet_promotes_mixed_starts(self, system):
        from repro.batch.fleet import track_paths

        root = ((2 + 1j) / (1 + 1j)) ** 0.5
        fleet = track_paths(
            system,
            [[root.real], [complex(root)]],
            order=6,
            tol=1e-8,
            max_steps=32,
        )
        assert fleet.reached_count == 2


class TestFullPrecisionResiduals:
    """target_residual evaluates at the endpoint's own precision — a
    dd/qd-tracked point is not rounded through float()/complex() on the
    way into the residual."""

    def test_realified_resolve_keeps_multidoubles(self):
        homotopy = Homotopy.total_degree(cyclic(2), seed=7)
        point = [MultiDouble(1, 4) / MultiDouble(3, 4)] * 4
        resolved = homotopy._resolve_start(point)
        assert all(isinstance(v, MultiDouble) for v in resolved)
        assert resolved[0].limbs == point[0].limbs

    def test_complex_resolve_keeps_multidoubles(self):
        homotopy = Homotopy.total_degree(cyclic(2), seed=7, backend="complex")
        third = MultiDouble(1, 4) / MultiDouble(3, 4)
        resolved = homotopy._resolve_start([third, 1 + 1j])
        assert isinstance(resolved[0], ComplexMultiDouble)
        assert resolved[0].real.limbs == third.limbs

    def test_residual_sees_beyond_double(self):
        """At the exact dd root of x^2 + 1 the residual must drop far
        below double precision's 1e-16 floor — the old float() cast
        capped it there."""
        homotopy = Homotopy.total_degree(
            PolynomialSystem([[(1, (2,)), (1, (0,))]], 1), seed=3
        )
        result = homotopy.track(
            tol=1e-8, order=8, max_steps=96, precision_ladder=(2,)
        )
        assert result.reached
        assert homotopy.target_residual(result.final_point) < 1e-20


class TestComplexStartsDispatch:
    def test_resolve_start_accepts_both_shapes(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7, backend="complex")
        native = homotopy._resolve_start([1 + 1j, 2, 3 - 1j])
        assert native == [1 + 1j, 2 + 0j, 3 - 1j]
        from_realified = homotopy._resolve_start([1.0, 2.0, 3.0, 1.0, 0.0, -1.0])
        assert [complex(z) for z in from_realified] == [1 + 1j, 2 + 0j, 3 - 1j]
        with pytest.raises(ValueError):
            homotopy._resolve_start([1.0, 2.0])

    def test_start_solutions_are_complex_points(self):
        homotopy = Homotopy.total_degree(cyclic(2), seed=7, backend="complex")
        for start in homotopy.start_solutions():
            assert len(start) == 2
            assert all(isinstance(v, complex) for v in start)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Homotopy.total_degree(cyclic(2), backend="quaternionic")
