"""Batched QR / back substitution / least squares / Padé.

Two contracts are pinned here, at every paper precision (d/dd/qd/od):

* **bit-identity** — every batch slice equals the unbatched dense
  oracle (``tests/oracles/dense.py``), and every batched Padé
  approximant the unbatched Padé oracle (``tests/oracles/series.py``),
  limb for limb.  The :mod:`repro.core` solvers and
  :func:`repro.series.pade` are batches of one, so comparing a slice
  against them checks only that a slice does not depend on its batch
  mates;
* **launch-identity** — the batched drivers record the batch-aware
  cost model's traces, so their traces and the model's are compared
  with the dense oracle's inline launch records batched
  (``KernelTrace.batched``), field by field, with the launch count flat
  in the batch size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import back_substitution
from repro.batch import (
    batched_back_substitution,
    batched_blocked_qr,
    batched_invert_tiles,
    batched_least_squares,
    batched_pade,
    batched_substitution,
)
from repro.core.back_substitution import tiled_back_substitution
from repro.core.blocked_qr import blocked_qr
from repro.core.least_squares import lstsq
from repro.gpu.kernel import KernelTrace
from repro.perf.costmodel import (
    batched_back_substitution_trace,
    batched_lstsq_trace,
    batched_qr_trace,
    batched_substitution_trace,
    batched_tile_inversion_trace,
    pade_trace,
)
from repro.series import TruncatedSeries
from repro.vec import batched as vb
from repro.vec import random as mdrandom
from repro.vec.complexmd import MDComplexArray
from repro.vec.mdarray import MDArray

from ..oracles import dense
from ..oracles import series as series_oracle
from ..oracles.dense import launch_records

BATCH = 4


def assert_slice_matches(batched, index, reference, *fields):
    """Assert that batch slice ``index`` of every named result field
    equals the unbatched ``reference`` result limb for limb."""
    for field in fields:
        got = getattr(batched, field).data[:, index]
        expected = getattr(reference, field).data
        if not np.array_equal(got, expected):
            raise AssertionError(f"slice {index} of {field} differs from the reference")


def random_matrices(count, rows, cols, limbs, complex_data, rng):
    make = mdrandom.random_complex_matrix if complex_data else mdrandom.random_matrix
    return [make(rows, cols, limbs, rng) for _ in range(count)]


def random_vectors(count, n, limbs, complex_data, rng):
    make = mdrandom.random_complex_vector if complex_data else mdrandom.random_vector
    return [make(n, limbs, rng) for _ in range(count)]


def assert_traces_match(expected, *traces):
    """Every trace equals ``expected`` launch for launch, in every field."""
    for trace in traces:
        assert launch_records(trace) == launch_records(expected)


class TestBatchedQR:
    def test_bit_identical_to_loop(self, rng, limbs):
        matrices = [mdrandom.random_matrix(8, 8, limbs, rng) for _ in range(BATCH)]
        result = batched_blocked_qr(vb.stack(matrices), 4)
        for index, matrix in enumerate(matrices):
            assert_slice_matches(result, index, dense.blocked_qr(matrix, 4), "Q", "R")
        assert result.finite_systems().all()

    def test_rectangular(self, rng):
        matrices = [mdrandom.random_matrix(10, 6, 2, rng) for _ in range(3)]
        result = batched_blocked_qr(vb.stack(matrices), 3)
        for index, matrix in enumerate(matrices):
            assert_slice_matches(result, index, dense.blocked_qr(matrix, 3), "R")

    @pytest.mark.parametrize(
        "batch,complex_data",
        [(BATCH, False), (3, True), (1, True)],
        ids=["real", "complex", "complex-b1"],
    )
    def test_trace_matches_oracle_records(self, batch, complex_data, rng):
        matrices = random_matrices(batch, 10, 8, 2, complex_data, rng)
        numeric = batched_blocked_qr(vb.stack(matrices), 4).trace
        analytic = batched_qr_trace(batch, 10, 8, 4, 2, complex_data=complex_data)
        expected = dense.blocked_qr(matrices[0], 4).trace.batched(batch)
        assert_traces_match(expected, numeric, analytic)

    def test_shared_trace_gets_the_launches_appended(self, rng):
        matrices = vb.stack(random_matrices(3, 8, 8, 2, False, rng))
        shared = KernelTrace("V100", label="shared")
        first = batched_blocked_qr(matrices, 4, trace=shared)
        assert first.trace is shared
        batched_blocked_qr(matrices, 2, trace=shared)
        expected = KernelTrace("V100")
        expected.extend(dense.blocked_qr(matrices[0], 4).trace.batched(3))
        expected.extend(dense.blocked_qr(matrices[0], 2).trace.batched(3))
        assert_traces_match(expected, shared)

    def test_launches_flat_in_batch(self, rng):
        single = batched_blocked_qr(
            vb.stack([mdrandom.random_matrix(8, 8, 2, rng)]), 4
        )
        many = batched_blocked_qr(
            vb.stack([mdrandom.random_matrix(8, 8, 2, rng) for _ in range(6)]), 4
        )
        assert len(many.trace) == len(single.trace)
        assert many.trace.total_flops() == pytest.approx(
            6 * single.trace.total_flops()
        )

    def test_singular_member_poisons_only_its_slice(self, rng):
        matrices = [mdrandom.random_matrix(6, 6, 2, rng) for _ in range(3)]
        matrices[1] = MDArray.zeros((6, 6), 2)
        result = batched_blocked_qr(vb.stack(matrices), 3)
        for index in (0, 2):
            reference = blocked_qr(matrices[index], 3)
            assert np.array_equal(result.Q.data[:, index], reference.Q.data)
            assert np.array_equal(result.R.data[:, index], reference.R.data)

    def test_validation(self):
        with pytest.raises(ValueError):
            batched_blocked_qr(MDArray.zeros((4, 4), 2), 2)
        with pytest.raises(ValueError):
            batched_blocked_qr(MDArray.zeros((2, 4, 6), 2), 2)
        with pytest.raises(ValueError):
            batched_blocked_qr(MDArray.zeros((2, 4, 4), 2), 3)


class TestBatchedBackSubstitution:
    def test_bit_identical_to_loop(self, rng, limbs):
        uppers = [
            mdrandom.random_well_conditioned_upper_triangular(8, limbs, rng)
            for _ in range(BATCH)
        ]
        rhs = [mdrandom.random_vector(8, limbs, rng) for _ in range(BATCH)]
        result = batched_back_substitution(vb.stack(uppers), vb.stack(rhs), 4)
        for index in range(BATCH):
            reference = dense.tiled_back_substitution(uppers[index], rhs[index], 4)
            assert_slice_matches(result, index, reference, "x")
        assert result.finite_systems().all()

    @pytest.mark.parametrize(
        "batch,complex_data,limbs",
        [(BATCH, False, 2), (3, True, 4), (1, False, 8)],
        ids=["real", "complex", "b1"],
    )
    def test_trace_matches_oracle_records(self, batch, complex_data, limbs, rng):
        uppers = [
            mdrandom.random_well_conditioned_upper_triangular(
                8, limbs, rng, complex_data=complex_data
            )
            for _ in range(batch)
        ]
        rhs = random_vectors(batch, 8, limbs, complex_data, rng)
        numeric = batched_back_substitution(vb.stack(uppers), vb.stack(rhs), 2).trace
        analytic = batched_back_substitution_trace(
            batch, 4, 2, limbs, complex_data=complex_data
        )
        expected = dense.tiled_back_substitution(uppers[0], rhs[0], 2).trace
        assert_traces_match(expected.batched(batch), numeric, analytic)

    def test_singular_member_does_not_raise_or_leak(self, rng):
        uppers = [
            mdrandom.random_well_conditioned_upper_triangular(4, 2, rng)
            for _ in range(3)
        ]
        uppers[0] = MDArray.zeros((4, 4), 2)  # zero diagonal: singular
        rhs = [mdrandom.random_vector(4, 2, rng) for _ in range(3)]
        result = batched_back_substitution(vb.stack(uppers), vb.stack(rhs), 2)
        finite = result.finite_systems()
        assert not finite[0] and finite[1] and finite[2]
        for index in (1, 2):
            reference = tiled_back_substitution(uppers[index], rhs[index], 2)
            assert np.array_equal(result.x.data[:, index], reference.x.data)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            batched_back_substitution(
                MDArray.zeros((2, 4, 4), 2), MDArray.zeros((2, 3), 2), 2
            )
        with pytest.raises(ValueError):
            batched_back_substitution(
                MDArray.zeros((2, 4, 4), 2), MDArray.zeros((2, 4), 2), 3
            )

    def test_complex_rhs_on_real_matrices_is_rejected(self, rng):
        uppers = vb.stack(
            [mdrandom.random_well_conditioned_upper_triangular(4, 2, rng)] * 2
        )
        rhs = MDComplexArray.zeros((2, 4), 2)
        with pytest.raises(ValueError, match="complex right-hand side"):
            batched_back_substitution(uppers, rhs, 2)


def int64_planes(array):
    """The limb planes of a real or complex array as int64 views."""
    planes = (array.real, array.imag) if isinstance(array, MDComplexArray) else (array,)
    return [plane.data.view(np.int64) for plane in planes]


class TestBackSubstitutionStages:
    """Algorithm 1 split in its two stages: the tiles inverted once,
    then any number of substitutions against those inverses — what the
    series staircases run per order against one factored head."""

    @staticmethod
    def problem(batch, dim, limbs, complex_data, rng, orders=3):
        uppers = vb.stack(
            [
                mdrandom.random_well_conditioned_upper_triangular(
                    dim, limbs, rng, complex_data=complex_data
                )
                for _ in range(batch)
            ]
        )
        rhs = [
            vb.stack(random_vectors(batch, dim, limbs, complex_data, rng))
            for _ in range(orders)
        ]
        return uppers, rhs

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_substitutions_against_one_inversion_equal_fresh_solves(
        self, complex_data, limbs, rng
    ):
        uppers, rhs = self.problem(3, 6, limbs, complex_data, rng)
        inverses = batched_invert_tiles(uppers, 2)
        assert inverses.tiles == 3 and inverses.batch == 3
        for b in rhs:
            staged = batched_substitution(uppers, inverses, b).x
            fresh = batched_back_substitution(uppers, b, 2).x
            for ours, theirs in zip(
                int64_planes(staged), int64_planes(fresh), strict=True
            ):
                assert np.array_equal(ours, theirs)
            # and every slot against the unbatched dense oracle
            for index in range(3):
                reference = dense.tiled_back_substitution(uppers[index], b[index], 2).x
                for ours, theirs in zip(
                    int64_planes(staged[index]), int64_planes(reference), strict=True
                ):
                    assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_all_tiles_invert_in_one_call(self, complex_data, monkeypatch, rng):
        """The diagonal tiles of every system are one stacked batch,
        tile-major; the slot checks above pin their bits."""
        uppers, _ = self.problem(3, 6, 2, complex_data, rng, orders=0)
        invert, shapes = back_substitution.batched_invert_upper_triangular, []

        def counted(tiles_batch):
            shapes.append(tiles_batch.shape)
            return invert(tiles_batch)

        monkeypatch.setattr(back_substitution, "batched_invert_upper_triangular", counted)
        inverses = batched_invert_tiles(uppers, 2)
        assert shapes == [(9, 2, 2)]
        for i in range(3):
            expected = invert(uppers[:, 2 * i : 2 * i + 2, 2 * i : 2 * i + 2])
            for ours, theirs in zip(
                int64_planes(inverses.inverses[i]), int64_planes(expected), strict=True
            ):
                assert np.array_equal(ours, theirs)

    def test_real_rhs_under_complex_matrices(self, rng):
        uppers, _ = self.problem(2, 4, 2, True, rng)
        rhs = vb.stack(random_vectors(2, 4, 2, False, rng))
        staged = batched_substitution(uppers, batched_invert_tiles(uppers, 2), rhs).x
        fresh = batched_back_substitution(uppers, rhs, 2).x
        assert isinstance(staged, MDComplexArray)
        for ours, theirs in zip(int64_planes(staged), int64_planes(fresh), strict=True):
            assert np.array_equal(ours, theirs)

    def test_singular_slice_stays_in_its_slot(self, rng):
        uppers, rhs = self.problem(3, 4, 2, False, rng)
        singular = uppers.copy()
        singular[1] = MDArray.zeros((4, 4), 2)  # zero diagonal
        inverses = batched_invert_tiles(singular, 2)
        for b in rhs:
            result = batched_substitution(singular, inverses, b)
            assert result.finite_systems().tolist() == [True, False, True]
            for index in (0, 2):
                reference = dense.tiled_back_substitution(
                    uppers[index], b[index], 2
                ).x
                assert np.array_equal(
                    result.x.data[:, index].view(np.int64),
                    reference.data.view(np.int64),
                )

    @pytest.mark.parametrize(
        "batch,complex_data,limbs",
        [(BATCH, False, 2), (3, True, 4), (1, False, 8), (2, True, 1)],
        ids=["real", "complex", "b1", "complex-d"],
    )
    def test_stage_records_concatenate_to_the_back_substitution_trace(
        self, batch, complex_data, limbs, rng
    ):
        uppers, (b,) = self.problem(batch, 8, limbs, complex_data, rng, orders=1)
        inverses = batched_invert_tiles(uppers, 2)
        substitution = batched_substitution(uppers, inverses, b)
        whole = batched_back_substitution_trace(
            batch, 4, 2, limbs, complex_data=complex_data
        )
        assert launch_records(inverses.trace) + launch_records(
            substitution.trace
        ) == launch_records(whole)
        models = (
            batched_tile_inversion_trace(batch, 4, 2, limbs, complex_data=complex_data),
            batched_substitution_trace(batch, 4, 2, limbs, complex_data=complex_data),
        )
        assert launch_records(models[0]) == launch_records(inverses.trace)
        assert launch_records(models[1]) == launch_records(substitution.trace)
        # and against the dense oracle's two stages, batched
        upper = uppers[0]
        first, second = KernelTrace("V100"), KernelTrace("V100")
        dense.substitute(upper, dense.invert_tiles(upper, 2, first), b[0], second)
        assert launch_records(inverses.trace) == launch_records(first.batched(batch))
        assert launch_records(substitution.trace) == launch_records(
            second.batched(batch)
        )

    def test_shared_trace_gets_both_stages(self, rng):
        uppers, (b,) = self.problem(2, 4, 2, False, rng, orders=1)
        trace = KernelTrace("V100")
        batched_substitution(
            uppers, batched_invert_tiles(uppers, 2, trace=trace), b, trace=trace
        )
        assert launch_records(trace) == launch_records(
            batched_back_substitution_trace(2, 2, 2, 2)
        )

    def test_mismatched_inverses_are_rejected(self, rng):
        uppers, (b,) = self.problem(2, 4, 2, False, rng, orders=1)
        with pytest.raises(ValueError, match="tile inverses"):
            batched_substitution(uppers, batched_invert_tiles(uppers[:1], 2), b)
        with pytest.raises(ValueError, match="tile inverses"):
            batched_substitution(
                uppers[:, :2, :2], batched_invert_tiles(uppers, 2), b[:, :2]
            )
        with pytest.raises(ValueError, match="must divide"):
            batched_invert_tiles(uppers, 3)


class TestBatchedLeastSquares:
    def test_bit_identical_to_loop(self, rng, limbs):
        matrices = [mdrandom.random_matrix(10, 8, limbs, rng) for _ in range(BATCH)]
        rhs = [mdrandom.random_vector(10, limbs, rng) for _ in range(BATCH)]
        result = batched_least_squares(vb.stack(matrices), vb.stack(rhs))
        for index in range(BATCH):
            reference = dense.lstsq(matrices[index], rhs[index])
            assert_slice_matches(result, index, reference, "x")
            assert result.tile_size == reference.tile_size

    @pytest.mark.parametrize(
        "batch,complex_data,tile,bs_tile",
        [(BATCH, False, 4, None), (3, True, 4, 2), (3, False, 2, 4), (1, True, None, None)],
        ids=["real", "complex-bs2", "real-bs4", "complex-b1"],
    )
    def test_traces_match_oracle_records(self, batch, complex_data, tile, bs_tile, rng):
        matrices = random_matrices(batch, 10, 8, 2, complex_data, rng)
        rhs = random_vectors(batch, 10, 2, complex_data, rng)
        numeric = batched_least_squares(
            vb.stack(matrices), vb.stack(rhs), tile_size=tile, bs_tile_size=bs_tile
        )
        qr_model, bs_model = batched_lstsq_trace(
            batch, 10, 8, tile, 2, complex_data=complex_data, bs_tile_size=bs_tile
        )
        expected = dense.lstsq(matrices[0], rhs[0], tile_size=tile, bs_tile_size=bs_tile)
        assert_traces_match(expected.qr_trace.batched(batch), numeric.qr_trace, qr_model)
        assert_traces_match(expected.bs_trace.batched(batch), numeric.bs_trace, bs_model)
        assert numeric.combined_trace.kernel_launch_count == len(qr_model) + len(
            bs_model
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"tile_size": 0}, {"tile_size": -1}, {"bs_tile_size": 0}],
        ids=str,
    )
    def test_tile_sizes_must_be_positive(self, kwargs, rng):
        (name,) = kwargs
        matrices = vb.stack([mdrandom.random_matrix(4, 4, 2, rng)] * 2)
        rhs = vb.stack([mdrandom.random_vector(4, 2, rng)] * 2)
        with pytest.raises(ValueError, match=name):
            batched_least_squares(matrices, rhs, **kwargs)

    def test_bad_right_hand_sides_raise_before_factoring(self, rng, monkeypatch):
        def no_factoring(*args, **kwargs):
            raise RuntimeError("the batch was factored")

        monkeypatch.setattr(
            "repro.batch.least_squares.batched_blocked_qr", no_factoring
        )
        matrices = vb.stack([mdrandom.random_matrix(4, 4, 2, rng)] * 2)
        with pytest.raises(ValueError, match="complex right-hand side"):
            batched_least_squares(matrices, MDComplexArray.zeros((2, 4), 2))
        with pytest.raises(ValueError, match="share the precision"):
            batched_least_squares(matrices, MDArray.zeros((2, 4), 4))


class TestDenseOracle:
    """The dense identity comparisons are gates, so they must be able to
    fail, and the oracle must not reach the drivers it checks."""

    def test_other_tile_size_is_caught(self, rng):
        matrix = mdrandom.random_matrix(8, 8, 2, rng)
        result = batched_blocked_qr(vb.stack([matrix]), 4)
        assert_slice_matches(result, 0, dense.blocked_qr(matrix, 4), "Q", "R")
        with pytest.raises(AssertionError):
            assert_slice_matches(result, 0, dense.blocked_qr(matrix, 2), "Q", "R")

    def test_oracle_does_not_call_the_batched_qr(self, rng, monkeypatch):
        def broken_qr(*args, **kwargs):
            raise RuntimeError("the batched QR was called")

        # patch every binding: batch.least_squares imports the name
        monkeypatch.setattr("repro.batch.qr.batched_blocked_qr", broken_qr)
        monkeypatch.setattr("repro.batch.least_squares.batched_blocked_qr", broken_qr)
        matrix = mdrandom.random_matrix(6, 6, 2, rng)
        rhs = mdrandom.random_vector(6, 2, rng)
        # the patch is live: the library's unbatched drivers go through it
        with pytest.raises(RuntimeError, match="batched QR was called"):
            blocked_qr(matrix, 3)
        with pytest.raises(RuntimeError, match="batched QR was called"):
            lstsq(matrix, rhs, tile_size=3)
        reference = dense.lstsq(matrix, rhs, tile_size=3)
        assert reference.residual_norm(matrix, rhs) < 1e-26


class TestBatchedPade:
    def _random_series(self, order, limbs, rng, count):
        out = []
        for _ in range(count):
            values = list(rng.standard_normal(order + 1))
            values[0] = abs(values[0]) + 1.0
            out.append(TruncatedSeries(values, limbs))
        return out

    def test_bit_identical_to_loop(self, rng, limbs):
        batch = self._random_series(8, limbs, rng, BATCH)
        approximants = batched_pade(batch, 3, 3)
        for series, approximant in zip(batch, approximants):
            reference = series_oracle.pade(series, 3, 3)
            assert np.array_equal(
                approximant.numerator_array.data, reference.numerator_array.data
            )
            assert np.array_equal(
                approximant.denominator_array.data,
                reference.denominator_array.data,
            )
            assert approximant.defect.limbs == reference.defect.limbs

    def test_trivial_denominator(self, rng):
        batch = self._random_series(4, 2, rng, 3)
        approximants = batched_pade(batch, 4, 0)
        for series, approximant in zip(batch, approximants):
            reference = series_oracle.pade(series, 4, 0)
            assert tuple(x.limbs for x in approximant.numerator) == tuple(
                x.limbs for x in reference.numerator
            )
            assert approximant.denominator_degree == 0

    def test_trace_matches_oracle_records_batched(self, rng):
        batch = self._random_series(8, 2, rng, BATCH)
        trace = KernelTrace("V100", label="batched pade test")
        batched_pade(batch, 3, 3, trace=trace)
        expected = series_oracle.pade(batch[0], 3, 3).trace.batched(BATCH)
        assert_traces_match(expected, trace, pade_trace(3, 3, 2).batched(BATCH))

    def test_validation(self, rng):
        batch = self._random_series(4, 2, rng, 2)
        with pytest.raises(ValueError):
            batched_pade(batch, 4, 4)  # needs order >= L + M
        with pytest.raises(ValueError):
            batched_pade([])
        mixed = batch[:1] + self._random_series(6, 2, rng, 1)
        with pytest.raises(ValueError):
            batched_pade(mixed, 2, 2)
