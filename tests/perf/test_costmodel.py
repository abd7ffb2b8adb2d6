"""The analytic cost model against the dense oracle's launch records.

The numeric drivers record the cost model's traces, so comparing a
driver's trace with the model would compare the model with itself.  The
unbatched oracle ``tests/oracles/dense.py`` writes every launch out
inline instead; the model must equal its records launch for launch, in
every field, at every paper precision, on real and complex data, and
batched (``KernelTrace.batched`` of the oracle's records).
"""

from __future__ import annotations

import pytest

from repro.perf.costmodel import (
    back_substitution_trace,
    batched_back_substitution_trace,
    batched_lstsq_trace,
    batched_qr_trace,
    lstsq_trace,
    problem_bytes,
    qr_trace,
)
from repro.vec import random as mdrandom

from ..oracles import dense
from ..oracles.dense import launch_records


def random_matrix(rows, cols, limbs, complex_data, rng):
    if complex_data:
        return mdrandom.random_complex_matrix(rows, cols, limbs, rng)
    return mdrandom.random_matrix(rows, cols, limbs, rng)


def random_vector(n, limbs, complex_data, rng):
    if complex_data:
        return mdrandom.random_complex_vector(n, limbs, rng)
    return mdrandom.random_vector(n, limbs, rng)


class TestQRTrace:
    @pytest.mark.parametrize(
        "rows,cols,tile,limbs,complex_data",
        [
            (16, 16, 4, 2, False),
            (20, 12, 4, 2, False),
            (12, 12, 6, 4, False),
            (10, 10, 5, 2, True),
            (8, 8, 2, 1, True),
            (8, 8, 4, 8, False),
            (6, 6, 3, 8, True),
        ],
    )
    def test_equals_oracle_records(self, rows, cols, tile, limbs, complex_data, rng):
        a = random_matrix(rows, cols, limbs, complex_data, rng)
        expected = dense.blocked_qr(a, tile).trace
        analytic = qr_trace(rows, cols, tile, limbs, complex_data=complex_data)
        assert launch_records(analytic) == launch_records(expected)

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_batched_equals_oracle_records_batched(self, complex_data, rng):
        a = random_matrix(10, 8, 4, complex_data, rng)
        expected = dense.blocked_qr(a, 4).trace.batched(3)
        analytic = batched_qr_trace(3, 10, 8, 4, 4, complex_data=complex_data)
        assert launch_records(analytic) == launch_records(expected)

    def test_one_tally_field_is_caught(self, rng):
        """The comparison is a gate: one more addition in one launch
        makes the traces differ."""
        a = random_matrix(8, 8, 2, False, rng)
        analytic = qr_trace(8, 8, 4, 2)
        expected = dense.blocked_qr(a, 4).trace
        assert launch_records(analytic) == launch_records(expected)
        analytic.launches[3].tally.additions += 1
        assert launch_records(analytic) != launch_records(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            qr_trace(8, 16, 4, 2)
        with pytest.raises(ValueError):
            qr_trace(16, 16, 5, 2)

    def test_total_flops_scale_cubically_with_proportional_tiles(self):
        # keeping the number of panels fixed, the work is cubic in the dimension
        small = qr_trace(256, 256, 32, 4).total_flops()
        large = qr_trace(512, 512, 64, 4).total_flops()
        assert 6 < large / small < 9

    def test_fixed_tile_size_grows_faster_than_cubic(self):
        # with a fixed panel width the explicit Y*W^T / Q*WY^T products add a
        # quartic term, which is why the paper's Table 6 times grow by more
        # than a factor of eight per dimension doubling
        small = qr_trace(256, 256, 32, 4).total_flops()
        large = qr_trace(512, 512, 32, 4).total_flops()
        assert large / small > 9


class TestBackSubstitutionTrace:
    @pytest.mark.parametrize(
        "tiles,tile,limbs,complex_data",
        [
            (4, 4, 2, False),
            (3, 5, 4, False),
            (5, 2, 2, True),
            (1, 6, 2, False),
            (2, 3, 8, True),
            (3, 2, 1, False),
        ],
    )
    def test_equals_oracle_records(self, tiles, tile, limbs, complex_data, rng):
        dim = tiles * tile
        u = mdrandom.random_well_conditioned_upper_triangular(
            dim, limbs, rng, complex_data=complex_data
        )
        b = random_vector(dim, limbs, complex_data, rng)
        expected = dense.tiled_back_substitution(u, b, tile).trace
        analytic = back_substitution_trace(tiles, tile, limbs, complex_data=complex_data)
        assert launch_records(analytic) == launch_records(expected)

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_batched_equals_oracle_records_batched(self, complex_data, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(
            8, 2, rng, complex_data=complex_data
        )
        b = random_vector(8, 2, complex_data, rng)
        expected = dense.tiled_back_substitution(u, b, 2).trace.batched(3)
        analytic = batched_back_substitution_trace(3, 4, 2, 2, complex_data=complex_data)
        assert launch_records(analytic) == launch_records(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            back_substitution_trace(0, 4, 2)
        with pytest.raises(ValueError):
            back_substitution_trace(4, 0, 2)

    def test_total_flops_scale_quadratically(self):
        small = back_substitution_trace(40, 32, 4).total_flops()
        large = back_substitution_trace(80, 32, 4).total_flops()
        assert 3 < large / small < 5


class TestLstsqTrace:
    @pytest.mark.parametrize(
        "rows,cols,tile,bs_tile,limbs,complex_data",
        [
            (16, 16, 4, None, 2, False),
            (8, 8, 4, 2, 2, False),
            (8, 8, 2, 4, 4, True),
            (10, 8, 4, 2, 1, True),
            (12, 12, None, None, 8, False),
            (12, 12, 6, 4, 2, True),
        ],
    )
    def test_equals_oracle_records(
        self, rows, cols, tile, bs_tile, limbs, complex_data, rng
    ):
        a = random_matrix(rows, cols, limbs, complex_data, rng)
        b = random_vector(rows, limbs, complex_data, rng)
        expected = dense.lstsq(a, b, tile_size=tile, bs_tile_size=bs_tile)
        qr, bs = lstsq_trace(
            rows, cols, tile, limbs, complex_data=complex_data, bs_tile_size=bs_tile
        )
        assert launch_records(qr) == launch_records(expected.qr_trace)
        assert launch_records(bs) == launch_records(expected.bs_trace)

    @pytest.mark.parametrize(
        "tile,bs_tile,complex_data",
        [(4, None, False), (4, 2, True), (2, 4, False)],
    )
    def test_batched_equals_oracle_records_batched(self, tile, bs_tile, complex_data, rng):
        a = random_matrix(10, 8, 2, complex_data, rng)
        b = random_vector(10, 2, complex_data, rng)
        expected = dense.lstsq(a, b, tile_size=tile, bs_tile_size=bs_tile)
        qr, bs = batched_lstsq_trace(
            3, 10, 8, tile, 2, complex_data=complex_data, bs_tile_size=bs_tile
        )
        assert launch_records(qr) == launch_records(expected.qr_trace.batched(3))
        assert launch_records(bs) == launch_records(expected.bs_trace.batched(3))

    def test_back_substitution_tiles_follow_bs_tile_size(self, rng):
        """Four 2x2 tiles: one ``Q^H b`` launch, one inversion, four
        multiplications and three updates."""
        a = random_matrix(8, 8, 2, False, rng)
        b = random_vector(8, 2, False, rng)
        expected = dense.lstsq(a, b, tile_size=4, bs_tile_size=2)
        _, bs = lstsq_trace(8, 8, 4, 2, bs_tile_size=2)
        assert len(expected.bs_trace) == len(bs) == 9
        assert launch_records(bs) == launch_records(expected.bs_trace)

    def test_batched_complex_data_prices_complex_arithmetic(self, rng):
        """Two complex 8x8 double double systems: 634,624 flops, the
        oracle's records batched."""
        a = random_matrix(8, 8, 2, True, rng)
        b = random_vector(8, 2, True, rng)
        expected = dense.lstsq(a, b, tile_size=4)
        qr, bs = batched_lstsq_trace(2, 8, 8, 4, 2, complex_data=True)
        assert qr.total_flops() + bs.total_flops() == 634_624
        assert launch_records(qr) == launch_records(expected.qr_trace.batched(2))
        assert launch_records(bs) == launch_records(expected.bs_trace.batched(2))

    def test_problem_bytes(self):
        base = problem_bytes(100, 50, 4, with_q=False)
        assert base == (100 * 50 + 100) * 4 * 8
        assert problem_bytes(100, 50, 4) > base
        assert problem_bytes(10, 10, 2, complex_data=True) == 2 * problem_bytes(10, 10, 2)
