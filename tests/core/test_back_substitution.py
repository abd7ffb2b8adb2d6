"""Tests for Algorithm 1 (tiled back substitution) and the tile inversion
of the dense oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import batched_back_substitution
from repro.core import stages
from repro.core.back_substitution import (
    solve_upper_triangular,
    tiled_back_substitution,
)
from repro.core.baseline import classical_back_substitution
from repro.core.tile_inverse import solve_upper_triangular_dense
from repro.vec import MDArray, MDComplexArray, linalg
from repro.vec import batched as vb
from repro.vec import random as mdrandom

from ..oracles.dense import invert_upper_triangular


def residual_level(limbs: int) -> float:
    """Expected residual magnitude for a well conditioned solve."""
    return 2.0 ** (-50 * limbs)


class TestTileInverse:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_inverse_times_tile_is_identity(self, n, md_limbs, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(n, md_limbs, rng)
        inv = invert_upper_triangular(u)
        product = linalg.matmul(inv, u)
        err = np.max(np.abs(product.to_double() - np.eye(n)))
        assert err <= 1e4 * residual_level(md_limbs)

    def test_inverse_is_upper_triangular(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(6, 2, rng)
        inv = invert_upper_triangular(u)
        assert np.max(np.abs(np.tril(inv.to_double(), -1))) < 1e-25

    def test_complex_tile(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(5, 2, rng, complex_data=True)
        inv = invert_upper_triangular(u)
        product = linalg.matmul(inv, u)
        assert np.max(np.abs(product.to_complex() - np.eye(5))) < 1e-26

    def test_singular_tile_raises(self):
        u = MDArray.from_double(np.triu(np.ones((3, 3))), 2)
        u[1, 1] = 0.0
        with pytest.raises(ZeroDivisionError):
            invert_upper_triangular(u)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            invert_upper_triangular(MDArray.zeros((2, 3), 2))

    def test_dense_solve_matches_inverse(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(7, 4, rng)
        b = mdrandom.random_vector(7, 4, rng)
        x1 = solve_upper_triangular_dense(u, b)
        x2 = linalg.matvec(invert_upper_triangular(u), b)
        assert x1.allclose(x2, tol=1e-55)

    def test_dense_solve_validates_rhs(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(4, 2, rng)
        with pytest.raises(ValueError):
            solve_upper_triangular_dense(u, MDArray.zeros((5,), 2))


class TestTiledBackSubstitution:
    @pytest.mark.parametrize("dim,tile", [(12, 3), (16, 4), (24, 8), (20, 20), (8, 1)])
    def test_residual_at_working_precision(self, dim, tile, md_limbs, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(dim, md_limbs, rng)
        b = mdrandom.random_vector(dim, md_limbs, rng)
        result = tiled_back_substitution(u, b, tile)
        assert linalg.residual_norm(u, result.x, b) <= dim * 1e3 * residual_level(md_limbs)

    def test_kernel_launch_and_block_task_counts(self, rng):
        # the paper counts 1 + N(N+1)/2 block tasks for Algorithm 1; this
        # implementation groups the simultaneous updates of step 2(b) into
        # one launch with i-1 blocks, giving 2N launches
        from repro.core.back_substitution import paper_launch_count

        for dim, tile in ((24, 4), (32, 8), (18, 6)):
            n_tiles = dim // tile
            u = mdrandom.random_well_conditioned_upper_triangular(dim, 2, rng)
            b = mdrandom.random_vector(dim, 2, rng)
            result = tiled_back_substitution(u, b, tile)
            assert len(result.trace) == 2 * n_tiles
            assert paper_launch_count(n_tiles) == 1 + n_tiles * (n_tiles + 1) // 2
            # block tasks: the invert launch counts once in the paper's
            # formula, each update block counts individually
            update_blocks = sum(
                launch.blocks
                for launch in result.trace.launches
                if launch.stage == stages.STAGE_BACK_SUBSTITUTION
            )
            multiply_launches = sum(
                1
                for launch in result.trace.launches
                if launch.stage == stages.STAGE_MULTIPLY_INVERSE
            )
            assert 1 + multiply_launches + update_blocks == paper_launch_count(n_tiles)

    def test_stage_names_match_paper(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(12, 2, rng)
        b = mdrandom.random_vector(12, 2, rng)
        result = tiled_back_substitution(u, b, 4)
        assert result.trace.stages() == list(stages.BS_STAGES)

    def test_agrees_with_classical_baseline(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(20, 4, rng)
        b = mdrandom.random_vector(20, 4, rng)
        tiled = tiled_back_substitution(u, b, 5)
        classical, _ = classical_back_substitution(u, b)
        assert tiled.x.allclose(classical, tol=1e-55)

    def test_agrees_with_numpy_in_double(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(16, 2, rng)
        b = mdrandom.random_vector(16, 2, rng)
        x = tiled_back_substitution(u, b, 4).x
        reference = np.linalg.solve(np.triu(u.to_double()), b.to_double())
        assert np.allclose(x.to_double(), reference, rtol=1e-10)

    def test_complex_system(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(12, 2, rng, complex_data=True)
        b = mdrandom.random_complex_vector(12, 2, rng)
        result = tiled_back_substitution(u, b, 4)
        r = b - linalg.matvec(u, result.x)
        assert float(linalg.norm(r).to_double()) < 1e-27

    def test_result_metadata(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(12, 2, rng)
        b = mdrandom.random_vector(12, 2, rng)
        result = tiled_back_substitution(u, b, 3)
        assert result.tile_size == 3 and result.tiles == 4
        assert result.dimension == 12

    def test_ignores_strictly_lower_entries(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(9, 2, rng)
        b = mdrandom.random_vector(9, 2, rng)
        x_clean = tiled_back_substitution(u, b, 3).x
        dirty = u.copy()
        dirty.data[0] += np.tril(np.ones((9, 9)), -1) * 0.5  # garbage below diagonal
        x_dirty = tiled_back_substitution(linalg.triu(dirty), b, 3).x
        assert x_clean.allclose(x_dirty, tol=1e-25)

    def test_invalid_tile_size(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(10, 2, rng)
        b = mdrandom.random_vector(10, 2, rng)
        with pytest.raises(ValueError):
            tiled_back_substitution(u, b, 3)
        with pytest.raises(ValueError):
            tiled_back_substitution(u, b, 0)

    def test_input_validation(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(6, 2, rng)
        with pytest.raises(ValueError):
            tiled_back_substitution(u, MDArray.zeros((5,), 2), 2)
        with pytest.raises(ValueError):
            tiled_back_substitution(MDArray.zeros((4, 6), 2), MDArray.zeros((4,), 2), 2)
        with pytest.raises(ValueError):
            tiled_back_substitution(u, MDArray.zeros((6,), 4), 2)

    def test_bytes_and_flops_recorded(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(12, 4, rng)
        b = mdrandom.random_vector(12, 4, rng)
        trace = tiled_back_substitution(u, b, 4).trace
        assert trace.total_flops() > 0
        assert trace.total_bytes() > 0
        assert all(launch.threads_per_block == 4 for launch in trace.launches)


class TestSingularFactors:
    """A zero leading limb on the diagonal: the unbatched entry points
    raise, the batched driver poisons only that system's slice."""

    @pytest.fixture
    def singular(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(6, 2, rng)
        u[4, 4] = 0.0  # in the second of two tiles
        return u, mdrandom.random_vector(6, 2, rng)

    def test_tiled_back_substitution_raises(self, singular):
        u, b = singular
        with pytest.raises(ZeroDivisionError):
            tiled_back_substitution(u, b, 3)

    def test_solve_upper_triangular_raises(self, singular):
        u, b = singular
        with pytest.raises(ZeroDivisionError):
            solve_upper_triangular(u, b, 3)

    def test_batched_poisons_only_its_slice(self, singular, rng):
        u, b = singular
        good = mdrandom.random_well_conditioned_upper_triangular(6, 2, rng)
        result = batched_back_substitution(vb.stack([u, good]), vb.stack([b, b]), 3)
        assert result.finite_systems().tolist() == [False, True]


class TestMixedKinds:
    def test_complex_rhs_on_real_matrix_is_rejected(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(4, 2, rng)
        b = mdrandom.random_complex_vector(4, 2, rng)
        with pytest.raises(ValueError, match="complex right-hand side"):
            tiled_back_substitution(u, b, 2)

    def test_real_rhs_on_complex_matrix_is_promoted(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(4, 2, rng, complex_data=True)
        b = mdrandom.random_vector(4, 2, rng)
        promoted = MDComplexArray(b, MDArray.zeros((4,), 2))
        x = tiled_back_substitution(u, b, 2).x
        assert x.equals(tiled_back_substitution(u, promoted, 2).x)


class TestSolveUpperTriangularWrapper:
    def test_default_tile_size(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(36, 2, rng)
        b = mdrandom.random_vector(36, 2, rng)
        x = solve_upper_triangular(u, b)
        assert linalg.residual_norm(u, x, b) < 1e-26

    def test_prime_dimension_falls_back_to_serial_tiling(self, rng):
        u = mdrandom.random_well_conditioned_upper_triangular(7, 2, rng)
        b = mdrandom.random_vector(7, 2, rng)
        x = solve_upper_triangular(u, b)
        assert linalg.residual_norm(u, x, b) < 1e-27
