"""Seeded failures: every correctness gate of the end-to-end benchmark
must be able to fail."""

from __future__ import annotations

import numpy as np
import pytest

import verify
import workloads


def _solve(workload, inputs):
    return [thunk() for _, thunk in workload.calls(inputs)]


@pytest.fixture(scope="module")
def tiny_ladder():
    ladder = workloads.LstsqLadder(seed=3)
    ladder.LADDER = ((2, 8), (4, 8), (8, 8))
    inputs = ladder.inputs(0)
    return ladder, inputs, _solve(ladder, inputs)


def test_ladder_passes_untouched(tiny_ladder):
    ladder, inputs, results = tiny_ladder
    assert [v.ok for v in ladder.check(inputs, results)] == [True, True, True]


@pytest.mark.parametrize("rung", [0, 1, 2])
def test_one_corrupted_limb_fails_its_solve(tiny_ladder, rung):
    ladder, inputs, results = tiny_ladder
    x = results[rung].x
    original = x.data.copy()
    # far below double precision: only the working-precision residual sees it
    x.data[1, 3] += 1e-6 * abs(x.data[1, 3]) + 1e-40
    try:
        verdicts = ladder.check(inputs, results)
    finally:
        x.data[...] = original
    assert [v.ok for v in verdicts] == [i != rung for i in range(3)]
    assert "scaled residual" in verdicts[rung].detail


def test_leading_limbs_are_compared_with_numpy(tiny_ladder):
    ladder, inputs, results = tiny_ladder
    limbs, n, a, b = inputs[0]
    x = results[0].x
    verdict = verify.lstsq_verdict("dd", a, b, x, eps=1.0)  # residual gate disabled
    assert verdict.ok
    shifted = x.copy()
    shifted.data[0, 0] *= 1 + 1e-6
    assert not verify.lstsq_verdict("dd", a, b, shifted, eps=1.0).ok


def _cyclic3_paths(**changes):
    roots = verify.cyclic3_roots()
    points = [list(root) for root in roots]
    fields = {
        "labels": [f"path {i}" for i in range(6)],
        "points": points,
        "residuals": [0.0] * 6,
        "reached": [True] * 6,
        "failed": [False] * 6,
        "roots": roots,
    }
    fields.update(changes)
    return verify.path_verdicts(**fields)


def test_cyclic3_endpoints_pass():
    assert all(v.ok for v in _cyclic3_paths())


def test_duplicated_cyclic3_endpoint_fails_both_paths():
    points = [list(root) for root in verify.cyclic3_roots()]
    points[4] = list(points[1])
    verdicts = _cyclic3_paths(points=points)
    assert [v.ok for v in verdicts] == [True, False, True, True, False, True]
    assert "same endpoint as path 4" in verdicts[1].detail


def test_unreached_path_fails():
    reached = [True] * 6
    reached[2] = False
    verdicts = _cyclic3_paths(reached=reached)
    assert [v.ok for v in verdicts] == [True, True, False, True, True, True]


def test_cyclic3_has_no_room_for_diverging_paths():
    points = [list(root) for root in verify.cyclic3_roots()]
    points[0] = [1e6, 1e6, 1e6]
    reached = [False] + [True] * 5
    assert not _cyclic3_paths(points=points, reached=reached)[0].ok


def test_wrong_root_and_large_residual_fail():
    points = [list(root) for root in verify.cyclic3_roots()]
    points[3] = [1.0, 1.0, 1.0]
    residuals = [0.0] * 6
    residuals[5] = 1e-6
    verdicts = _cyclic3_paths(points=points, residuals=residuals)
    assert [v.ok for v in verdicts] == [True, True, True, False, True, False]


def test_flagged_failed_path_fails():
    failed = [False] * 6
    failed[0] = True
    assert not _cyclic3_paths(failed=failed)[0].ok


def test_noon2_allows_only_four_diverging_paths():
    roots = verify.noon2_roots()
    assert len(roots) == 5
    far = [500.0, 1.0]
    labels = [f"path {i}" for i in range(9)]
    points = [list(root) for root in roots] + [far] * 4
    reached = [True] * 5 + [False] * 4
    verdicts = verify.path_verdicts(labels, points, [0.0] * 9, reached, [False] * 9, roots)
    assert all(v.ok for v in verdicts)
    # a finite root lost to a fifth diverging path
    points[0] = far
    reached[0] = False
    verdicts = verify.path_verdicts(labels, points, [0.0] * 9, reached, [False] * 9, roots)
    assert [v.ok for v in verdicts].count(False) == 1
    # an unreached path that has not gone far is no divergence
    points[0] = [2.0, 2.0]
    verdicts = verify.path_verdicts(labels, points, [0.0] * 9, reached, [False] * 9, roots)
    assert not verdicts[0].ok


@pytest.mark.parametrize(
    ("roots", "equations"),
    [
        (
            verify.cyclic3_roots(),
            lambda x: [x[0] + x[1] + x[2], x[0] * x[1] + x[1] * x[2] + x[2] * x[0],
                       x[0] * x[1] * x[2] - 1],
        ),
        (
            verify.noon2_roots(),
            lambda x: [x[0] * x[1] ** 2 - 1.1 * x[0] + 1, x[1] * x[0] ** 2 - 1.1 * x[1] + 1],
        ),
    ],
)
def test_reference_roots_solve_their_system(roots, equations):
    for root in roots:
        assert np.abs(equations(root)).max() < 1e-12
    distinct = {tuple(np.round(np.asarray(root), 8)) for root in roots}
    assert len(distinct) == len(roots)


def test_unreached_paths_fail_through_the_workload():
    fleet = workloads.make("cyclic3", seed=1)
    fleet.track = {**fleet.track, "max_steps": 2}
    inputs = fleet.inputs(0)
    verdicts = fleet.check(inputs, _solve(fleet, inputs))
    assert len(verdicts) == 6
    assert not any(v.ok for v in verdicts)
