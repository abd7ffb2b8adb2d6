"""Correctness gates of the end-to-end benchmark.

Every op (one least squares solve, or one tracked path) gets a verdict.
The gates are deliberately independent of the code under test where
possible: the dense solve is checked by its residual in working
precision and against ``numpy.linalg.solve``, and the path endpoints
against solutions computed in closed form.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

#: Endpoint residual every reached path must meet, ``max_i |F_i(x)|``.
RESIDUAL_TOL = 1e-8
#: Distance below which two endpoints count as the same solution.
DISTINCT_TOL = 1e-6
#: Distance within which an endpoint matches a known solution.
ROOT_TOL = 1e-8
#: Relative agreement of the leading limbs with ``numpy.linalg.solve``.
NUMPY_TOL = 1e-8
#: An unreached path counts as diverging (heading to a solution at
#: infinity) once it is this many times farther out than every finite
#: solution.
DIVERGE_FACTOR = 10.0


@dataclass
class Verdict:
    """The outcome of one op."""

    label: str
    ok: bool
    detail: str


def lstsq_verdict(label, matrix, rhs, x, eps) -> Verdict:
    """Check a square least squares solve ``A x = b``.

    The scaled residual ``||b - Ax||inf / (||A||inf ||x||inf + ||b||inf)``,
    with ``b - Ax`` computed in working precision, must be at most
    ``256 n eps``; the leading limbs must agree with
    ``numpy.linalg.solve`` to :data:`NUMPY_TOL`.
    """
    from repro.vec import linalg

    n = matrix.shape[1]
    residual = rhs - linalg.matvec(matrix, x)
    a0, b0, x0 = matrix.to_double(), rhs.to_double(), x.to_double()
    scale = np.abs(a0).sum(axis=1).max() * np.abs(x0).max() + np.abs(b0).max()
    scaled = float(np.abs(residual.to_double()).max() / scale)
    reference = np.linalg.solve(a0, b0)
    error = float(np.abs(x0 - reference).max() / np.abs(reference).max())
    bound = 256 * n * eps
    ok = bool(np.isfinite(scaled) and scaled <= bound and error <= NUMPY_TOL)
    return Verdict(
        label, ok, f"scaled residual {scaled:.2e} (bound {bound:.2e}), vs numpy {error:.1e}"
    )


def path_verdicts(labels, points, residuals, reached, failed, roots) -> list:
    """Verdicts for the paths of one homotopy solve.

    ``points`` are the complex endpoints, ``roots`` every finite
    solution of the target.  A reached path passes when its residual
    is at most :data:`RESIDUAL_TOL`, it matches one of ``roots`` and no
    other endpoint coincides with it.  An unreached path passes only
    when it diverges: the target has ``len(labels) - len(roots)``
    solutions at infinity, and at most that many paths may head there.
    """
    roots = [np.asarray(root, dtype=complex) for root in roots]
    points = [np.asarray(point, dtype=complex) for point in points]
    finite_reach = DIVERGE_FACTOR * max(np.abs(root).max() for root in roots)
    at_infinity = len(labels) - len(roots)
    verdicts = []
    for i, label in enumerate(labels):
        if failed[i]:
            verdicts.append(Verdict(label, False, "flagged failed"))
            continue
        size = float(np.abs(points[i]).max())
        if not reached[i]:
            diverging = size >= finite_reach and at_infinity > 0
            at_infinity -= diverging
            detail = f"diverged to |x| = {size:.3g}" if diverging else (
                f"did not reach t = 1 (|x| = {size:.3g})"
            )
            verdicts.append(Verdict(label, bool(diverging), detail))
            continue
        twins = [
            j for j in range(len(points))
            if j != i and reached[j] and np.abs(points[j] - points[i]).max() <= DISTINCT_TOL
        ]
        match = min(float(np.abs(points[i] - root).max()) for root in roots)
        ok = residuals[i] <= RESIDUAL_TOL and match <= ROOT_TOL and not twins
        detail = f"residual {residuals[i]:.1e}, root distance {match:.1e}"
        if twins:
            detail += f", same endpoint as {', '.join(labels[j] for j in twins)}"
        verdicts.append(Verdict(label, bool(ok), detail))
    return verdicts


def cyclic3_roots() -> list:
    """The six solutions of cyclic-3: permutations of the cube roots of
    unity (``x0 + x1 + x2 = 0``, ``x0x1 + x1x2 + x2x0 = 0`` and
    ``x0x1x2 = 1`` make them the roots of ``z^3 - 1``)."""
    cube = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    return [tuple(p) for p in itertools.permutations(cube)]


def noon2_roots(parameter: float = 1.1) -> list:
    """The five finite solutions of noon-2.

    The first equation gives ``x0 = -1 / (x1^2 - c)``; substituting it
    into the second leaves the quintic
    ``x1 + (1 - c x1) (x1^2 - c)^2 = 0``.  The other four of the nine
    total-degree paths go to infinity.
    """
    c = parameter
    square = np.poly1d([1.0, 0.0, -c])
    quintic = np.poly1d([1.0, 0.0]) + np.poly1d([-c, 1.0]) * square * square
    return [(-1.0 / (x1 * x1 - c), complex(x1)) for x1 in quintic.roots]
