"""Polynomial systems and homotopies as first-class tracker inputs.

* :mod:`repro.poly.system` — :class:`PolynomialSystem`: monomial
  supports with multiple double coefficients, shared-monomial
  vectorized evaluation and Jacobian assembly on limb-major
  :class:`~repro.vec.mdarray.MDArray` data, truncated-series overloads
  (batched Cauchy products), and the generated residual/Jacobian
  adapters the Newton/Padé trackers consume directly.
* :mod:`repro.poly.homotopy` — realification of complex systems,
  total-degree start systems with roots-of-unity seeds, and the
  random-gamma convex combination :class:`Homotopy` with its
  :meth:`~Homotopy.track` / :meth:`~Homotopy.track_fleet` drivers.
* :mod:`repro.poly.families` — reproducible benchmark families
  (:func:`katsura`, :func:`cyclic`, :func:`noon`).

Evaluation is checked bit for bit at every paper precision against the
scalar loop-per-monomial test oracle ``tests/oracles/poly.py``.
"""

from .families import cyclic, katsura, noon
from .homotopy import (
    Homotopy,
    embed_complex,
    extract_complex,
    realify_terms,
    roots_of_unity,
    total_degree_start,
)
from .system import PolynomialSystem

__all__ = [
    "PolynomialSystem",
    "Homotopy",
    "realify_terms",
    "roots_of_unity",
    "total_degree_start",
    "embed_complex",
    "extract_complex",
    "katsura",
    "cyclic",
    "noon",
]
