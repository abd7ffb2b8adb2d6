"""Padé approximants from truncated power series.

An ``[L/M]`` Padé approximant ``p(t) / q(t)`` (``deg p <= L``,
``deg q <= M``, ``q(0) = 1``) matches the series ``f(t) = sum c_k t^k``
through order ``L + M``.  The denominator coefficients solve the
Hankel-structured linear system

    ``sum_{j=1..M} c_{L+i-j} q_j = -c_{L+i}``,  ``i = 1 .. M``,

which is the paper's showcase for "multiprecision adds significant
value": these systems lose roughly two decimal digits of accuracy per
degree, so hardware doubles break down around degree eight while the
multiple double least squares solver (Algorithms 1 and 2, batched in
:func:`repro.batch.least_squares.batched_least_squares`) keeps delivering accurate approximants at its working precision.

The construction lives once, in :func:`repro.batch.pade.batched_pade`:
it reads the limb-major coefficient arrays directly, gathers every
Hankel matrix and right-hand side in one indexing operation per side,
solves them with one batched least squares call, and finishes the
numerators with one triangular convolution and the *defect* — the
first series coefficient an approximant fails to match, which drives
the error estimate the adaptive path tracker uses to choose its step
size — with one windowed convolution coefficient.  :func:`pade` is a
batch of one; the unbatched construction it was is the test oracle
``tests/oracles/series.py``.  This module keeps
:class:`PadeApproximant`, its evaluation and its error and pole
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..gpu.kernel import KernelTrace
from ..md.constants import Precision
from ..obs.profile import profiled
from ..md.number import MultiDouble
from ..vec.complexmd import MDComplexArray, finite_mask
from .complexvec import ComplexTruncatedSeries
from .truncated import TruncatedSeries

__all__ = ["PadeApproximant", "pade"]


def _horner(coefficients, point: MultiDouble) -> MultiDouble:
    total = coefficients[-1]
    for coefficient in reversed(coefficients[:-1]):
        total = total * point + coefficient
    return total


def _magnitude(value) -> float:
    """Leading-double magnitude of a real or complex multiple double."""
    return float(abs(value))


def _leading_heads(array) -> np.ndarray:
    """Leading limbs of a coefficient array — ``complex128`` values for
    complex (separated-plane) data, doubles for real data."""
    if isinstance(array, MDComplexArray):
        return array.real.data[0] + 1j * array.imag.data[0]
    return array.data[0]


def _limb_planes(array) -> np.ndarray:
    """All limb planes of a coefficient array stacked along axis 0 (both
    planes for complex data) — the raw material of limb-aware
    nonzero tests."""
    if isinstance(array, MDComplexArray):
        return np.concatenate([array.real.data, array.imag.data], axis=0)
    return array.data


@dataclass
class PadeApproximant:
    """An ``[L/M]`` Padé approximant with multiple double coefficients."""

    #: numerator coefficients ``p_0 .. p_L``
    numerator: tuple
    #: denominator coefficients ``q_0 = 1, q_1 .. q_M``
    denominator: tuple
    precision: Precision
    #: coefficient of ``t**(L+M+1)`` in ``q f - p`` (the first unmatched
    #: series coefficient), or ``None`` when the input series was too
    #: short to compute it
    defect: object = None
    #: kernel trace of the Hankel solve (``None`` for ``M = 0``)
    trace: object = None
    #: the coefficients in limb-major array form (what the construction
    #: produced; the tuples above are their scalar views)
    numerator_array: object = None
    denominator_array: object = None

    @property
    def numerator_degree(self) -> int:
        return len(self.numerator) - 1

    @property
    def denominator_degree(self) -> int:
        return len(self.denominator) - 1

    @property
    def order(self) -> int:
        """The series order matched by construction (``L + M``)."""
        return self.numerator_degree + self.denominator_degree

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate_numerator(self, point) -> MultiDouble:
        return _horner(self.numerator, MultiDouble(point, self.precision))

    def evaluate_denominator(self, point) -> MultiDouble:
        return _horner(self.denominator, MultiDouble(point, self.precision))

    def evaluate(self, point) -> MultiDouble:
        """``p(point) / q(point)`` in the working precision."""
        point = MultiDouble(point, self.precision)
        return _horner(self.numerator, point) / _horner(self.denominator, point)

    def evaluate_fraction(self, point: Fraction) -> Fraction:
        """Exact rational evaluation of the stored coefficients."""
        point = Fraction(point)

        def exact_horner(coefficients):
            total = Fraction(0)
            for coefficient in reversed(coefficients):
                total = total * point + coefficient.to_fraction()
            return total

        return exact_horner(self.numerator) / exact_horner(self.denominator)

    # ------------------------------------------------------------------
    # error estimation (on the leading limbs of the coefficient arrays)
    # ------------------------------------------------------------------
    def error_estimate(self, point) -> float:
        """Leading-term estimate of ``|f(point) - p/q(point)|``.

        The first unmatched term of the approximant is
        ``defect * t**(L+M+1) / q(t)``; its magnitude at ``point``
        (leading limbs) is the classical a posteriori step-size estimate
        of Padé-based path trackers.  Returns ``inf`` when the defect is
        unknown and the evaluation point is nonzero.
        """
        t = abs(float(point))
        if t == 0.0:
            return 0.0
        if self.defect is None:
            return float("inf")
        q_value = _magnitude(self.evaluate_denominator(point))
        if q_value == 0.0:
            return float("inf")
        return _magnitude(self.defect) * t ** (self.order + 1) / q_value

    def pole_estimate(self) -> float:
        """Cauchy lower bound on the distance to the nearest pole.

        Every root ``z`` of ``q`` satisfies
        ``|z| >= |q_0| / (|q_0| + max_j |q_j|)`` (leading limbs), so the
        returned value is a guaranteed (if conservative) pole-free
        radius the tracker can step inside.  ``inf`` for ``M = 0`` or an
        identically constant denominator.
        """
        if self.denominator_degree == 0:
            return float("inf")
        heads = np.abs(_leading_heads(self.denominator_array))
        tail = float(np.max(heads[1:]))
        if tail == 0.0:
            return float("inf")
        head = float(heads[0])
        return head / (head + tail)

    def pole_radius(self) -> float:
        """Distance to the nearest pole: the smallest root modulus of
        the denominator (leading limbs, companion-matrix roots).

        This is the "closest pole of the Padé approximant" that drives
        the step size in Padé-based path trackers: unlike the
        guaranteed-but-conservative Cauchy bound of
        :meth:`pole_estimate` (which collapses toward zero whenever an
        ill-conditioned Hankel solve inflates a denominator
        coefficient, freezing the step), the actual root modulus stays
        proportional to the true pole distance.  Falls back to the
        Cauchy bound when the denominator heads are not finite;
        ``inf`` for a constant denominator.

        The effective denominator degree uses a **limb-aware** nonzero
        test on the stored coefficient array: a coefficient whose
        leading limb underflows to ``0.0`` while lower limbs stay
        nonzero still counts (its limb sum stands in for the head), so
        no denominator root silently drops out of the step-control
        estimate at qd/od.
        """
        planes = _limb_planes(self.denominator_array)  # (limbs[, planes], M+1)
        if not np.isfinite(planes).all():
            return self.pole_estimate()
        heads = _leading_heads(self.denominator_array)
        # limb-aware: a coefficient is nonzero when ANY limb of ANY
        # plane is; where the head underflowed to 0.0, the limb sum is
        # the best available double approximation of the coefficient
        nonzero = np.any(planes != 0.0, axis=0)
        if isinstance(self.denominator_array, MDComplexArray):
            summed = (
                self.denominator_array.real.data.sum(axis=0)
                + 1j * self.denominator_array.imag.data.sum(axis=0)
            )
        else:
            summed = self.denominator_array.data.sum(axis=0)
        approx = np.where(heads != 0.0, heads, summed)
        degrees = np.nonzero(nonzero)[0]
        if len(degrees) == 0 or degrees[-1] == 0:
            return float("inf")
        coefficients = approx[degrees[-1] :: -1]  # highest power first
        if coefficients[0] == 0.0:  # pragma: no cover - fully cancelled limbs
            return self.pole_estimate()
        roots = np.roots(coefficients)
        if len(roots) == 0:  # pragma: no cover - defensive
            return float("inf")
        return float(np.min(np.abs(roots)))

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"PadeApproximant(L={self.numerator_degree}, "
            f"M={self.denominator_degree}, precision={self.precision.name!r})"
        )


@profiled("pade", trace_of=lambda result: result.trace)
def pade(
    series,
    numerator_degree=None,
    denominator_degree=None,
    *,
    precision=None,
    tile_size=None,
    device="V100",
) -> PadeApproximant:
    """Construct the ``[L/M]`` Padé approximant of a series.

    A batch of one: slice 0 of :func:`repro.batch.pade.batched_pade`,
    whose Hankel launches become the approximant's ``trace``.

    Parameters
    ----------
    series:
        A :class:`TruncatedSeries` or
        :class:`~repro.series.complexvec.ComplexTruncatedSeries`, or a
        plain list of coefficients (scalars or
        :class:`~repro.md.number.MultiDouble` values).
    numerator_degree, denominator_degree:
        ``L`` and ``M``; both default to ``series.order // 2`` (the
        diagonal approximant).  ``L + M`` must not exceed the series
        truncation order.
    precision:
        Working precision when ``series`` is a plain coefficient list.
    tile_size:
        Panel/tile width of the least squares Hankel solve (defaults as
        in :func:`repro.core.least_squares.lstsq`).
    device:
        Simulated device the Hankel solve is attributed to.

    Raises
    ------
    ZeroDivisionError
        When the Hankel system of a finite series is singular (its
        solve is not finite), as for a polynomial of degree below
        ``L + 1`` — the batched construction leaves such a slice
        non-finite instead.
    """
    from ..batch.pade import batched_pade

    if not isinstance(series, (TruncatedSeries, ComplexTruncatedSeries)):
        series = TruncatedSeries(series, precision if precision is not None else 2)
    trace = KernelTrace(device, label="least squares (QR + BS)")
    (approximant,) = batched_pade(
        [series],
        numerator_degree,
        denominator_degree,
        precision=precision,
        tile_size=tile_size,
        device=device,
        trace=trace,
    )
    if approximant.denominator_degree > 0:
        if finite_mask(series.coefficients) and not finite_mask(
            approximant.denominator_array
        ):
            raise ZeroDivisionError(
                "singular Hankel system: the Padé denominator is not finite"
            )
        approximant.trace = trace
    return approximant
