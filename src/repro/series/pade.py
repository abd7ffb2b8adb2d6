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
``tests/oracles/series.py``.

The approximants come back as a :class:`PadeBatch` over the
construction's coefficient planes, and the step-control quantities run
on those planes for every row at once: evaluation (one batched Horner
sweep per side, :func:`repro.vec.linalg.horner`), the defect-based
error estimate and the pole radius (companion matrices grouped by
effective degree, one eigenvalue call per degree).
:class:`PadeApproximant` keeps one approximant's coefficients and runs
each of these as a batch of one; the scalar Horner, error estimate and
``np.roots`` radius they replaced are the test oracle
``tests/oracles/step_control.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..gpu.kernel import KernelTrace
from ..md.constants import Precision, get_precision
from ..obs.profile import profiled
from ..md.number import ComplexMultiDouble, MultiDouble
from ..vec import linalg
from ..vec.complexmd import MDComplexArray, finite_mask
from ..vec.mdarray import MDArray
from .complexvec import ComplexTruncatedSeries
from .truncated import TruncatedSeries

__all__ = ["PadeApproximant", "PadeBatch", "pade"]


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


def _magnitudes(values) -> np.ndarray:
    """``float(abs(x))`` of every element of a multiple double array.

    A real value is negated when its head is negative, or when its
    head is zero and its exact limb sum negative (so a zero head takes
    the sign rule of :meth:`MultiDouble.__abs__`, signed zeros
    included); a complex value is the multiple double square root of
    its squared modulus (zero where that has a zero head).
    """
    if isinstance(values, MDComplexArray):
        squares = values.abs2()
        heads = squares.data[0]
        out = np.zeros(heads.shape)
        live = heads != 0.0
        if live.any():
            out[live] = MDArray(squares.data[:, live]).sqrt().data[0]
        return out
    heads = values.data[0]
    flip = heads < 0.0
    for index in zip(*np.nonzero(heads == 0.0)):
        flip[index] = sum(map(Fraction, values.data[(slice(None), *index)])) < 0
    return np.where(flip, -heads, heads)


def _cauchy_bounds(denominators) -> np.ndarray:
    """:meth:`PadeBatch.pole_estimates` of a denominator array."""
    heads = np.abs(_leading_heads(denominators))
    if heads.shape[-1] == 1:
        return np.full(heads.shape[:-1], np.inf)
    tail = np.max(heads[..., 1:], axis=-1)
    head = heads[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = head / (head + tail)
    return np.where(tail == 0.0, np.inf, bounds)


def _smallest_root_moduli(polynomials, zero_roots: int) -> np.ndarray:
    """The smallest root modulus of every row of ``polynomials``
    (highest power first, nonzero leading and trailing coefficients),
    with ``zero_roots`` roots at the origin added to each: the roots
    ``np.roots`` finds, from the same companion matrices, with one
    eigenvalue call for the whole stack."""
    count, size = polynomials.shape[0], polynomials.shape[1] - 1
    roots = np.zeros((count, zero_roots), dtype=polynomials.dtype)
    if size > 0:
        companions = np.zeros((count, size, size), dtype=polynomials.dtype)
        companions[:, 0, :] = -polynomials[:, 1:] / polynomials[:, :1]
        companions[:, np.arange(1, size), np.arange(size - 1)] = 1.0
        eigenvalues = np.linalg.eigvals(companions)
        roots = np.concatenate([eigenvalues, roots.astype(eigenvalues.dtype)], axis=1)
    return np.min(np.abs(roots), axis=1)


class PadeBatch:
    """``B`` Padé approximants ``[L/M]`` of one precision on shared limb
    planes — what :func:`repro.batch.pade.batched_pade` returns.

    ``numerators`` (element shape ``(B, L+1)``), ``denominators``
    (``(B, M+1)``) and ``defects`` (``(B,)``; ``None`` when the series
    were too short to give them) are :class:`~repro.vec.mdarray.MDArray`
    or :class:`~repro.vec.complexmd.MDComplexArray` planes.  Evaluation,
    error estimates and pole radii run over every row at once, or over
    the rows an index array ``rows`` selects, with one real point per
    row (a float array, or the planes of an ``MDArray``).  The batch
    indexes and iterates as :class:`PadeApproximant` values built on
    demand.
    """

    __slots__ = ("numerators", "denominators", "defects", "precision")

    def __init__(self, numerators, denominators, defects, precision):
        self.numerators = numerators
        self.denominators = denominators
        self.defects = defects
        self.precision = get_precision(precision)

    @property
    def order(self) -> int:
        """The series order matched by construction (``L + M``)."""
        return self.numerators.shape[-1] + self.denominators.shape[-1] - 2

    def __len__(self) -> int:
        return self.numerators.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if not -len(self) <= index < len(self):
            raise IndexError(f"approximant {index} of a batch of {len(self)}")
        numerator = self.numerators[index]
        denominator = self.denominators[index]
        return PadeApproximant(
            numerator=tuple(numerator),
            denominator=tuple(denominator),
            precision=self.precision,
            defect=None if self.defects is None else self.defects.to_multidouble(index),
            numerator_array=numerator,
            denominator_array=denominator,
        )

    def __iter__(self):
        return (self[index] for index in range(len(self)))

    def _rows(self, array, rows):
        return array if rows is None else array[rows]

    def _points(self, points) -> MDArray:
        if isinstance(points, MDArray):
            return points
        return MDArray.from_double(
            np.asarray(points, dtype=np.float64), self.precision.limbs
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate_numerators(self, points, rows=None):
        """``p(point)`` of every row, in the working precision."""
        return linalg.horner(self._rows(self.numerators, rows), self._points(points))

    def evaluate_denominators(self, points, rows=None):
        """``q(point)`` of every row, in the working precision."""
        return linalg.horner(
            self._rows(self.denominators, rows), self._points(points)
        )

    def evaluate(self, points, rows=None):
        """``p(point) / q(point)`` of every row, in the working precision."""
        points = self._points(points)
        return self.evaluate_numerators(points, rows) / self.evaluate_denominators(
            points, rows
        )

    # ------------------------------------------------------------------
    # error and pole estimates (on the leading limbs)
    # ------------------------------------------------------------------
    def error_estimates(self, points, rows=None) -> np.ndarray:
        """Leading-term estimates of ``|f(point) - p/q(point)|``.

        The first unmatched term of an approximant is
        ``defect * t**(L+M+1) / q(t)``; its magnitude at the row's point
        (heads of the magnitudes, the power a Python float) is the
        classical a posteriori step-size estimate of Padé-based path
        trackers.  A zero point reads 0; an unknown defect or a zero
        denominator value reads ``inf``.
        """
        points = self._points(points)
        t = np.abs(points.data[0])
        if self.defects is None:
            return np.where(t == 0.0, 0.0, np.inf)
        values = _magnitudes(self.evaluate_denominators(points, rows))
        exponent = self.order + 1
        powers = np.array([value ** exponent for value in t.tolist()])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            estimates = _magnitudes(self._rows(self.defects, rows)) * powers / values
        return np.where(t == 0.0, 0.0, np.where(values == 0.0, np.inf, estimates))

    def pole_estimates(self, rows=None) -> np.ndarray:
        """Cauchy lower bounds on the distance to the nearest pole.

        Every root ``z`` of ``q`` satisfies
        ``|z| >= |q_0| / (|q_0| + max_j |q_j|)`` (leading limbs), so each
        value is a guaranteed (if conservative) pole-free radius.
        ``inf`` for ``M = 0`` or an identically constant denominator.
        """
        return _cauchy_bounds(self._rows(self.denominators, rows))

    def pole_radii(self, rows=None) -> np.ndarray:
        """Distance to the nearest pole of every row: the smallest root
        modulus of the denominator (leading limbs, companion-matrix
        roots).

        This is the "closest pole of the Padé approximant" that drives
        the step size in Padé-based path trackers: unlike the
        guaranteed-but-conservative Cauchy bound of
        :meth:`pole_estimates` (which collapses toward zero whenever an
        ill-conditioned Hankel solve inflates a denominator
        coefficient, freezing the step), the actual root modulus stays
        proportional to the true pole distance.  A row whose
        denominator is not finite falls back to the Cauchy bound; a
        constant denominator reads ``inf``.

        The effective denominator degree uses a **limb-aware** nonzero
        test: a coefficient whose leading limb underflows to ``0.0``
        while lower limbs stay nonzero still counts (its limb sum stands
        in for the head), so no denominator root silently drops out of
        the step-control estimate at qd/od.  The rows are grouped by
        effective degree, and each group's companion matrices take one
        eigenvalue call.
        """
        denominators = self._rows(self.denominators, rows)
        planes = _limb_planes(denominators)  # (limbs[, planes], B, M+1)
        radii = np.full(denominators.shape[0], np.inf)
        finite = np.isfinite(planes).all(axis=(0, 2))
        if not finite.all():
            radii[~finite] = _cauchy_bounds(denominators)[~finite]
        heads = _leading_heads(denominators)
        # limb-aware: a coefficient is nonzero when ANY limb of ANY
        # plane is; where the head underflowed to 0.0, the limb sum is
        # the best available double approximation of the coefficient
        nonzero = np.any(planes != 0.0, axis=0)
        if isinstance(denominators, MDComplexArray):
            summed = (
                denominators.real.data.sum(axis=0)
                + 1j * denominators.imag.data.sum(axis=0)
            )
        else:
            summed = denominators.data.sum(axis=0)
        approx = np.where(heads != 0.0, heads, summed)
        top = nonzero.shape[-1] - 1
        degrees = np.where(
            nonzero.any(axis=-1), top - np.argmax(nonzero[:, ::-1], axis=-1), 0
        )
        live = np.flatnonzero(finite & (degrees > 0))
        for degree in sorted(set(degrees[live].tolist())):
            members = live[degrees[live] == degree]
            polynomials = approx[members, degree::-1]  # highest power first
            cancelled = polynomials[:, 0] == 0.0  # fully cancelled limbs
            if cancelled.any():
                radii[members[cancelled]] = _cauchy_bounds(denominators)[
                    members[cancelled]
                ]
                members, polynomials = members[~cancelled], polynomials[~cancelled]
            # np.roots strips the zero low-order coefficients and counts
            # each as a root at the origin
            zeros = np.argmax(polynomials[:, ::-1] != 0.0, axis=1)
            for count in sorted(set(zeros.tolist())):
                group = zeros == count
                radii[members[group]] = _smallest_root_moduli(
                    polynomials[group, : degree + 1 - count], count
                )
        return radii


@dataclass
class PadeApproximant:
    """An ``[L/M]`` Padé approximant with multiple double coefficients.

    Its evaluation, error estimate and pole estimates run on a
    :class:`PadeBatch` of one.
    """

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

    def _batch(self) -> PadeBatch:
        """This approximant as a :class:`PadeBatch` of one."""
        defects = None
        if self.defect is not None:
            defects = _scalar_array(self.defect, self.precision)
        return PadeBatch(
            self.numerator_array.reshape(1, -1),
            self.denominator_array.reshape(1, -1),
            defects,
            self.precision,
        )

    def _point(self, point) -> MDArray:
        return MDArray.from_multidoubles([MultiDouble(point, self.precision)])

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate_numerator(self, point):
        return self._batch().evaluate_numerators(self._point(point)).to_multidouble(0)

    def evaluate_denominator(self, point):
        return self._batch().evaluate_denominators(self._point(point)).to_multidouble(0)

    def evaluate(self, point):
        """``p(point) / q(point)`` in the working precision; a zero
        ``q(point)`` raises ``ZeroDivisionError``, as scalar division
        does (a :class:`PadeBatch` row reads non-finite instead)."""
        batch, point = self._batch(), self._point(point)
        if _magnitudes(batch.evaluate_denominators(point))[0] == 0.0:
            raise ZeroDivisionError("the Padé denominator vanishes at the point")
        return batch.evaluate(point).to_multidouble(0)

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
    # error and pole estimates (see the PadeBatch methods)
    # ------------------------------------------------------------------
    def error_estimate(self, point) -> float:
        """Leading-term estimate of ``|f(point) - p/q(point)|``
        (:meth:`PadeBatch.error_estimates`)."""
        return float(self._batch().error_estimates(self._point(point))[0])

    def pole_estimate(self) -> float:
        """Cauchy lower bound on the distance to the nearest pole
        (:meth:`PadeBatch.pole_estimates`)."""
        return float(self._batch().pole_estimates()[0])

    def pole_radius(self) -> float:
        """Distance to the nearest pole, the smallest root modulus of the
        denominator (:meth:`PadeBatch.pole_radii`)."""
        return float(self._batch().pole_radii()[0])

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"PadeApproximant(L={self.numerator_degree}, "
            f"M={self.denominator_degree}, precision={self.precision.name!r})"
        )


def _scalar_array(value, precision):
    """A one-element array of the scalar's kind."""
    if isinstance(value, ComplexMultiDouble):
        return MDComplexArray.from_multidoubles([value], precision)
    return MDArray.from_multidoubles([value], precision)


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
