"""Polynomial homotopies: total-degree starts and the gamma trick.

The paper's workload tracks the solution paths of a *polynomial
homotopy*

    ``H(x, t) = gamma (1 - t) G(x) + t F(x)``,

from the known roots of a start system ``G`` at ``t = 0`` to the roots
of the target ``F`` at ``t = 1``, with a random complex ``gamma`` (the
"gamma trick": for all but finitely many ``gamma`` on the unit circle
the paths are free of singularities for ``t < 1``).

Two backends evaluate the same homotopy.  The default
(``backend="realified"``) runs complex systems on the real stack
through **realification**: writing ``x_j = u_j + i v_j``, an
``n``-dimensional complex system becomes a real
:class:`~repro.poly.system.PolynomialSystem` in ``2n`` real variables
(the ``u`` block then the ``v`` block) whose equations are the real and
imaginary parts — every complex root corresponds to a real root of the
realified system, and the complex ``gamma`` acts as a 2x2 rotation
block mixing the real and imaginary equation parts.  The expansion is
performed once, symbolically, at construction
(:func:`realify_terms`); evaluation then runs entirely on the
vectorized real kernels, bit-identical to the scalar test oracle
``tests/oracles/poly.py``.

``backend="complex"`` skips the detour entirely: the systems keep
their ``n`` complex variables and evaluate natively on the
separated-plane complex kernels
(:class:`~repro.series.complexvec.ComplexVectorSeries` residuals,
:class:`~repro.vec.complexmd.MDComplexArray` Jacobians), so a tracked
step pays the ~4x complex-arithmetic factor of the paper's Table 5
instead of the ~8x QR flops of the doubled realified dimension.  The
realified backend remains the cross-check: both track the same paths
to the same endpoints (pinned to working precision by the
cross-backend tests).

A :class:`Homotopy` is itself the residual/Jacobian object the
trackers consume: ``homotopy(x, t)`` evaluates the combination with
truncated series arithmetic — one path is a batch of one through the
residual core of its backend, the code :meth:`Homotopy.residual_fleet`
runs for a whole fleet — and ``homotopy.jacobian(x0, t0)`` combines
the start and target Jacobians (one shared power-product pass each) in
the Jacobian core of its backend, which :meth:`Homotopy.jacobian_fleet`
runs for a whole sub-batch of heads: the realified backend assembles
the real ``2n x 2n`` matrix, the complex one the ``n x n`` complex
matrix.  The unbatched twin of each core is the test oracle
``tests/oracles/poly.py``.  :meth:`Homotopy.track` /
:meth:`Homotopy.track_fleet` seed the start solutions (products of
roots of unity for the total-degree start system ``x_i^{d_i} - 1``)
and hand the whole fleet to :func:`repro.batch.fleet.track_paths`.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from ..md.constants import get_precision
from ..md.number import ComplexMultiDouble, MultiDouble
from ..vec import linalg
from ..vec.complexmd import MDComplexArray, map_planes
from ..vec.mdarray import MDArray
from .system import PolynomialSystem, _normalize_exponents, _parameter_planes

__all__ = [
    "realify_terms",
    "roots_of_unity",
    "total_degree_start",
    "embed_complex",
    "extract_complex",
    "Homotopy",
]

#: Exact powers of the imaginary unit (``1j ** k`` rounds in Python).
_I_POWERS = (1 + 0j, 0 + 1j, -1 + 0j, 0 - 1j)


def realify_terms(equations, variables):
    """Realify complex-coefficient term lists over ``variables``
    complex unknowns.

    Substituting ``x_j = u_j + i v_j`` and expanding binomially, every
    equation splits into its real and imaginary parts — two real
    equations over the ``2 * variables`` real unknowns
    ``u_1 .. u_n, v_1 .. v_n``.  Returns the realified term lists,
    real parts first (equation ``i`` of the complex system becomes
    equations ``i`` and ``n + i`` of the real one).  Binomial
    coefficients and powers of ``i`` are exact; the input coefficients
    are combined in double precision complex arithmetic.
    """
    equations = [list(eq) for eq in equations]
    n = int(variables)
    real_parts, imaginary_parts = [], []
    for eq in equations:
        expansion = {}
        for coefficient, exponents in eq:
            exponents = _normalize_exponents(exponents, n)
            partial = {(0,) * (2 * n): complex(coefficient)}
            for j, power in enumerate(exponents):
                if power == 0:
                    continue
                binomial = [
                    (math.comb(power, k) * _I_POWERS[k % 4], power - k, k)
                    for k in range(power + 1)
                ]
                grown = {}
                for key, value in partial.items():
                    for factor, u_power, v_power in binomial:
                        new_key = list(key)
                        new_key[j] += u_power
                        new_key[n + j] += v_power
                        new_key = tuple(new_key)
                        grown[new_key] = grown.get(new_key, 0j) + value * factor
                partial = grown
            for key, value in partial.items():
                expansion[key] = expansion.get(key, 0j) + value
        real_eq = [(value.real, key) for key, value in expansion.items() if value.real]
        imag_eq = [(value.imag, key) for key, value in expansion.items() if value.imag]
        if not real_eq or not imag_eq:
            raise ValueError(
                "realification produced an identically zero equation part; "
                "the complex system is degenerate"
            )
        real_parts.append(real_eq)
        imaginary_parts.append(imag_eq)
    return real_parts + imaginary_parts


def roots_of_unity(degree: int) -> list:
    """The ``degree`` complex roots of ``x^degree = 1``."""
    if degree < 1:
        raise ValueError("the degree must be positive")
    return [
        cmath.exp(2j * math.pi * k / degree) if k else 1 + 0j
        for k in range(degree)
    ]


def total_degree_start(degrees) -> tuple:
    """The total-degree start system ``x_i^{d_i} - 1 = 0``.

    Returns ``(terms, solutions)``: the complex term lists over
    ``len(degrees)`` variables and the full list of
    ``prod(degrees)`` start solutions (all combinations of roots of
    unity), in the deterministic ``itertools.product`` order.
    """
    degrees = [int(d) for d in degrees]
    if any(d < 1 for d in degrees):
        raise ValueError("every equation degree must be positive")
    n = len(degrees)
    terms = []
    for i, degree in enumerate(degrees):
        exponents = [0] * n
        exponents[i] = degree
        terms.append([(1, tuple(exponents)), (-1, (0,) * n)])
    solutions = [
        tuple(combo)
        for combo in itertools.product(*[roots_of_unity(d) for d in degrees])
    ]
    return terms, solutions


def embed_complex(point) -> list:
    """A complex ``n``-point as the realified ``2n`` real vector
    (``u`` block then ``v`` block).

    Multiple double components (:class:`ComplexMultiDouble`,
    :class:`MultiDouble`) pass through at full precision — the inverse
    of :func:`extract_complex`, so the round trip is lossless in both
    directions; plain numbers embed as doubles.
    """
    reals, imags = [], []
    for value in point:
        if isinstance(value, ComplexMultiDouble):
            reals.append(value.real)
            imags.append(value.imag)
        elif isinstance(value, MultiDouble):
            reals.append(value)
            imags.append(MultiDouble(0, value.precision))
        else:
            value = complex(value)
            reals.append(value.real)
            imags.append(value.imag)
    return reals + imags


def extract_complex(point) -> list:
    """The complex ``n``-point behind a realified ``2n`` real vector.

    Returns one :class:`~repro.md.number.ComplexMultiDouble` per
    component at the **full precision of the input**: a qd/od-tracked
    endpoint keeps every limb of its coordinates (the old behaviour
    rounded everything through ``float``, silently reporting multiple
    double roots at double precision).  The components compare equal to
    plain ``complex`` values and expose :meth:`ComplexMultiDouble.as_complex`
    for the rounded view, so ``embed_complex`` → track →
    ``extract_complex`` round trips are lossless.
    """
    values = list(point)
    if len(values) % 2:
        raise ValueError("a realified point has an even number of components")
    n = len(values) // 2
    prec = next(
        (value.precision for value in values if isinstance(value, MultiDouble)),
        get_precision(2),
    )

    def _part(value) -> MultiDouble:
        return value if isinstance(value, MultiDouble) else MultiDouble(value, prec)

    return [
        ComplexMultiDouble(_part(values[i]), _part(values[n + i])) for i in range(n)
    ]


class Homotopy:
    """``H(x, t) = gamma (1 - t) G(x) + t F(x)``.

    ``target`` and ``start`` are systems of ``n`` equations in ``n``
    complex unknowns, given as a
    :class:`~repro.poly.system.PolynomialSystem` or as raw
    (possibly complex-coefficient) term lists.  The instance is
    directly consumable by :func:`repro.series.newton.newton_series`,
    :func:`repro.series.tracker.track_path` and
    :func:`repro.batch.fleet.track_paths` — it is the residual callable
    and carries its own :meth:`jacobian`.

    Two interchangeable backends evaluate the same homotopy:

    * ``backend="realified"`` (default, the bit-levelable cross-check)
      expands ``x = u + iv`` symbolically and tracks ``2n`` real
      variables on the real kernels — every complex multiplication
      becomes ~8x the real QR flops through the doubled dimension;
    * ``backend="complex"`` keeps the ``n`` complex variables and runs
      **natively** on the separated-plane complex kernels
      (:class:`~repro.vec.complexmd.MDComplexArray`,
      :class:`~repro.series.complexvec.ComplexVectorSeries`), where a
      complex multiplication costs ~4x the real one (Table 5) — no
      realification anywhere on the path.
    """

    #: Supported evaluation backends.
    BACKENDS = ("realified", "complex")

    def __init__(
        self,
        target,
        start,
        *,
        variables=None,
        gamma=None,
        seed: int = 20220322,
        start_points=(),
        backend: str = "realified",
    ):
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self._backend = backend
        target_terms, target_variables = _coerce_terms(target, variables)
        start_terms, start_variables = _coerce_terms(start, variables)
        if target_variables != start_variables:
            raise ValueError(
                f"target and start dimensions differ: "
                f"{target_variables} vs {start_variables}"
            )
        self._dimension = target_variables
        if len(target_terms) != self._dimension or len(start_terms) != self._dimension:
            raise ValueError("homotopies need square systems (n equations, n unknowns)")
        if gamma is None:
            angle = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
            gamma = cmath.exp(1j * angle)
        self.gamma = complex(gamma)
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")
        if backend == "complex":
            # native complex systems: the term lists go in untouched
            self._target = PolynomialSystem(target_terms, self._dimension)
            self._start = PolynomialSystem(start_terms, self._dimension)
        else:
            self._target = PolynomialSystem(
                realify_terms(target_terms, self._dimension), 2 * self._dimension
            )
            self._start = PolynomialSystem(
                realify_terms(start_terms, self._dimension), 2 * self._dimension
            )
        #: complex start points (roots of the start system)
        self._start_points = [tuple(complex(v) for v in p) for p in start_points]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def total_degree(
        cls,
        target,
        *,
        variables=None,
        gamma=None,
        seed: int = 20220322,
        backend: str = "realified",
    ):
        """The total-degree homotopy of a target system.

        The start system is ``x_i^{d_i} - 1`` with ``d_i`` the total
        degree of target equation ``i``; the ``prod(d_i)`` start
        solutions (all products of roots of unity) are seeded for
        :meth:`track_fleet`.
        """
        target_terms, dimension = _coerce_terms(target, variables)
        degrees = [
            max(
                sum(_normalize_exponents(exponents, dimension))
                for _, exponents in eq
            )
            for eq in target_terms
        ]
        start_terms, solutions = total_degree_start(degrees)
        return cls(
            target_terms,
            start_terms,
            variables=dimension,
            gamma=gamma,
            seed=seed,
            start_points=solutions,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The evaluation backend (``"realified"`` or ``"complex"``)."""
        return self._backend

    @property
    def complex_coefficients(self) -> bool:
        """Whether the residuals are complex series — true on the
        native complex backend (the gamma combination is complex even
        over real-coefficient systems), so the trackers promote every
        start point to the complex staircase."""
        return self._backend == "complex"

    @property
    def dimension(self) -> int:
        """Complex dimension ``n`` of the underlying systems."""
        return self._dimension

    @property
    def real_dimension(self) -> int:
        """Real dimension ``2n`` of the realified formulation."""
        return 2 * self._dimension

    @property
    def tracking_dimension(self) -> int:
        """Number of tracked variables: ``n`` complex ones on the
        native backend, ``2n`` real ones on the realified backend."""
        return self._dimension if self._backend == "complex" else 2 * self._dimension

    @property
    def target_system(self) -> PolynomialSystem:
        """The target ``F`` (realified ``2n`` real system, or the
        native ``n`` complex system on the complex backend)."""
        return self._target

    @property
    def start_system(self) -> PolynomialSystem:
        """The start ``G`` (realified ``2n`` real system, or the
        native ``n`` complex system on the complex backend)."""
        return self._start

    @property
    def path_count(self) -> int:
        return len(self._start_points)

    def start_solutions(self) -> list:
        """The start points in tracker coordinates: one ``2n`` real
        vector per path (realified), or one complex ``n``-point per
        path (native complex backend)."""
        if self._backend == "complex":
            return [list(point) for point in self._start_points]
        return [embed_complex(point) for point in self._start_points]

    # ------------------------------------------------------------------
    # residual evaluation (series arithmetic, both backends)
    # ------------------------------------------------------------------
    def __call__(self, x, t):
        """``H(x, t)`` on truncated series arguments.

        ``x`` is the list of :attr:`tracking_dimension` unknown series
        (``2n`` real ones realified, ``n`` complex ones natively), ``t``
        the parameter series: a :class:`TruncatedSeries` (what the
        series solvers pass, also for a complex start), or a
        :class:`ComplexTruncatedSeries` with zero imaginary part, at the
        precision of ``x``.  A parameter with a nonzero
        imaginary part raises ``ValueError``: every tracked path runs
        along real ``t``.  One
        path is a batch of one through the fleet's residual core
        (:meth:`residual_fleet`).
        """
        from ..series.complexvec import ComplexTruncatedSeries, ComplexVectorSeries
        from ..series.truncated import TruncatedSeries
        from ..series.vector import VectorSeries

        values = list(x)
        if len(values) != self.tracking_dimension:
            raise ValueError(
                f"expected {self.tracking_dimension} component series, "
                f"got {len(values)}"
            )
        if isinstance(t, ComplexTruncatedSeries):
            if t.coefficients.imag.data.any():
                raise ValueError(
                    "the homotopy parameter t must be real; got a series "
                    "with a nonzero imaginary part"
                )
            t = TruncatedSeries.from_mdarray(t.coefficients.real)
        elif not isinstance(t, TruncatedSeries):
            raise TypeError(
                "the homotopy parameter must be a TruncatedSeries or a "
                "ComplexTruncatedSeries with zero imaginary part"
            )
        vector_cls = ComplexVectorSeries if self._backend == "complex" else VectorSeries
        vector = vector_cls.from_components(values)
        if t.limbs != vector.limbs:
            raise ValueError(
                f"the parameter t has {t.limbs} limbs, the unknowns {vector.limbs}"
            )
        t = t.pad(vector.order).truncate(vector.order)
        planes = map_planes(vector.coefficients, lambda data: data[:, None])
        residual = self._residual(planes, MDArray(t.coefficients.data[:, None]))
        return vector_cls(map_planes(residual, lambda data: data[:, 0])).components()

    def residual_fleet(self, coefficients, t_heads, *, trace=None, device="V100"):
        """Fleet-wide batched residual evaluation for the path fleet
        (:func:`repro.batch.fleet.track_paths`).

        ``coefficients`` holds every path's unknown series as raw limb
        planes of element shape ``(b, tracking_dimension, K+1)`` — an
        :class:`~repro.vec.complexmd.MDComplexArray` on the complex
        backend, an :class:`~repro.vec.mdarray.MDArray` on the
        realified one; ``t_heads`` gives each path's expansion point of
        the homotopy parameter (the local shift the per-path residual
        adapters of :func:`repro.batch.fleet.track_paths` apply), one
        per path (``ValueError`` otherwise).  Returns the residual
        planes, element shape ``(b, tracking_dimension, K+1)``, with
        slice ``p`` bit-identical to ``self(x_p, t_p + s)`` on path
        ``p``'s own series: both run the same residual core, where the
        start and target systems evaluate through **one** shared
        batched power table each.
        """
        batch, _, terms = coefficients.shape
        t_series = _parameter_planes(
            t_heads, batch, terms - 1, get_precision(coefficients.limbs)
        )
        return self._residual(coefficients, t_series, trace=trace, device=device)

    def _residual(self, coefficients, t_series, *, trace=None, device="V100"):
        """The residual core of the backend: unknown planes of element
        shape ``(b, tracking_dimension, K+1)`` and real parameter planes
        ``t_series`` of element shape ``(b, K+1)`` in, residual planes
        out.  ``gamma`` scales (complex) or rotates (realified) the start
        residual, then one batched Cauchy launch sequence convolves it
        with ``1 - t`` and the target residual with ``t``
        (:func:`_combine_with_parameter`, shared by both backends)."""
        if self._backend == "complex":
            return self._complex_residual(
                coefficients, t_series, trace=trace, device=device
            )
        return self._realified_residual(
            coefficients, t_series, trace=trace, device=device
        )

    def _complex_residual(self, coefficients, t_series, *, trace, device):
        if not isinstance(coefficients, MDComplexArray):
            coefficients = MDComplexArray(
                coefficients,
                MDArray.zeros(coefficients.shape, coefficients.limbs),
            )
        n = self._dimension
        dimension = coefficients.shape[1]
        if dimension != n:
            raise ValueError(
                f"expected batched planes over {n} complex variables, "
                f"got {dimension}"
            )
        prec = get_precision(coefficients.limbs)
        gamma = ComplexMultiDouble(
            MultiDouble(self.gamma.real, prec), MultiDouble(self.gamma.imag, prec)
        )
        g = self._start.evaluate_series(coefficients, trace=trace, device=device)
        f = self._target.evaluate_series(coefficients, trace=trace, device=device)
        left = g * gamma
        # the parameter is real, so the real and imaginary planes combine
        # as independent real planes
        h = _combine_with_parameter(
            np.concatenate([left.real.data, left.imag.data], axis=2),
            np.concatenate([f.real.data, f.imag.data], axis=2),
            t_series,
        )
        return MDComplexArray(
            MDArray(h.data[:, :, :n]), MDArray(h.data[:, :, n:])
        )

    def _realified_residual(self, coefficients, t_series, *, trace, device):
        n = self._dimension
        batch, dimension, terms = coefficients.shape
        if dimension != 2 * n:
            raise ValueError(
                f"expected batched planes over {2 * n} realified variables, "
                f"got {dimension}"
            )
        prec = get_precision(coefficients.limbs)
        g = self._start.evaluate_series(coefficients, trace=trace, device=device)
        f = self._target.evaluate_series(coefficients, trace=trace, device=device)
        # gamma = a + ib acts as a rotation mixing the real and imaginary
        # parts (g is [g_re, g_im] along the equation axis): the products
        # [g_re a, g_re b, g_im b, g_im a] in one launch, then
        # [left_re, left_im] = [g_re a - g_im b, g_re b + g_im a] in one
        # sum after an exact negation
        shape = (prec.limbs, batch, 4 * n, terms)
        doubled = np.repeat(g.data.reshape(prec.limbs, batch, 2, n, terms), 2, axis=2)
        rotation = np.repeat(self._gamma_limbs(prec)[:, [0, 1, 1, 0]], n, axis=1)
        products = MDArray(doubled.reshape(shape)) * MDArray(
            np.broadcast_to(rotation[:, None, :, None], shape)
        )
        _negate_block(products, 2 * n, 3 * n)
        left = MDArray(products.data[:, :, : 2 * n]) + MDArray(
            products.data[:, :, 2 * n :]
        )
        return _combine_with_parameter(left.data, f.data, t_series)

    def _gamma_limbs(self, prec):
        """The limbs of ``gamma``'s real and imaginary parts at ``prec``,
        one column each: shape ``(limbs, 2)``."""
        return np.array(
            [
                MultiDouble(self.gamma.real, prec).limbs,
                MultiDouble(self.gamma.imag, prec).limbs,
            ],
            dtype=np.float64,
        ).T

    # ------------------------------------------------------------------
    # Jacobian (one shared power-product pass per system)
    # ------------------------------------------------------------------
    def jacobian(self, x0, t0=0.0):
        """The Jacobian ``dH/dx`` at ``(x0, t0)``: the real ``2n x 2n``
        matrix on the realified backend, the native complex ``n x n``
        matrix (an :class:`~repro.vec.complexmd.MDComplexArray`) on the
        complex backend.  ``t0`` defaults to ``0.0``, the expansion
        point of :func:`~repro.series.newton.newton_series`.  The start
        and target Jacobians come from
        :meth:`~repro.poly.system.PolynomialSystem.jacobian_matrix`, and
        a batch of one runs through the combination core of
        :meth:`jacobian_fleet`."""
        point = self._target._coerce_point(x0)
        if self._backend == "complex" and not isinstance(point, MDComplexArray):
            point = MDComplexArray(point, MDArray.zeros(point.shape, point.limbs))
        jg, jf = (
            map_planes(system.jacobian_matrix(point), lambda data: data[:, None])
            for system in (self._start, self._target)
        )
        t_planes = _parameter_planes([t0], 1, 0, point.precision)
        return map_planes(self._jacobian(jg, jf, t_planes), lambda data: data[:, 0])

    def jacobian_fleet(self, heads, t_heads):
        """Fleet-wide Jacobians ``dH/dx`` at the heads of a sub-batch of
        paths (:func:`repro.batch.fleet.track_paths`).

        ``heads`` holds every path's point as limb planes of element
        shape ``(b, tracking_dimension)``, ``t_heads`` one parameter
        value per path (``ValueError`` otherwise, before any
        evaluation).  The start and target systems each run one
        order-0 pass over the whole batch
        (:meth:`~repro.poly.system.PolynomialSystem.jacobian_series`),
        and one core per backend combines them with ``gamma``,
        ``1 - t`` and ``t`` as plane operations.  Returns Jacobians of
        element shape ``(b, tracking_dimension, tracking_dimension)``,
        slice ``p`` bit-identical to ``self.jacobian(x_p, t_p)``.
        """
        batch = heads.shape[0]
        t_planes = _parameter_planes(t_heads, batch, 0, get_precision(heads.limbs))
        if self._backend == "complex" and not isinstance(heads, MDComplexArray):
            heads = MDComplexArray(heads, MDArray.zeros(heads.shape, heads.limbs))
        planes = map_planes(heads, lambda data: data[..., None])
        jg, jf = (
            map_planes(system.jacobian_series(planes), lambda data: data[..., 0])
            for system in (self._start, self._target)
        )
        return self._jacobian(jg, jf, t_planes)

    def _jacobian(self, jg, jf, t_planes):
        """The Jacobian core of the backend: start and target Jacobians
        of element shape ``(b, N, N)`` and the parameter values, element
        shape ``(b, 1)``, in, ``dH/dx`` out.  ``gamma (1 - t)`` scales
        (complex) or rotates (realified) the start Jacobian and ``t``
        scales the target Jacobian, each factor broadcast over its
        path's matrix; every product with a Jacobian keeps the operand
        order of the scalar formula (a dd product is not bitwise
        commutative; ``(1 - t) gamma`` equals ``gamma (1 - t)`` in every
        bit, ``gamma`` being a double)."""
        batch = t_planes.shape[0]
        limbs = t_planes.limbs
        t = t_planes.reshape(batch, 1, 1)
        s = _one_minus(t_planes).reshape(batch, 1, 1)
        # [gamma_re (1 - t), gamma_im (1 - t)] in one launch
        scaled = MDArray(np.repeat(s.data, 2, axis=2)) * MDArray(
            np.broadcast_to(
                self._gamma_limbs(get_precision(limbs))[:, None, :, None],
                (limbs, batch, 2, 1),
            )
        )
        a_s = MDArray(scaled.data[:, :, :1])
        b_s = MDArray(scaled.data[:, :, 1:])
        if self._backend == "complex":
            return jg * MDComplexArray(a_s, b_s) + jf * t
        # the six products [g_re a_s, g_re b_s, g_im b_s, g_im a_s,
        # jf_top t, jf_bottom t] in one launch, then
        # top = g_re a_s - g_im b_s + jf_top t (an exact negation) and
        # bottom = g_re b_s + g_im a_s + jf_bottom t in two sums
        n = self._dimension
        width = jg.shape[2]
        g_re, g_im = jg.data[:, :, :n], jg.data[:, :, n:]
        operands = np.concatenate([g_re, g_re, g_im, g_im, jf.data], axis=2)
        factors = np.concatenate(
            [
                np.broadcast_to(factor.data, (limbs, batch, n, width))
                for factor in (a_s, b_s, b_s, a_s, t, t)
            ],
            axis=2,
        )
        products = MDArray(operands) * MDArray(factors)
        _negate_block(products, 2 * n, 3 * n)
        combined = MDArray(products.data[:, :, : 2 * n]) + MDArray(
            products.data[:, :, 2 * n : 4 * n]
        )
        return combined + MDArray(products.data[:, :, 4 * n :])

    # ------------------------------------------------------------------
    # tracking drivers
    # ------------------------------------------------------------------
    def track(self, start=None, **kwargs):
        """Track one path with
        :func:`repro.series.tracker.track_path` — a fleet of one, so
        the same step loop as :meth:`track_fleet`; ``start`` defaults
        to the first seeded start solution (realified, or a complex
        ``n``-point which is embedded automatically).  All keyword
        arguments pass through to the tracker."""
        from ..obs.events import get_recorder
        from ..series.tracker import track_path

        get_recorder().event(
            "homotopy_track",
            backend=self._backend,
            dimension=self._dimension,
            tracking_dimension=self.tracking_dimension,
        )
        return track_path(self, self.jacobian, self._resolve_start(start), **kwargs)

    def track_fleet(self, starts=None, **kwargs):
        """Track a whole fleet with the batched
        :func:`repro.batch.fleet.track_paths`; ``starts`` defaults to
        every seeded start solution.  All keyword arguments pass through
        to the tracker."""
        from ..batch.fleet import track_paths
        from ..obs.events import get_recorder

        if starts is None:
            starts = self.start_solutions()
        else:
            starts = [self._resolve_start(point) for point in starts]
        get_recorder().event(
            "homotopy_track_fleet",
            backend=self._backend,
            dimension=self._dimension,
            tracking_dimension=self.tracking_dimension,
            paths=len(starts),
        )
        return track_paths(self, self.jacobian, starts, **kwargs)

    def _resolve_start(self, start):
        if start is None:
            if not self._start_points:
                raise ValueError("this homotopy carries no seeded start solutions")
            start = list(self._start_points[0])
        else:
            start = list(start)
        if self._backend == "complex":
            if len(start) == self._dimension:
                # keep multiple double components at full precision —
                # only plain numbers round through complex()
                return [
                    value
                    if isinstance(value, ComplexMultiDouble)
                    else ComplexMultiDouble(value)
                    if isinstance(value, MultiDouble)
                    else complex(value)
                    for value in start
                ]
            if len(start) == self.real_dimension:
                # accept a realified 2n vector (cross-check convenience);
                # extract_complex preserves every limb
                return extract_complex(start)
            raise ValueError(
                f"expected a complex {self._dimension}-point or a realified "
                f"{self.real_dimension}-point"
            )
        if len(start) == self._dimension:
            return embed_complex(start)
        if len(start) == self.real_dimension:
            # multiple double components pass through at full precision
            return [
                value if isinstance(value, MultiDouble) else float(value)
                for value in start
            ]
        raise ValueError(
            f"expected a complex {self._dimension}-point or a realified "
            f"{self.real_dimension}-point"
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def target_residual(self, point) -> float:
        """Double estimate of ``max_i |F_i(x)|`` at a realified (or
        complex) point — how well an endpoint solves the target.

        Multiple double components evaluate at their own precision (a
        qd-tracked endpoint's residual is measured at qd, not at the
        double-rounded point), and only the final magnitude rounds to
        a ``float``.
        """
        values = self._target.evaluate(self._resolve_start(point))
        if isinstance(values, MDComplexArray):
            return float(np.max(np.abs(values.to_complex())))
        return float(np.max(np.abs(values.to_double())))

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"Homotopy(dimension={self._dimension}, "
            f"paths={self.path_count}, gamma={self.gamma:.6f}, "
            f"backend={self._backend!r})"
        )


def _combine_with_parameter(left, f, t_series) -> MDArray:
    """``(1 - t) left + t f`` on real limb planes: ``left`` and ``f``
    of element shape ``(b, m, K+1)`` (raw data), ``t_series`` of element
    shape ``(b, K+1)``.  ``[left, f]`` convolve against ``[1 - t, t]``
    in one batched Cauchy launch sequence, then one sum — the tail of
    both residual cores (each complex plane is a real one, the
    parameter being real)."""
    limbs, batch, rows, terms = left.shape
    s_series = _one_minus(t_series)
    factors = np.concatenate(
        [
            np.broadcast_to(series.data[:, :, None, :], (limbs, batch, rows, terms))
            for series in (s_series, t_series)
        ],
        axis=2,
    )
    product = linalg.cauchy_product(
        MDArray(np.concatenate([left, f], axis=2)), MDArray(factors)
    )
    return MDArray(product.data[:, :, :rows]) + MDArray(product.data[:, :, rows:])


def _negate_block(products: MDArray, lo: int, hi: int) -> None:
    """Negate rows ``lo:hi`` of freshly computed product planes in place
    — exact, so adding them afterwards is the subtraction ``x - y``
    every backend runs as ``x + (-y)``."""
    block = products.data[:, :, lo:hi]
    np.negative(block, out=block)


def _one_minus(t_series: MDArray) -> MDArray:
    """``1 - t`` on parameter planes of element shape ``(b, K+1)``: the
    same vectorized subtraction ``1 - t`` performs on one series (and,
    at order 0, ``MultiDouble(1) - t`` on one value)."""
    one = np.zeros_like(t_series.data)
    one[0, :, 0] = 1.0
    return MDArray(one) - t_series


def _coerce_terms(system, variables):
    """Term lists + dimension from a PolynomialSystem or raw terms."""
    if isinstance(system, PolynomialSystem):
        return system.terms, system.variables
    equations = [list(eq) for eq in system]
    if variables is None:
        for eq in equations:
            for _, exponents in eq:
                if not isinstance(exponents, dict):
                    variables = len(tuple(exponents))
                    break
            if variables is not None:
                break
        if variables is None:
            raise ValueError("pass variables= explicitly for dict-exponent terms")
    return equations, int(variables)
