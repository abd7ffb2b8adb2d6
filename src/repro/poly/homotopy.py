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
vectorized real kernels, bit-identical to the scalar reference.

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
truncated series arithmetic, ``homotopy.jacobian(x0, t0)`` assembles
the real ``2n x 2n`` Jacobian from the realified start and target
Jacobians (one shared power-product pass each), and
:meth:`Homotopy.track` / :meth:`Homotopy.track_fleet` seed the start
solutions (products of roots of unity for the total-degree start
system ``x_i^{d_i} - 1``) and hand the whole fleet to
:func:`repro.batch.fleet.track_paths`.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from ..md.constants import get_precision
from ..md.number import ComplexMultiDouble, MultiDouble
from ..vec import linalg
from ..vec.complexmd import MDComplexArray
from ..vec.mdarray import MDArray
from .system import PolynomialSystem, _normalize_exponents

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

        ``x`` is the list of ``2n`` unknown series, ``t`` the parameter
        series.  Vectorized
        (:class:`~repro.series.truncated.TruncatedSeries`) and scalar
        reference (:class:`~repro.series.reference.ScalarSeries`)
        arguments produce bit-identical coefficients: the start and
        target systems are evaluated with the shared-monomial kernels
        of their backend, and the gamma combination replays the same
        operand order on both sides.
        """
        values = list(x)
        if len(values) != self.tracking_dimension:
            raise ValueError(
                f"expected {self.tracking_dimension} component series, "
                f"got {len(values)}"
            )
        if self._backend == "complex":
            return self._complex_call(values, t)
        from ..series.reference import ScalarSeries

        if isinstance(values[0], ScalarSeries):
            return self._reference_call(values, t)
        return self._vectorized_call(values, t)

    def _complex_call(self, values, t):
        """Native complex residual: ``n`` complex component series in,
        ``n`` complex residual series out — the start and target are
        evaluated with the separated-plane shared-monomial kernels and
        the gamma combination is one complex scale plus the ``1 - t`` /
        ``t`` convolutions (4x-real-multiply arithmetic instead of the
        realified detour's doubled dimension).

        The homotopy parameter is real on every tracked path, so the
        hot path convolves all four result planes against the broadcast
        real ``1 - t`` / ``t`` series in **one** batched real Cauchy
        launch; a genuinely complex ``t`` falls back to the two complex
        convolutions.
        """
        from ..series.complexvec import ComplexTruncatedSeries, ComplexVectorSeries
        from ..series.truncated import TruncatedSeries

        vector = ComplexVectorSeries.from_components(values)
        order = vector.order
        prec = vector.precision
        t_imag = None
        if isinstance(t, ComplexTruncatedSeries):
            if t.coefficients.imag.data.any():
                t_imag = t
            else:
                t = TruncatedSeries.from_mdarray(t.coefficients.real)
        elif not isinstance(t, TruncatedSeries):
            raise TypeError(
                "the complex backend evaluates vectorized series only; "
                "use the realified backend for the scalar reference"
            )
        gamma = ComplexMultiDouble(
            MultiDouble(self.gamma.real, prec), MultiDouble(self.gamma.imag, prec)
        )
        g = self._start.evaluate_series(vector)
        f = self._target.evaluate_series(vector)
        if not isinstance(g, ComplexVectorSeries):  # real-coefficient start
            g = ComplexVectorSeries.from_components(g.components())
        if not isinstance(f, ComplexVectorSeries):
            f = ComplexVectorSeries.from_components(f.components())
        left = g.scale(gamma)
        n = self._dimension

        if t_imag is not None:  # general complex parameter (rare)
            t_c = t_imag.pad(order).truncate(order)
            s_c = ComplexTruncatedSeries.one(order, prec) - t_c
            shape = left.coefficients.real.data.shape

            def _broadcast(series) -> MDComplexArray:
                return MDComplexArray(
                    MDArray(
                        np.broadcast_to(
                            series.coefficients.real.data[:, None, :], shape
                        )
                    ),
                    MDArray(
                        np.broadcast_to(
                            series.coefficients.imag.data[:, None, :], shape
                        )
                    ),
                )

            h = linalg.cauchy_product(left.coefficients, _broadcast(s_c)) + (
                linalg.cauchy_product(f.coefficients, _broadcast(t_c))
            )
            return ComplexVectorSeries(h).components()

        t = t.pad(order).truncate(order)
        s = 1 - t
        # stack [left_re, left_im, f_re, f_im] against [s, s, t, t]:
        # one real batched Cauchy launch covers all four planes
        planes = np.concatenate(
            [
                left.coefficients.real.data,
                left.coefficients.imag.data,
                f.coefficients.real.data,
                f.coefficients.imag.data,
            ],
            axis=1,
        )
        s_data = np.broadcast_to(
            s.coefficients.data[:, None, :], (prec.limbs, 2 * n, order + 1)
        )
        t_data = np.broadcast_to(
            t.coefficients.data[:, None, :], (prec.limbs, 2 * n, order + 1)
        )
        factors = np.concatenate([s_data, t_data], axis=1)
        product = linalg.cauchy_product(MDArray(planes), MDArray(factors))
        h = MDArray(product.data[:, : 2 * n]) + MDArray(product.data[:, 2 * n :])
        return ComplexVectorSeries(
            MDComplexArray(MDArray(h.data[:, :n]), MDArray(h.data[:, n:]))
        ).components()

    def _vectorized_call(self, values, t):
        from ..series.vector import VectorSeries

        vector = VectorSeries.from_components(values)
        n = self._dimension
        order = vector.order
        t = t.pad(order).truncate(order)
        prec = vector.precision
        a = MultiDouble(self.gamma.real, prec)
        b = MultiDouble(self.gamma.imag, prec)
        g = self._start.evaluate_series(vector)
        f = self._target.evaluate_series(vector)
        g_re = MDArray(g.coefficients.data[:, :n])
        g_im = MDArray(g.coefficients.data[:, n:])
        f_re = MDArray(f.coefficients.data[:, :n])
        f_im = MDArray(f.coefficients.data[:, n:])
        # gamma acts as a rotation mixing real and imaginary parts
        left_re = g_re * a - g_im * b
        left_im = g_re * b + g_im * a
        s = 1 - t
        s_data = MDArray(
            np.broadcast_to(s.coefficients.data[:, None, :], g_re.data.shape)
        )
        t_data = MDArray(
            np.broadcast_to(t.coefficients.data[:, None, :], g_re.data.shape)
        )
        h_re = linalg.cauchy_product(left_re, s_data) + linalg.cauchy_product(
            f_re, t_data
        )
        h_im = linalg.cauchy_product(left_im, s_data) + linalg.cauchy_product(
            f_im, t_data
        )
        out = np.concatenate([h_re.data, h_im.data], axis=1)
        return VectorSeries(MDArray(out)).components()

    def residual_fleet(self, coefficients, t_heads, *, trace=None, device="V100"):
        """Fleet-wide batched residual evaluation for the continuous
        scheduler (:mod:`repro.batch.scheduler`).

        ``coefficients`` holds every path's unknown series as raw limb
        planes of element shape ``(b, tracking_dimension, K+1)`` — an
        :class:`~repro.vec.complexmd.MDComplexArray` on the complex
        backend, an :class:`~repro.vec.mdarray.MDArray` on the
        realified one; ``t_heads`` gives each path's expansion point of
        the homotopy parameter (the local shift the per-path residual
        adapters of :func:`repro.batch.fleet.track_paths` apply).
        Returns the residual planes, element shape ``(b,
        tracking_dimension, K+1)``, with slice ``p`` bit-identical to
        ``self(x_p, t_p + s)`` on path ``p``'s own series — the start
        and target systems evaluate through **one** shared batched
        power table each, and the gamma / ``1 - t`` combination replays
        the single-path operand order on batched planes.
        """
        if self._backend == "complex":
            return self._residual_fleet_complex(
                coefficients, t_heads, trace=trace, device=device
            )
        return self._residual_fleet_realified(
            coefficients, t_heads, trace=trace, device=device
        )

    def _residual_fleet_complex(
        self, coefficients, t_heads, *, trace=None, device="V100"
    ):
        if not isinstance(coefficients, MDComplexArray):
            coefficients = MDComplexArray(
                coefficients,
                MDArray.zeros(coefficients.shape, coefficients.limbs),
            )
        n = self._dimension
        batch, dimension, terms = coefficients.shape
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
        s_series, t_series = _parameter_factor_planes(
            t_heads, batch, terms - 1, prec
        )
        # stack [left_re, left_im, f_re, f_im] against [s, s, t, t]:
        # one real batched Cauchy launch covers all four planes, exactly
        # as in the single-path real-parameter hot path of _complex_call
        planes = np.concatenate(
            [left.real.data, left.imag.data, f.real.data, f.imag.data], axis=2
        )
        s_data = np.broadcast_to(
            s_series.data[:, :, None, :], (prec.limbs, batch, 2 * n, terms)
        )
        t_data = np.broadcast_to(
            t_series.data[:, :, None, :], (prec.limbs, batch, 2 * n, terms)
        )
        factors = np.concatenate([s_data, t_data], axis=2)
        product = linalg.cauchy_product(MDArray(planes), MDArray(factors))
        h = MDArray(product.data[:, :, : 2 * n]) + MDArray(
            product.data[:, :, 2 * n :]
        )
        return MDComplexArray(
            MDArray(h.data[:, :, :n]), MDArray(h.data[:, :, n:])
        )

    def _residual_fleet_realified(
        self, coefficients, t_heads, *, trace=None, device="V100"
    ):
        n = self._dimension
        batch, dimension, terms = coefficients.shape
        if dimension != 2 * n:
            raise ValueError(
                f"expected batched planes over {2 * n} realified variables, "
                f"got {dimension}"
            )
        prec = get_precision(coefficients.limbs)
        a = MultiDouble(self.gamma.real, prec)
        b = MultiDouble(self.gamma.imag, prec)
        g = self._start.evaluate_series(coefficients, trace=trace, device=device)
        f = self._target.evaluate_series(coefficients, trace=trace, device=device)
        g_re = MDArray(g.data[:, :, :n])
        g_im = MDArray(g.data[:, :, n:])
        f_re = MDArray(f.data[:, :, :n])
        f_im = MDArray(f.data[:, :, n:])
        # gamma acts as a rotation mixing real and imaginary parts
        left_re = g_re * a - g_im * b
        left_im = g_re * b + g_im * a
        s_series, t_series = _parameter_factor_planes(
            t_heads, batch, terms - 1, prec
        )
        s_data = MDArray(
            np.broadcast_to(s_series.data[:, :, None, :], g_re.data.shape)
        )
        t_data = MDArray(
            np.broadcast_to(t_series.data[:, :, None, :], g_re.data.shape)
        )
        h_re = linalg.cauchy_product(left_re, s_data) + linalg.cauchy_product(
            f_re, t_data
        )
        h_im = linalg.cauchy_product(left_im, s_data) + linalg.cauchy_product(
            f_im, t_data
        )
        return MDArray(np.concatenate([h_re.data, h_im.data], axis=2))

    def _reference_call(self, values, t):
        from .reference import reference_evaluate_series

        n = self._dimension
        order = max(series.order for series in values)
        t = t.pad(order).truncate(order)
        prec = values[0].precision
        a = MultiDouble(self.gamma.real, prec)
        b = MultiDouble(self.gamma.imag, prec)
        g = reference_evaluate_series(self._start, values)
        f = reference_evaluate_series(self._target, values)
        s = 1 - t
        out_re, out_im = [], []
        for i in range(n):
            left_re = g[i].scale(a) - g[n + i].scale(b)
            left_im = g[i].scale(b) + g[n + i].scale(a)
            out_re.append(left_re * s + f[i] * t)
            out_im.append(left_im * s + f[n + i] * t)
        return out_re + out_im

    # ------------------------------------------------------------------
    # Jacobian (one shared power-product pass per system)
    # ------------------------------------------------------------------
    def jacobian(self, x0, t0):
        """The Jacobian ``dH/dx`` at ``(x0, t0)``: the real ``2n x 2n``
        matrix on the realified backend, the native complex ``n x n``
        matrix (an :class:`~repro.vec.complexmd.MDComplexArray`) on the
        complex backend."""
        if self._backend == "complex":
            return self._complex_jacobian(x0, t0)
        n = self._dimension
        point = self._target._coerce_point(x0)
        prec = point.precision
        jg = self._start.jacobian_matrix(point)
        jf = self._target.jacobian_matrix(point)
        t_md = MultiDouble(t0, prec)
        s_md = MultiDouble(1, prec) - t_md
        a_s = MultiDouble(self.gamma.real, prec) * s_md
        b_s = MultiDouble(self.gamma.imag, prec) * s_md
        top = jg[:n] * a_s - jg[n:] * b_s + jf[:n] * t_md
        bottom = jg[:n] * b_s + jg[n:] * a_s + jf[n:] * t_md
        return MDArray(np.concatenate([top.data, bottom.data], axis=1))

    def _complex_jacobian(self, x0, t0) -> MDComplexArray:
        point = self._target._coerce_point(list(x0))
        if not isinstance(point, MDComplexArray):
            point = MDComplexArray(point, MDArray.zeros(point.shape, point.limbs))
        prec = point.precision
        jg = self._start.jacobian_matrix(point)
        jf = self._target.jacobian_matrix(point)
        t_md = MultiDouble(t0, prec)
        s_md = MultiDouble(1, prec) - t_md
        gamma_s = ComplexMultiDouble(
            MultiDouble(self.gamma.real, prec) * s_md,
            MultiDouble(self.gamma.imag, prec) * s_md,
        )
        return jg * gamma_s + jf * t_md

    # ------------------------------------------------------------------
    # tracking drivers
    # ------------------------------------------------------------------
    def track(self, start=None, **kwargs):
        """Track one path with
        :func:`repro.series.tracker.track_path` — a fleet of one, so
        the same step loop as :meth:`track_fleet`; ``start`` defaults
        to the first seeded start solution (realified, or a complex
        ``n``-point which is embedded automatically).  All keyword
        arguments — including ``monitor=`` for a live
        :class:`~repro.obs.live.LiveMonitor` — pass through to the
        tracker."""
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
        """Track a whole fleet with the lock-step batched
        :func:`repro.batch.fleet.track_paths`; ``starts`` defaults to
        every seeded start solution.  All keyword arguments — including
        ``monitor=`` for a live :class:`~repro.obs.live.LiveMonitor`
        watching the in-flight fleet — pass through to the tracker."""
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


def _parameter_factor_planes(t_heads, batch: int, order: int, prec):
    """Per-path ``t`` and ``1 - t`` parameter series as batched limb
    planes of element shape ``(b, K+1)``.

    Path ``p`` contributes the linear series ``[t_p, 1, 0, ...]`` —
    the coefficients of ``TruncatedSeries.variable(order, prec,
    head=t_p)`` the per-path residual adapters build — and ``1 - t``
    is computed with the same vectorized subtraction the scalar series
    arithmetic performs limb for limb.
    """
    t_data = np.zeros((prec.limbs, batch, order + 1))
    for p, head in enumerate(t_heads):
        t_data[:, p, 0] = MultiDouble(float(head), prec).limbs
    if order >= 1:
        t_data[0, :, 1] = 1.0
    one_data = np.zeros_like(t_data)
    one_data[0, :, 0] = 1.0
    t_series = MDArray(t_data)
    s_series = MDArray(one_data) - t_series
    return s_series, t_series


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
