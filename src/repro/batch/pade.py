"""Batched Padé construction: one Hankel-solve launch for a whole fleet.

The path tracker builds one ``[L/M]`` Padé approximant per solution
component per step; a fleet of ``b`` paths with ``n`` components needs
``b·n`` of them, all with the same degrees.  :func:`batched_pade`
gathers **all** Hankel systems and right-hand sides from the stacked
limb-major coefficient array in one indexing operation, solves them
with one :func:`~repro.batch.least_squares.batched_least_squares` call,
and finishes numerators and defects with one batched triangular
convolution each.  It is the one Padé construction of the library:
:func:`repro.series.pade.pade` runs it on a batch of one.  Batch slices
never mix, so every approximant is bit-identical to the unbatched
construction of the test oracle ``tests/oracles/series.py`` on its
series alone.  The result is a :class:`~repro.series.pade.PadeBatch`
over the construction's coefficient planes, on which the path fleet
evaluates, estimates and caps its steps for the whole sub-batch.
"""

from __future__ import annotations

import numpy as np

from ..core.least_squares import resolve_tile_sizes
from ..md.constants import get_precision
from ..obs.profile import profiled
from ..series.complexvec import ComplexTruncatedSeries
from ..series.pade import PadeBatch
from ..series.truncated import TruncatedSeries
from ..vec import linalg
from ..vec.complexmd import MDComplexArray, map_planes
from ..vec.mdarray import MDArray
from .least_squares import batched_least_squares

__all__ = ["batched_pade"]


def _gather(array, indices):
    """Gather the coefficients at ``indices`` from a limb-major ``(m, B,
    K+1)`` stack, per plane on complex stacks; out-of-range indices
    yield exact zeros."""
    indices = np.asarray(indices)
    valid = (indices >= 0) & (indices < array.shape[-1])
    safe = np.where(valid, indices, 0)
    return map_planes(array, lambda data: np.where(valid, data[:, :, safe], 0.0))


@profiled("batched_pade")
def batched_pade(
    series_batch,
    numerator_degree=None,
    denominator_degree=None,
    *,
    precision=None,
    tile_size=None,
    device="V100",
    trace=None,
) -> PadeBatch:
    """Construct ``[L/M]`` Padé approximants for a batch of series.

    Parameters
    ----------
    series_batch:
        A list of :class:`~repro.series.truncated.TruncatedSeries` of
        one common order and precision, or an ``MDArray`` of element
        shape ``(B, K+1)`` whose rows are the coefficient arrays.
    numerator_degree, denominator_degree:
        ``L`` and ``M``, shared by the batch; defaults as in
        :func:`repro.series.pade.pade` (the diagonal approximant).
    precision:
        Working precision when ``series_batch`` is a plain array.
    tile_size, device:
        Passed to the batched Hankel least squares solve.
    trace:
        Optional :class:`~repro.gpu.kernel.KernelTrace` the batched
        Hankel solve's launches (QR phase, then back substitution) are
        appended to — mirrored by
        :func:`repro.perf.costmodel.pade_trace` batched over ``B``.

    Returns
    -------
    :class:`~repro.series.pade.PadeBatch` over the coefficient planes,
    one row per series; it indexes and iterates as
    :class:`~repro.series.pade.PadeApproximant` values, each
    bit-identical to the unbatched construction of its series alone
    (their ``trace`` fields are ``None``; the batched solve owns one
    shared trace).
    """
    if isinstance(series_batch, (MDArray, MDComplexArray)):
        if series_batch.ndim != 2:
            raise ValueError("expected an (B, K+1) coefficient array")
        coefficients = series_batch.copy()
        if precision is not None:
            coefficients = coefficients.astype(precision)
    else:
        members = list(series_batch)
        if not members:
            raise ValueError("batched_pade needs at least one series")
        converted = []
        for member in members:
            if not isinstance(member, (TruncatedSeries, ComplexTruncatedSeries)):
                member = TruncatedSeries(list(member), precision)
            elif precision is not None and get_precision(precision).limbs != member.limbs:
                member = member.astype(precision)
            converted.append(member)
        order = converted[0].order
        limbs = converted[0].limbs
        if any(s.order != order or s.limbs != limbs for s in converted):
            raise ValueError("all series of a batch must share order and precision")
        if any(isinstance(s, ComplexTruncatedSeries) for s in converted):
            if not all(isinstance(s, ComplexTruncatedSeries) for s in converted):
                raise ValueError("cannot mix real and complex series in one batch")
            coefficients = MDComplexArray(
                MDArray(
                    np.stack([s.coefficients.real.data for s in converted], axis=1)
                ),
                MDArray(
                    np.stack([s.coefficients.imag.data for s in converted], axis=1)
                ),
            )
        else:
            coefficients = MDArray(
                np.stack([s.coefficients.data for s in converted], axis=1)
            )
    complex_data = isinstance(coefficients, MDComplexArray)
    prec = get_precision(coefficients.limbs)
    limbs = prec.limbs
    B = coefficients.shape[0]
    order = coefficients.shape[1] - 1

    if numerator_degree is None and denominator_degree is None:
        numerator_degree = denominator_degree = order // 2
    elif numerator_degree is None:
        numerator_degree = order - denominator_degree
    elif denominator_degree is None:
        denominator_degree = order - numerator_degree
    L, M = int(numerator_degree), int(denominator_degree)
    if L < 0 or M < 0:
        raise ValueError("Padé degrees must be nonnegative")
    if L + M > order:
        raise ValueError(
            f"[{L}/{M}] needs series coefficients through order {L + M}, "
            f"got series of order {order}"
        )

    # denominators: all B Hankel systems solved in one batched launch
    if M == 0:
        ones = np.zeros((limbs, B, 1))
        ones[0] = 1.0
        denominator_array = MDArray(ones)
        if complex_data:
            denominator_array = MDComplexArray(denominator_array)
    else:
        i = np.arange(1, M + 1)
        systems = _gather(coefficients, L + i[:, None] - i[None, :])
        rhs = -_gather(coefficients, L + i)
        tile_size, _ = resolve_tile_sizes(M, tile_size, None)
        solution = batched_least_squares(
            systems, rhs, tile_size=tile_size, device=device
        )
        if trace is not None:
            trace.extend(solution.qr_trace)
            trace.extend(solution.bs_trace)
        one = np.zeros((limbs, B, 1))
        one[0] = 1.0
        if complex_data:
            denominator_array = MDComplexArray(
                MDArray(np.concatenate([one, solution.x.real.data], axis=2)),
                MDArray(
                    np.concatenate(
                        [np.zeros((limbs, B, 1)), solution.x.imag.data], axis=2
                    )
                ),
            )
        else:
            denominator_array = MDArray(
                np.concatenate([one, solution.x.data], axis=2)
            )

    # numerators: p = (c * q) truncated at order L, one batched convolution
    def _pad_q(plane):
        return np.concatenate(
            [plane[:, :, : L + 1], np.zeros((limbs, B, max(0, L - M)))], axis=2
        )

    if complex_data:
        q_padded = MDComplexArray(
            MDArray(_pad_q(denominator_array.real.data)),
            MDArray(_pad_q(denominator_array.imag.data)),
        )
    else:
        q_padded = MDArray(_pad_q(denominator_array.data))
    numerator_array = linalg.cauchy_product(
        _gather(coefficients, np.arange(L + 1)), q_padded
    )

    # defects: coefficient of t**(L+M+1) in q f - p, batched over B
    defects = None
    if order >= L + M + 1:
        defects = linalg.convolution_coefficient(
            coefficients, denominator_array, L + M + 1
        )

    return PadeBatch(numerator_array, denominator_array, defects, prec)
