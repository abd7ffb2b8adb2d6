"""Analytic kernel traces at paper-scale dimensions.

The numeric drivers of :mod:`repro.core` execute the multiple double
arithmetic for real, which in Python is only feasible up to a few
hundred rows.  The paper's experiments run at dimensions up to 20,480;
for those, the functions below generate *exactly the same kernel
launches* — same stages, same launch geometry, same operation tallies
(taken from :mod:`repro.core.stages`), same byte counts — without
touching any matrix data.  The test-suite verifies that, for dimensions
where both paths are feasible, the analytic trace and the numeric trace
agree launch by launch.
"""

from __future__ import annotations

from ..core import stages
from ..core.back_substitution import (
    BS_MULTIPLY_EFFICIENCY,
    BS_UPDATE_EFFICIENCY,
    TILE_INVERSION_EFFICIENCY,
)
from ..core.least_squares import STAGE_APPLY_QT, _default_tile_size, resolve_tile_sizes
from ..gpu.kernel import KernelTrace
from ..gpu.memory import md_bytes

__all__ = [
    "qr_trace",
    "back_substitution_trace",
    "lstsq_trace",
    "problem_bytes",
    "matrix_series_trace",
    "newton_series_trace",
    "pade_trace",
    "path_step_trace",
    "polynomial_evaluation_trace",
    "batched_qr_trace",
    "batched_back_substitution_trace",
    "batched_lstsq_trace",
    "path_fleet_trace",
    "COSTMODEL_TWINS",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def qr_trace(rows, cols, tile_size, limbs, device="V100", complex_data=False, trace=None):
    """Analytic trace of Algorithm 2 (blocked Householder QR).

    Mirrors :func:`repro.core.blocked_qr.blocked_qr` launch for launch.
    """
    if rows < cols:
        raise ValueError("expected rows >= cols")
    n = tile_size
    if n <= 0 or cols % n != 0:
        raise ValueError(f"tile size {tile_size} must divide the column count {cols}")
    tiles = cols // n
    if trace is None:
        trace = KernelTrace(device, label=f"QR model {rows}x{cols}, {tiles}x{n}")

    for k in range(tiles):
        col0 = k * n
        r = rows - col0

        # panel factorization, column by column
        for l in range(n):
            j = col0 + l
            length = rows - j
            panel_cols = col0 + n - j
            trace.add(
                "householder",
                stages.STAGE_BETA_V,
                blocks=max(1, _ceil_div(length, n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_householder_vector(length, complex_data),
                bytes_read=md_bytes(length, limbs, complex_data),
                bytes_written=md_bytes(length + 1, limbs, complex_data),
            )
            trace.add(
                "beta_rtv",
                stages.STAGE_BETA_RTV,
                blocks=max(1, _ceil_div(length, n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_matvec(panel_cols, length, complex_data)
                + stages.tally_matvec(panel_cols, 1, complex_data),
                bytes_read=md_bytes(length * panel_cols + length, limbs, complex_data),
                bytes_written=md_bytes(panel_cols, limbs, complex_data),
            )
            trace.add(
                "update_r",
                stages.STAGE_UPDATE_R,
                blocks=max(1, panel_cols),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_rank1_update(length, panel_cols, complex_data),
                bytes_read=md_bytes(length * panel_cols + length + panel_cols, limbs, complex_data),
                bytes_written=md_bytes(length * panel_cols, limbs, complex_data),
            )

        # W accumulation: one launch per column
        for l in range(n):
            trace.add(
                "compute_w_column",
                stages.STAGE_COMPUTE_W,
                blocks=max(1, _ceil_div(r, n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_compute_w_column(r, l, complex_data),
                bytes_read=md_bytes(r * (2 * l + 1), limbs, complex_data),
                bytes_written=md_bytes(r, limbs, complex_data),
            )

        # YWT = Y W^H
        trace.add(
            "ywt",
            stages.STAGE_YWT,
            blocks=max(1, _ceil_div(r * r, n)),
            threads_per_block=n,
            limbs=limbs,
            tally=stages.tally_matmul(r, n, r, complex_data),
            bytes_read=md_bytes(2 * r * n, limbs, complex_data),
            bytes_written=md_bytes(r * r, limbs, complex_data),
        )

        # Q update
        trace.add(
            "q_wyt",
            stages.STAGE_QWYT,
            blocks=max(1, _ceil_div(rows * r, n)),
            threads_per_block=n,
            limbs=limbs,
            tally=stages.tally_matmul(rows, r, r, complex_data),
            bytes_read=md_bytes(rows * r + r * r, limbs, complex_data),
            bytes_written=md_bytes(rows * r, limbs, complex_data),
        )
        trace.add(
            "q_add",
            stages.STAGE_Q_ADD,
            blocks=max(1, _ceil_div(rows * r, n)),
            threads_per_block=n,
            limbs=limbs,
            tally=stages.tally_matrix_add(rows, r, complex_data),
            bytes_read=md_bytes(2 * rows * r, limbs, complex_data),
            bytes_written=md_bytes(rows * r, limbs, complex_data),
        )

        # trailing-column update
        if k < tiles - 1:
            c = cols - (col0 + n)
            trace.add(
                "ywt_c",
                stages.STAGE_YWTC,
                blocks=max(1, _ceil_div(r * c, n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_matmul(r, r, c, complex_data),
                bytes_read=md_bytes(r * r + r * c, limbs, complex_data),
                bytes_written=md_bytes(r * c, limbs, complex_data),
            )
            trace.add(
                "r_add",
                stages.STAGE_R_ADD,
                blocks=max(1, _ceil_div(r * c, n)),
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_matrix_add(r, c, complex_data),
                bytes_read=md_bytes(2 * r * c, limbs, complex_data),
                bytes_written=md_bytes(r * c, limbs, complex_data),
            )

    return trace


def back_substitution_trace(tiles, tile_size, limbs, device="V100", complex_data=False, trace=None):
    """Analytic trace of Algorithm 1 (tiled back substitution).

    Mirrors :func:`repro.core.back_substitution.tiled_back_substitution`.
    """
    n = tile_size
    if n <= 0 or tiles <= 0:
        raise ValueError("tiles and tile size must be positive")
    if trace is None:
        trace = KernelTrace(device, label=f"BS model dim={tiles * n} {n}x{tiles}")

    trace.add(
        "invert_tiles",
        stages.STAGE_INVERT_TILES,
        blocks=tiles,
        threads_per_block=n,
        limbs=limbs,
        tally=stages.tally_tile_inverse(n, complex_data).scaled(tiles),
        bytes_read=md_bytes(tiles * n * n, limbs, complex_data),
        bytes_written=md_bytes(tiles * n * n, limbs, complex_data),
        efficiency=TILE_INVERSION_EFFICIENCY,
    )
    for i in range(tiles - 1, -1, -1):
        trace.add(
            "multiply_inverse",
            stages.STAGE_MULTIPLY_INVERSE,
            blocks=1,
            threads_per_block=n,
            limbs=limbs,
            tally=stages.tally_matvec(n, n, complex_data),
            bytes_read=md_bytes(n * n + n, limbs, complex_data),
            bytes_written=md_bytes(n, limbs, complex_data),
            efficiency=BS_MULTIPLY_EFFICIENCY,
        )
        if i > 0:
            trace.add(
                "update_rhs",
                stages.STAGE_BACK_SUBSTITUTION,
                blocks=i,
                threads_per_block=n,
                limbs=limbs,
                tally=stages.tally_update_rhs(n, complex_data).scaled(i),
                bytes_read=md_bytes(i * (n * n + 2 * n), limbs, complex_data),
                bytes_written=md_bytes(i * n, limbs, complex_data),
                efficiency=BS_UPDATE_EFFICIENCY,
            )
    return trace


def lstsq_trace(rows, cols, tile_size, limbs, device="V100", complex_data=False):
    """Analytic traces of the least squares solver (QR trace, BS trace).

    Mirrors :func:`repro.core.least_squares.lstsq`: the back substitution
    trace includes the ``Q^H b`` product that links the two phases.
    """
    qr = qr_trace(rows, cols, tile_size, limbs, device, complex_data)
    bs = KernelTrace(device, label=f"least squares BS model dim={cols}")
    bs.add(
        "apply_qt",
        STAGE_APPLY_QT,
        blocks=max(1, _ceil_div(rows, tile_size)),
        threads_per_block=tile_size,
        limbs=limbs,
        tally=stages.tally_matvec(rows, rows, complex_data),
        bytes_read=md_bytes(rows * rows + rows, limbs, complex_data),
        bytes_written=md_bytes(rows, limbs, complex_data),
    )
    back_substitution_trace(
        cols // tile_size, tile_size, limbs, device, complex_data, trace=bs
    )
    return qr, bs


def problem_bytes(rows, cols, limbs, complex_data=False, with_q=True) -> float:
    """Bytes of the problem data moved between host and device.

    Counts the input matrix and right-hand side plus (by default) the
    orthogonal factor and the solution on the way back, which is what
    the paper's wall clock times include as memory transfers.
    """
    total = md_bytes(rows * cols + rows, limbs, complex_data)
    if with_q:
        total += md_bytes(rows * rows + rows * cols, limbs, complex_data)
    return total


# ---------------------------------------------------------------------------
# power series / Padé / path tracking workloads (repro.series)
# ---------------------------------------------------------------------------

#: The tile defaults of the series solvers are the numeric drivers'
#: own rule — sharing it is what keeps the traces launch-identical.
_series_tiles = resolve_tile_sizes


def matrix_series_trace(
    dimension,
    order,
    limbs,
    *,
    matrix_terms=1,
    tile_size=None,
    bs_tile_size=None,
    device="V100",
    complex_data=False,
    trace=None,
):
    """Analytic trace of a linearized block Toeplitz series solve.

    Mirrors :func:`repro.series.matrix_series.solve_matrix_series`
    launch for launch: one blocked QR of the head matrix, then

    * for a **constant head** (``matrix_terms == 1``), whose orders
      decouple, one *batched* ``Q^H B`` matrix-matrix launch over the
      whole ``(n, order+1)`` right-hand-side array followed by one
      tiled back substitution per order;
    * for a **coupled** matrix series, one right-hand-side convolution
      (batched over the coupling terms), one ``Q^H r`` product and one
      tiled back substitution per series order.

    ``matrix_terms`` is the number of matrix series coefficients.
    """
    n = dimension
    tile_size, bs_tile_size = _series_tiles(n, tile_size, bs_tile_size)
    if trace is None:
        trace = KernelTrace(
            device, label=f"matrix series model dim={n} order={order}"
        )
    qr_trace(n, n, tile_size, limbs, device, complex_data, trace=trace)
    if matrix_terms == 1:
        trace.add(
            "apply_qt_batched",
            STAGE_APPLY_QT,
            blocks=max(1, _ceil_div(n * (order + 1), tile_size)),
            threads_per_block=tile_size,
            limbs=limbs,
            tally=stages.tally_matmul(n, n, order + 1, complex_data),
            bytes_read=md_bytes(n * n + n * (order + 1), limbs, complex_data),
            bytes_written=md_bytes(n * (order + 1), limbs, complex_data),
        )
        for _ in range(order + 1):
            back_substitution_trace(
                n // bs_tile_size, bs_tile_size, limbs, device, complex_data, trace=trace
            )
        return trace
    for k in range(order + 1):
        terms = min(k, matrix_terms - 1)
        if terms > 0:
            trace.add(
                "series_convolve",
                stages.STAGE_SERIES_CONVOLVE,
                blocks=max(1, _ceil_div(n, tile_size)),
                threads_per_block=tile_size,
                limbs=limbs,
                tally=stages.tally_series_convolution(n, terms, complex_data),
                bytes_read=md_bytes(terms * (n * n + n) + n, limbs, complex_data),
                bytes_written=md_bytes(n, limbs, complex_data),
            )
        trace.add(
            "apply_qt",
            STAGE_APPLY_QT,
            blocks=max(1, _ceil_div(n, tile_size)),
            threads_per_block=tile_size,
            limbs=limbs,
            tally=stages.tally_matvec(n, n, complex_data),
            bytes_read=md_bytes(n * n + n, limbs, complex_data),
            bytes_written=md_bytes(n, limbs, complex_data),
        )
        back_substitution_trace(
            n // bs_tile_size, bs_tile_size, limbs, device, complex_data, trace=trace
        )
    return trace


def newton_series_trace(
    dimension,
    order,
    limbs,
    *,
    tile_size=None,
    bs_tile_size=None,
    device="V100",
    complex_data=False,
    trace=None,
):
    """Analytic trace of the order-by-order series Newton staircase.

    Mirrors :func:`repro.series.newton.newton_series`: one blocked QR of
    the Jacobian head, then one ``Q^H r`` product and one tiled back
    substitution per series order ``1 .. order``.  The residual
    evaluations run in the vectorized limb-major series arithmetic on
    the host side of the simulation; their multiple double operation
    and launch counts are catalogued separately by
    :func:`repro.md.opcounts.series_counts` /
    :func:`repro.md.opcounts.series_launches`.  With
    ``complex_data=True`` the trace prices the native complex staircase
    (``n`` complex variables, 4x-real multiply tallies) — the launch
    sequence stays identical, only the tallies and bytes grow.
    """
    n = dimension
    tile_size, bs_tile_size = _series_tiles(n, tile_size, bs_tile_size)
    if trace is None:
        trace = KernelTrace(
            device, label=f"newton series model dim={n} order={order}"
        )
    qr_trace(n, n, tile_size, limbs, device, complex_data=complex_data, trace=trace)
    for _ in range(order):
        trace.add(
            "apply_qt",
            STAGE_APPLY_QT,
            blocks=max(1, _ceil_div(n, tile_size)),
            threads_per_block=tile_size,
            limbs=limbs,
            tally=stages.tally_matvec(n, n, complex_data),
            bytes_read=md_bytes(n * n + n, limbs, complex_data),
            bytes_written=md_bytes(n, limbs, complex_data),
        )
        back_substitution_trace(
            n // bs_tile_size, bs_tile_size, limbs, device, complex_data, trace=trace
        )
    return trace


def pade_trace(
    numerator_degree,
    denominator_degree,
    limbs,
    *,
    tile_size=None,
    device="V100",
    complex_data=False,
    trace=None,
):
    """Analytic trace of one ``[L/M]`` Padé construction.

    Mirrors :func:`repro.series.pade.pade`: the ``M``-by-``M`` Hankel
    system is solved with the least squares solver (QR plus back
    substitution); an ``M = 0`` approximant needs no solve at all.
    """
    M = denominator_degree
    if trace is None:
        trace = KernelTrace(
            device,
            label=f"pade model [{numerator_degree}/{M}]",
        )
    if M == 0:
        return trace
    if tile_size is None:
        tile_size = _default_tile_size(M)
    qr, bs = lstsq_trace(M, M, tile_size, limbs, device, complex_data)
    trace.extend(qr)
    trace.extend(bs)
    return trace


# ---------------------------------------------------------------------------
# polynomial system evaluation / differentiation (repro.poly)
# ---------------------------------------------------------------------------

#: Threads per block of the polynomial kernels (one warp per block, one
#: thread per output element — the monomial kernels are elementwise).
POLY_THREADS_PER_BLOCK = 32


def polynomial_evaluation_trace(
    equations,
    variables,
    products,
    max_degree,
    term_slots,
    limbs,
    *,
    order=0,
    jacobian_slots=None,
    evaluate=True,
    device="V100",
    complex_data=False,
    batch=1,
    trace=None,
):
    """Analytic trace of one shared-monomial polynomial evaluation.

    Mirrors :meth:`repro.poly.system.PolynomialSystem.evaluate` /
    :meth:`~repro.poly.system.PolynomialSystem.jacobian_matrix` launch
    for launch (the numeric drivers record their launches through this
    same function, exactly as the series solvers share
    :func:`repro.core.least_squares.resolve_tile_sizes` with their
    traces): the variable power table is built level by level
    (``max_degree - 1`` batched multiplications), the ``products``
    distinct power products are reduced pairwise over the ``variables``
    axis (ones-padded binary tree, one batched launch per level), and
    each equation's value is one coefficient weighting plus a
    zero-padded pairwise term reduction.  With ``jacobian_slots`` set,
    the Jacobian assembly stages are appended; they **reuse** the power
    products already in the trace — the shared-monomial contract of
    :func:`repro.md.opcounts.polynomial_counts`.  At ``order > 0``
    every multiplication is a truncated Cauchy product over
    ``order + 1`` coefficients.  With ``batch > 1`` the trace describes
    one **fleet-wide batched** pass: the launch sequence stays
    identical (flat in the batch) while every launch's grid, tally and
    traffic scale by the batch — matching the numeric batched path of
    :meth:`~repro.poly.system.PolynomialSystem.evaluate_series` launch
    for launch.
    """
    terms = order + 1
    n_threads = POLY_THREADS_PER_BLOCK
    if trace is None:
        trace = KernelTrace(
            device,
            label=(
                f"polynomial model {equations}x{variables} "
                f"products={products} order={order}"
            ),
        )
    if batch != 1:
        probe = polynomial_evaluation_trace(
            equations,
            variables,
            products,
            max_degree,
            term_slots,
            limbs,
            order=order,
            jacobian_slots=jacobian_slots,
            evaluate=evaluate,
            device=device,
            complex_data=complex_data,
        )
        trace.extend(probe.batched(int(batch)))
        return trace
    for _ in range(max(max_degree - 1, 0)):
        count = variables
        trace.add(
            "power_table",
            stages.STAGE_POLY_POWERS,
            blocks=max(1, _ceil_div(count * terms, n_threads)),
            threads_per_block=n_threads,
            limbs=limbs,
            tally=stages.tally_series_product(count, order, complex_data),
            bytes_read=md_bytes(2 * count * terms, limbs, complex_data),
            bytes_written=md_bytes(count * terms, limbs, complex_data),
        )
    length = variables
    while length > 1:
        half = (length + 1) // 2
        count = products * half
        trace.add(
            "power_products",
            stages.STAGE_POLY_PRODUCTS,
            blocks=max(1, _ceil_div(count * terms, n_threads)),
            threads_per_block=n_threads,
            limbs=limbs,
            tally=stages.tally_series_product(count, order, complex_data),
            bytes_read=md_bytes(2 * count * terms, limbs, complex_data),
            bytes_written=md_bytes(count * terms, limbs, complex_data),
        )
        length = half
    if evaluate:
        _poly_term_stages(
            trace,
            "term",
            stages.STAGE_POLY_TERMS,
            equations,
            term_slots,
            order,
            limbs,
            complex_data,
        )
    if jacobian_slots is not None:
        _poly_term_stages(
            trace,
            "jacobian",
            stages.STAGE_POLY_JACOBIAN,
            equations * variables,
            max(jacobian_slots, 1),
            order,
            limbs,
            complex_data,
        )
    return trace


def _poly_term_stages(trace, name, stage, rows, slots, order, limbs, complex_data=False):
    """Coefficient weighting + pairwise term reduction of one pass."""
    terms = order + 1
    n_threads = POLY_THREADS_PER_BLOCK
    trace.add(
        f"{name}_scale",
        stage,
        blocks=max(1, _ceil_div(rows * slots * terms, n_threads)),
        threads_per_block=n_threads,
        limbs=limbs,
        tally=stages.tally_series_scale(rows * slots, order, complex_data),
        bytes_read=md_bytes(rows * slots * (1 + terms), limbs, complex_data),
        bytes_written=md_bytes(rows * slots * terms, limbs, complex_data),
    )
    length = slots
    while length > 1:
        half = (length + 1) // 2
        trace.add(
            f"{name}_reduce",
            stage,
            blocks=max(1, _ceil_div(rows * half * terms, n_threads)),
            threads_per_block=n_threads,
            limbs=limbs,
            tally=stages.tally_series_add(rows * half, order, complex_data),
            bytes_read=md_bytes(2 * rows * half * terms, limbs, complex_data),
            bytes_written=md_bytes(rows * half * terms, limbs, complex_data),
        )
        length = half


# ---------------------------------------------------------------------------
# batched execution layer (repro.batch): launches flat in the batch size,
# work linear in it
# ---------------------------------------------------------------------------


def batched_qr_trace(
    batch, rows, cols, tile_size, limbs, device="V100", complex_data=False
):
    """Analytic trace of the batched blocked QR.

    Mirrors :func:`repro.batch.qr.batched_blocked_qr` launch for
    launch: the same launches as :func:`qr_trace` with ``batch`` times
    the blocks, tallies and bytes — the launch count is **flat** in the
    batch size, the flops linear (the batching contract the tests
    assert).
    """
    return qr_trace(rows, cols, tile_size, limbs, device, complex_data).batched(batch)


def batched_back_substitution_trace(
    batch, tiles, tile_size, limbs, device="V100", complex_data=False
):
    """Analytic trace of the batched tiled back substitution; mirrors
    :func:`repro.batch.back_substitution.batched_back_substitution`."""
    return back_substitution_trace(
        tiles, tile_size, limbs, device, complex_data
    ).batched(batch)


def batched_lstsq_trace(batch, rows, cols, tile_size, limbs, device="V100"):
    """Analytic traces (QR, BS) of the batched least squares solver;
    mirrors :func:`repro.batch.least_squares.batched_least_squares`."""
    qr, bs = lstsq_trace(rows, cols, tile_size, limbs, device)
    return qr.batched(batch), bs.batched(batch)


def path_fleet_trace(
    batch,
    dimension,
    order,
    limbs,
    *,
    tile_size=None,
    bs_tile_size=None,
    numerator_degree=None,
    denominator_degree=None,
    device="V100",
    complex_data=False,
):
    """Analytic trace of one lock-step fleet step over ``batch`` paths.

    One batched series Newton expansion (QR of all Jacobian heads plus
    one batched solve per series order) and **one** batched Padé
    construction covering all ``batch * dimension`` solution components
    — the work :func:`repro.batch.fleet.track_paths` performs per
    precision sub-batch per round.  Compared with ``batch`` repetitions
    of :func:`path_step_trace` the flops are identical but the launch
    count is flat in the batch size (and the per-path Padé launches
    collapse into one batched construction, so it is flat in the
    dimension as well).
    """
    if numerator_degree is None:
        numerator_degree = (order - 1) // 2
    if denominator_degree is None:
        denominator_degree = (order - 1) // 2
    trace = KernelTrace(
        device,
        label=f"path fleet model b={batch} dim={dimension} order={order}",
    )
    newton = newton_series_trace(
        dimension,
        order,
        limbs,
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        device=device,
        complex_data=complex_data,
    )
    trace.extend(newton.batched(batch))
    pade = pade_trace(
        numerator_degree,
        denominator_degree,
        limbs,
        device=device,
        complex_data=complex_data,
    )
    trace.extend(pade.batched(batch * dimension))
    return trace


def path_step_trace(
    dimension,
    order,
    limbs,
    *,
    tile_size=None,
    bs_tile_size=None,
    numerator_degree=None,
    denominator_degree=None,
    device="V100",
    complex_data=False,
    trace=None,
):
    """Analytic trace of one adaptive path tracking step, run unbatched.

    One series Newton expansion plus one Padé construction per
    solution component: one path's step attempt priced as if it ran
    alone, summed into each ``PathStep.model_ms``.  It does not price
    the launches :func:`repro.series.tracker.track_path` records, a
    fleet of one (:func:`path_fleet_trace` with ``batch=1``, one
    batched Padé construction).  ``complex_data=True`` prices the
    native complex step (launch-identical, 4x-real multiply tallies).
    """
    if numerator_degree is None:
        numerator_degree = (order - 1) // 2
    if denominator_degree is None:
        denominator_degree = (order - 1) // 2
    if trace is None:
        trace = KernelTrace(
            device,
            label=f"path step model dim={dimension} order={order}",
        )
    newton_series_trace(
        dimension,
        order,
        limbs,
        tile_size=tile_size,
        bs_tile_size=bs_tile_size,
        device=device,
        complex_data=complex_data,
        trace=trace,
    )
    for _ in range(dimension):
        pade_trace(
            numerator_degree,
            denominator_degree,
            limbs,
            device=device,
            complex_data=complex_data,
            trace=trace,
        )
    return trace


# ---------------------------------------------------------------------------
# measured/analytic accounting parity
# ---------------------------------------------------------------------------

#: Launch-identical analytic twin of every profiled numeric driver: span
#: name (the ``@profiled`` name, or the directly-opened path/run span)
#: to the trace function that predicts the very launches the driver
#: records.  ``predicted_vs_measured`` joins the two columns on the span
#: name, so a missing entry makes a driver invisible to the acceptance
#: oracle — the ``accounting-parity`` rule of :mod:`repro.analysis`
#: keeps this table total in both directions.
COSTMODEL_TWINS = {
    "blocked_qr": qr_trace,
    "tiled_back_substitution": back_substitution_trace,
    "lstsq": lstsq_trace,
    "solve_matrix_series": matrix_series_trace,
    "newton_series": newton_series_trace,
    # the quadratic refinement runs the same per-order launches, one
    # doubling column block at a time
    "newton_series_quadratic": newton_series_trace,
    "pade": pade_trace,
    # the batched driver prices one Padé trace per batch slice
    "batched_pade": pade_trace,
    "poly_eval": polynomial_evaluation_trace,
    "poly_jacobian": polynomial_evaluation_trace,
    "poly_eval_jacobian": polynomial_evaluation_trace,
    "batched_qr": batched_qr_trace,
    "batched_back_substitution": batched_back_substitution_trace,
    "batched_lstsq": batched_lstsq_trace,
    "track_path": path_step_trace,
    "track_paths": path_fleet_trace,
}
