"""Experiment harness: one driver per table and figure of the paper.

Every function regenerates the corresponding artefact of the paper's
Section 4 with this library's (simulated) GPU substrate: the analytic
cost model produces the kernel trace at the paper's dimensions, the
performance model attributes kernel and wall clock times, and the
result rows carry the paper's reference numbers next to the modelled
ones so the shape comparison (who wins, by what factor, where the
crossovers fall) is immediate.  The figures are derived from the same
data (the paper's figures plot the 2-logarithms of the kernel times, or
the roofline coordinates).

The functions are deliberately cheap (no multiple double numerics at
paper scale), so the whole evaluation section can be regenerated in
seconds; the benchmark suite under ``benchmarks/`` executes one
function per table/figure, and additional "real execution" benchmarks
exercise the numeric kernels at reduced dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core import stages
from ..gpu.device import get_device, list_devices
from ..gpu.memory import md_bytes
from ..gpu.roofline import RooflinePoint, attainable_gflops, is_compute_bound
from ..md.opcounts import PAPER_AVERAGES, measured_costs, paper_costs
from . import paper_data
from .costmodel import back_substitution_trace, lstsq_trace, problem_bytes, qr_trace
from .model import PerformanceModel

__all__ = [
    "ExperimentResult",
    "table1_operation_counts",
    "table2_devices",
    "table3_qr_dd_five_gpus",
    "table4_qr_four_precisions",
    "figure1_qr_precision_scaling",
    "table5_real_vs_complex",
    "table6_qr_dimensions",
    "figure2_qr_dimension_scaling",
    "table7_backsub_precisions",
    "figure3_backsub_scaling",
    "table8_backsub_tilings",
    "table9_backsub_three_gpus",
    "figure4_backsub_three_gpus",
    "table10_roofline",
    "figure5_roofline",
    "table11_least_squares",
    "overhead_factors",
    "ALL_EXPERIMENTS",
]

#: Default QR configuration of the paper: 1,024 columns in 8 tiles of 128.
QR_DIM = 1024
QR_TILE = 128


@dataclass
class ExperimentResult:
    """Rows of one regenerated table or figure."""

    experiment: str
    description: str
    rows: list = field(default_factory=list)
    notes: str = ""

    def column(self, key):
        """Extract one column across all rows (missing values as None)."""
        return [row.get(key) for row in self.rows]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _qr_run(device, limbs, dim=QR_DIM, tile=QR_TILE, complex_data=False):
    trace = qr_trace(dim, dim, tile, limbs, device, complex_data)
    model = PerformanceModel(device)
    return model.attribute(
        trace, problem_bytes=problem_bytes(dim, dim, limbs, complex_data)
    )


def _bs_run(device, limbs, tiles, tile, complex_data=False, oversubscribed=False):
    trace = back_substitution_trace(tiles, tile, limbs, device, complex_data)
    model = PerformanceModel(device)
    dim = tiles * tile
    data_bytes = md_bytes(dim * dim / 2 + 2 * dim, limbs, complex_data)
    return model.attribute(trace, problem_bytes=data_bytes, oversubscribed=oversubscribed)


def _stage_times(trace, stage_names):
    times = trace.stage_times_ms()
    return {name: times.get(name, 0.0) for name in stage_names}


def _log2(value):
    return math.log2(value) if value > 0 else float("-inf")


# ---------------------------------------------------------------------------
# Table 1 / Table 2
# ---------------------------------------------------------------------------

def table1_operation_counts() -> ExperimentResult:
    """Table 1: operation counts of multiple double arithmetic.

    Reports both the paper's CAMPARY counts and the measured counts of
    this library's branch-free expansion arithmetic.
    """
    result = ExperimentResult(
        "table1",
        "Operational counts for double double, quad double and octo double arithmetic",
    )
    for limbs in (2, 4, 8):
        paper = paper_costs(limbs)
        ours = measured_costs(limbs)
        result.rows.append(
            {
                "limbs": limbs,
                "paper_add": paper.add,
                "paper_mul": paper.mul,
                "paper_div": paper.div,
                "paper_average": PAPER_AVERAGES[limbs],
                "measured_add": ours.add,
                "measured_mul": ours.mul,
                "measured_div": ours.div,
                "measured_average": round(ours.average, 1),
            }
        )
    result.notes = (
        "The measured counts are larger than CAMPARY's because the "
        "renormalization here is branch-free (vectorizable); the growth "
        "with the precision follows the same quadratic trend."
    )
    return result


def table2_devices() -> ExperimentResult:
    """Table 2: characteristics of the five (simulated) GPUs."""
    result = ExperimentResult("table2", "Simulated GPU device characteristics")
    for spec in list_devices():
        result.rows.append(
            {
                "device": spec.name,
                "cuda": spec.cuda_capability,
                "multiprocessors": spec.multiprocessors,
                "cores_per_mp": spec.cores_per_multiprocessor,
                "cores": spec.cores,
                "clock_ghz": spec.clock_ghz,
                "peak_double_gflops": round(spec.peak_double_gflops, 1),
                "bandwidth_gb_s": spec.memory_bandwidth_gb_s,
                "host_cpu": spec.host_cpu,
                "host_clock_ghz": spec.host_clock_ghz,
            }
        )
    return result


# ---------------------------------------------------------------------------
# Tables 3-6 and Figures 1-2: blocked Householder QR
# ---------------------------------------------------------------------------

def table3_qr_dd_five_gpus(dim=QR_DIM, tile=QR_TILE) -> ExperimentResult:
    """Table 3: double double QR of a 1,024x1,024 matrix on five GPUs."""
    result = ExperimentResult(
        "table3",
        f"Blocked Householder QR in double double precision, {dim}x{dim}, "
        f"{dim // tile} tiles of {tile}",
    )
    for key in ("C2050", "K20C", "P100", "V100", "RTX2080"):
        run = _qr_run(key, 2, dim, tile)
        reference = paper_data.TABLE3_DD_QR_1024.get(key, {})
        row = {
            "device": key,
            "kernel_ms": round(run.kernel_ms, 1),
            "wall_ms": round(run.wall_ms, 1),
            "kernel_gflops": round(run.kernel_gigaflops, 1),
            "wall_gflops": round(run.wall_gigaflops, 1),
            "paper_kernel_ms": reference.get("kernel_ms"),
            "paper_kernel_gflops": reference.get("kernel_gflops"),
            "paper_wall_ms": reference.get("wall_ms"),
        }
        row.update(
            {f"stage[{name}]": round(value, 2) for name, value in _stage_times(run.trace, stages.QR_STAGES).items()}
        )
        result.rows.append(row)
    result.notes = (
        "Teraflop performance is reached on the P100 and the V100 already "
        "at dimension 1,024 in double double precision, as in the paper."
    )
    return result


def table4_qr_four_precisions(devices=("RTX2080", "P100", "V100"), dim=QR_DIM, tile=QR_TILE) -> ExperimentResult:
    """Table 4: QR of a 1,024x1,024 matrix in 1d/2d/4d/8d precision."""
    result = ExperimentResult(
        "table4",
        f"Blocked Householder QR in four precisions, {dim}x{dim}, tiles of {tile}",
    )
    for key in devices:
        for limbs in (1, 2, 4, 8):
            run = _qr_run(key, limbs, dim, tile)
            reference = paper_data.TABLE4_QR_1024.get(key, {}).get(limbs, {})
            row = {
                "device": key,
                "limbs": limbs,
                "kernel_ms": round(run.kernel_ms, 1),
                "wall_ms": round(run.wall_ms, 1),
                "kernel_gflops": round(run.kernel_gigaflops, 1),
                "wall_gflops": round(run.wall_gigaflops, 1),
                "paper_kernel_ms": reference.get("kernel_ms"),
                "paper_kernel_gflops": reference.get("kernel_gflops"),
            }
            row.update(
                {f"stage[{name}]": round(value, 2) for name, value in _stage_times(run.trace, stages.QR_STAGES).items()}
            )
            result.rows.append(row)
    result.notes = (
        "Cost overhead factors of doubling the precision are computed from "
        "these rows by overhead_factors(); they come out below the factors "
        "predicted by the operation counts, as in the paper."
    )
    return result


def figure1_qr_precision_scaling(devices=("RTX2080", "P100", "V100")) -> ExperimentResult:
    """Figure 1: 2-logarithms of the QR kernel times in 2d/4d/8d."""
    table = table4_qr_four_precisions(devices)
    result = ExperimentResult(
        "figure1",
        "log2 of the time spent by all QR kernels (double double, quad double, octo double)",
    )
    for row in table.rows:
        if row["limbs"] == 1:
            continue
        result.rows.append(
            {
                "device": row["device"],
                "limbs": row["limbs"],
                "log2_kernel_ms": round(_log2(row["kernel_ms"]), 2),
                "paper_log2_kernel_ms": round(_log2(row["paper_kernel_ms"]), 2)
                if row.get("paper_kernel_ms")
                else None,
            }
        )
    return result


def table5_real_vs_complex(dim=512, device="V100") -> ExperimentResult:
    """Table 5: real vs complex double double QR at dimension 512 for
    tile sizes 32, 64, 128 and 256."""
    result = ExperimentResult(
        "table5",
        f"Real and complex double double QR, dimension {dim}, tile-size sweep ({device})",
    )
    for complex_data, label in ((False, "real"), (True, "complex")):
        for tile in (32, 64, 128, 256):
            tiles = dim // tile
            run = _qr_run(device, 2, dim, tile, complex_data)
            reference = paper_data.TABLE5_REAL_COMPLEX_512[label].get((tiles, tile), {})
            row = {
                "data": label,
                "tiling": f"{tiles}x{tile}",
                "kernel_ms": round(run.kernel_ms, 1),
                "wall_ms": round(run.wall_ms, 1),
                "kernel_gflops": round(run.kernel_gigaflops, 1),
                "paper_kernel_ms": reference.get("kernel_ms"),
                "paper_kernel_gflops": reference.get("kernel_gflops"),
            }
            row.update(
                {f"stage[{name}]": round(value, 2) for name, value in _stage_times(run.trace, stages.QR_STAGES).items()}
            )
            result.rows.append(row)
    result.notes = "Complex arithmetic costs about four times the real operations (Table 5 discussion)."
    return result


def table6_qr_dimensions(dims=(512, 1024, 1536, 2048), precisions=(2, 4, 8), device="V100", tile=QR_TILE) -> ExperimentResult:
    """Table 6: QR for increasing dimensions in 2d/4d/8d on the V100."""
    result = ExperimentResult(
        "table6",
        f"Blocked Householder QR for increasing dimensions (tiles of {tile}, {device})",
    )
    for limbs in precisions:
        for dim in dims:
            run = _qr_run(device, limbs, dim, tile)
            reference = paper_data.TABLE6_QR_DIMENSIONS.get(limbs, {}).get(dim, {})
            row = {
                "limbs": limbs,
                "dimension": dim,
                "tiling": f"{dim // tile}x{tile}",
                "kernel_ms": round(run.kernel_ms, 1),
                "wall_ms": round(run.wall_ms, 1),
                "kernel_gflops": round(run.kernel_gigaflops, 1),
                "paper_kernel_ms": reference.get("kernel_ms"),
                "paper_kernel_gflops": reference.get("kernel_gflops"),
            }
            row.update(
                {f"stage[{name}]": round(value, 2) for name, value in _stage_times(run.trace, stages.QR_STAGES).items()}
            )
            result.rows.append(row)
    result.notes = (
        "Doubling the dimension multiplies the work by eight; thanks to the "
        "improving occupancy the observed time factors stay closer to four, "
        "as the paper reports for 512 -> 1024."
    )
    return result


def figure2_qr_dimension_scaling(device="V100") -> ExperimentResult:
    """Figure 2: log2 of the QR kernel times for increasing dimensions."""
    table = table6_qr_dimensions(device=device)
    result = ExperimentResult(
        "figure2",
        "log2 of the time spent by all QR kernels for increasing dimensions (V100)",
    )
    for row in table.rows:
        result.rows.append(
            {
                "limbs": row["limbs"],
                "dimension": row["dimension"],
                "log2_kernel_ms": round(_log2(row["kernel_ms"]), 2),
                "paper_log2_kernel_ms": round(_log2(row["paper_kernel_ms"]), 2)
                if row.get("paper_kernel_ms")
                else None,
            }
        )
    return result


# ---------------------------------------------------------------------------
# Tables 7-10 and Figures 3-5: tiled back substitution
# ---------------------------------------------------------------------------

def table7_backsub_precisions(device="V100") -> ExperimentResult:
    """Table 7: back substitution in four precisions for growing sizes."""
    result = ExperimentResult(
        "table7",
        f"Tiled back substitution in four precisions on the {device}",
    )
    configurations = [
        (1, 64, 80), (1, 128, 80), (1, 256, 80),
        (2, 64, 80), (2, 128, 80), (2, 256, 80),
        (4, 64, 80), (4, 128, 80), (4, 256, 80),
        (8, 64, 80), (8, 128, 80), (8, 128, 160),
    ]
    for limbs, tile, tiles in configurations:
        # the octo double run at dimension 20,480 exceeds the V100 host's
        # 32 GB of RAM in the paper; flag the host as oversubscribed
        oversubscribed = limbs == 8 and tiles * tile >= 20480
        run = _bs_run(device, limbs, tiles, tile, oversubscribed=oversubscribed)
        reference = paper_data.TABLE7_BACKSUB_V100.get((limbs, tile, tiles), {})
        times = _stage_times(run.trace, stages.BS_STAGES)
        result.rows.append(
            {
                "limbs": limbs,
                "dimension": tile * tiles,
                "tiling": f"{tile}x{tiles}",
                "invert_ms": round(times[stages.STAGE_INVERT_TILES], 1),
                "multiply_ms": round(times[stages.STAGE_MULTIPLY_INVERSE], 1),
                "update_ms": round(times[stages.STAGE_BACK_SUBSTITUTION], 1),
                "kernel_ms": round(run.kernel_ms, 1),
                "wall_ms": round(run.wall_ms, 1),
                "kernel_gflops": round(run.kernel_gigaflops, 1),
                "wall_gflops": round(run.wall_gigaflops, 1),
                "paper_kernel_ms": reference.get("kernel_ms"),
                "paper_wall_ms": reference.get("wall_ms"),
                "paper_kernel_gflops": reference.get("kernel_gflops"),
            }
        )
    result.notes = (
        "The octo double run at dimension 20,480 is wall-clock dominated by "
        "host memory oversubscription (32 GB of RAM), as in the paper."
    )
    return result


def figure3_backsub_scaling(device="V100") -> ExperimentResult:
    """Figure 3: log2 of the back substitution kernel times."""
    table = table7_backsub_precisions(device)
    result = ExperimentResult(
        "figure3",
        "log2 of the back substitution kernel times for dimensions 5120, 10240, 20480",
    )
    for row in table.rows:
        result.rows.append(
            {
                "limbs": row["limbs"],
                "dimension": row["dimension"],
                "log2_kernel_ms": round(_log2(row["kernel_ms"]), 2),
                "paper_log2_kernel_ms": round(_log2(row["paper_kernel_ms"]), 2)
                if row.get("paper_kernel_ms")
                else None,
            }
        )
    return result


def table8_backsub_tilings(device="V100", limbs=4) -> ExperimentResult:
    """Table 8: quad double back substitution at dimension 20,480 for
    three choices of N and n."""
    result = ExperimentResult(
        "table8",
        "Quad double back substitution at dimension 20,480 for three tilings",
    )
    for tile, tiles in ((64, 320), (128, 160), (256, 80)):
        run = _bs_run(device, limbs, tiles, tile)
        reference = paper_data.TABLE8_BACKSUB_20480.get((tile, tiles), {})
        times = _stage_times(run.trace, stages.BS_STAGES)
        result.rows.append(
            {
                "tiling": f"{tiles}x{tile}",
                "invert_ms": round(times[stages.STAGE_INVERT_TILES], 1),
                "multiply_ms": round(times[stages.STAGE_MULTIPLY_INVERSE], 1),
                "update_ms": round(times[stages.STAGE_BACK_SUBSTITUTION], 1),
                "kernel_ms": round(run.kernel_ms, 1),
                "wall_ms": round(run.wall_ms, 1),
                "kernel_gflops": round(run.kernel_gigaflops, 1),
                "wall_gflops": round(run.wall_gigaflops, 1),
                "paper_kernel_ms": reference.get("kernel_ms"),
                "paper_wall_ms": reference.get("wall_ms"),
                "paper_kernel_gflops": reference.get("kernel_gflops"),
            }
        )
    result.notes = (
        "Larger tiles increase the kernel time but improve the performance; "
        "in the paper this also shrinks the wall clock time (fewer launches), "
        "here the wall-to-kernel gap shrinks."
    )
    return result


def table9_backsub_three_gpus(devices=("RTX2080", "P100", "V100"), limbs=4, tiles=80) -> ExperimentResult:
    """Table 9: quad double tiled back substitution, N = 80, n sweep."""
    result = ExperimentResult(
        "table9",
        "Quad double tiled back substitution, 80 tiles, tile sizes 32..256",
    )
    for device in devices:
        for tile in (32, 64, 96, 128, 160, 192, 224, 256):
            run = _bs_run(device, limbs, tiles, tile)
            reference = paper_data.TABLE9_BACKSUB_QD.get(device, {}).get(tile, {})
            times = _stage_times(run.trace, stages.BS_STAGES)
            result.rows.append(
                {
                    "device": device,
                    "tile": tile,
                    "dimension": tile * tiles,
                    "invert_ms": round(times[stages.STAGE_INVERT_TILES], 1),
                    "multiply_ms": round(times[stages.STAGE_MULTIPLY_INVERSE], 1),
                    "update_ms": round(times[stages.STAGE_BACK_SUBSTITUTION], 1),
                    "kernel_ms": round(run.kernel_ms, 1),
                    "wall_ms": round(run.wall_ms, 1),
                    "kernel_gflops": round(run.kernel_gigaflops, 1),
                    "wall_gflops": round(run.wall_gigaflops, 1),
                    "paper_kernel_ms": reference.get("kernel_ms"),
                    "paper_kernel_gflops": reference.get("kernel_gflops"),
                }
            )
    result.notes = (
        "Teraflop performance of the back substitution requires dimensions "
        "in the tens of thousands; the V100 outperforms the P100 by more "
        "than the peak ratio because 80 tiles match its 80 multiprocessors."
    )
    return result


def figure4_backsub_three_gpus(devices=("RTX2080", "P100", "V100")) -> ExperimentResult:
    """Figure 4: log2 of the back substitution kernel times (N = 80)."""
    table = table9_backsub_three_gpus(devices)
    result = ExperimentResult(
        "figure4",
        "log2 of the back substitution kernel times on three GPUs (quad double)",
    )
    for row in table.rows:
        result.rows.append(
            {
                "device": row["device"],
                "tile": row["tile"],
                "log2_kernel_ms": round(_log2(row["kernel_ms"]), 2),
                "paper_log2_kernel_ms": round(_log2(row["paper_kernel_ms"]), 2)
                if row.get("paper_kernel_ms")
                else None,
            }
        )
    return result


def table10_roofline(device="V100", limbs=4, tiles=80) -> ExperimentResult:
    """Table 10: arithmetic intensity and flop rate of the quad double
    back substitution on the V100."""
    spec = get_device(device)
    result = ExperimentResult(
        "table10",
        f"Arithmetic intensity and kernel flop rate of the back substitution ({spec.name})",
    )
    for tile in (32, 64, 96, 128, 160, 192, 224, 256):
        run = _bs_run(device, limbs, tiles, tile)
        intensity = run.trace.arithmetic_intensity()
        reference = paper_data.TABLE10_ROOFLINE.get(tile, {})
        result.rows.append(
            {
                "tile": tile,
                "dimension": tile * tiles,
                "intensity": round(intensity, 2),
                "kernel_gflops": round(run.kernel_gigaflops, 1),
                "attainable_gflops": round(attainable_gflops(intensity, spec), 1),
                "compute_bound": is_compute_bound(intensity, spec),
                "paper_intensity": reference.get("intensity"),
                "paper_kernel_gflops": reference.get("kernel_gflops"),
            }
        )
    result.notes = (
        "As the tile size grows the dots move up and to the right: the "
        "problem becomes compute bound (ridge point 9.08 flops/byte on the V100)."
    )
    return result


def figure5_roofline(device="V100") -> ExperimentResult:
    """Figure 5: roofline plot data (log10 coordinates of every dot)."""
    table = table10_roofline(device)
    result = ExperimentResult(
        "figure5",
        "Roofline plot of the quad double back substitution on the V100",
    )
    for row in table.rows:
        point = RooflinePoint(f"n={row['tile']}", row["intensity"], row["kernel_gflops"])
        result.rows.append(
            {
                "label": point.label,
                "log10_intensity": round(point.log10_intensity, 3),
                "log10_gflops": round(point.log10_gflops, 3),
                "compute_bound": row["compute_bound"],
            }
        )
    return result


# ---------------------------------------------------------------------------
# Table 11: the complete least squares solver
# ---------------------------------------------------------------------------

def table11_least_squares(devices=("RTX2080", "P100", "V100"), dim=QR_DIM, tile=QR_TILE) -> ExperimentResult:
    """Table 11: least squares solving in four precisions."""
    result = ExperimentResult(
        "table11",
        f"Least squares solving of a {dim}x{dim} system (QR + back substitution)",
    )
    for device in devices:
        for limbs in (1, 2, 4, 8):
            qr, bs = lstsq_trace(dim, dim, tile, limbs, device)
            model = PerformanceModel(device)
            data_bytes = problem_bytes(dim, dim, limbs)
            qr_run = model.attribute(qr, problem_bytes=data_bytes)
            bs_run = model.attribute(bs, problem_bytes=md_bytes(dim * dim + dim, limbs))
            total_flops = qr.total_flops() + bs.total_flops()
            total_kernel_ms = qr_run.kernel_ms + bs_run.kernel_ms
            total_wall_ms = qr_run.wall_ms + bs_run.wall_ms
            reference = paper_data.TABLE11_LSTSQ_1024.get(device, {}).get(limbs, {})
            result.rows.append(
                {
                    "device": device,
                    "limbs": limbs,
                    "qr_kernel_ms": round(qr_run.kernel_ms, 1),
                    "qr_wall_ms": round(qr_run.wall_ms, 1),
                    "bs_kernel_ms": round(bs_run.kernel_ms, 1),
                    "bs_wall_ms": round(bs_run.wall_ms, 1),
                    "qr_kernel_gflops": round(qr_run.kernel_gigaflops, 1),
                    "bs_kernel_gflops": round(bs_run.kernel_gigaflops, 1),
                    "total_kernel_gflops": round(
                        total_flops / (total_kernel_ms * 1e-3) / 1e9, 1
                    )
                    if total_kernel_ms > 0
                    else 0.0,
                    "total_wall_gflops": round(
                        total_flops / (total_wall_ms * 1e-3) / 1e9, 1
                    )
                    if total_wall_ms > 0
                    else 0.0,
                    "qr_over_bs_kernel_time": round(qr_run.kernel_ms / bs_run.kernel_ms, 1)
                    if bs_run.kernel_ms > 0
                    else float("inf"),
                    "paper_qr_kernel_ms": reference.get("qr_kernel_ms"),
                    "paper_bs_kernel_ms": reference.get("bs_kernel_ms"),
                    "paper_total_kernel_gflops": reference.get("total_kernel_gflops"),
                }
            )
    result.notes = (
        "The time of the back substitution is one to two orders of magnitude "
        "below the QR time, so the lower back substitution performance does "
        "not reduce the overall solver performance (paper Section 4.9)."
    )
    return result


# ---------------------------------------------------------------------------
# derived summary: precision-doubling overhead factors
# ---------------------------------------------------------------------------

def overhead_factors(devices=("RTX2080", "P100", "V100")) -> ExperimentResult:
    """Observed vs predicted cost factors of doubling the precision.

    The paper's central quantitative claim: the observed factors (ratios
    of kernel times of consecutive precisions) stay below the factors
    predicted by the operation counts (11.7 for 2d->4d, 5.4 for 4d->8d).
    """
    table = table4_qr_four_precisions(devices)
    by_device = {}
    for row in table.rows:
        by_device.setdefault(row["device"], {})[row["limbs"]] = row
    result = ExperimentResult(
        "overhead",
        "Observed vs predicted overhead factors of doubling the precision (QR kernels)",
    )
    for device, rows in by_device.items():
        for low, high, label in ((2, 4, "2d->4d"), (4, 8, "4d->8d")):
            observed = rows[high]["kernel_ms"] / rows[low]["kernel_ms"]
            paper_low = rows[low].get("paper_kernel_ms")
            paper_high = rows[high].get("paper_kernel_ms")
            paper_observed = paper_high / paper_low if paper_low and paper_high else None
            result.rows.append(
                {
                    "device": device,
                    "transition": label,
                    "observed_factor": round(observed, 2),
                    "paper_observed_factor": round(paper_observed, 2) if paper_observed else None,
                    "predicted_factor": paper_data.PREDICTED_OVERHEAD_FACTORS[label],
                    "below_prediction": observed < paper_data.PREDICTED_OVERHEAD_FACTORS[label],
                }
            )
    return result


#: Registry of every experiment, by table/figure name (the
#: ``examples/gpu_performance_study.py`` runs them by name).
ALL_EXPERIMENTS = {
    "table1": table1_operation_counts,
    "table2": table2_devices,
    "table3": table3_qr_dd_five_gpus,
    "table4": table4_qr_four_precisions,
    "figure1": figure1_qr_precision_scaling,
    "table5": table5_real_vs_complex,
    "table6": table6_qr_dimensions,
    "figure2": figure2_qr_dimension_scaling,
    "table7": table7_backsub_precisions,
    "figure3": figure3_backsub_scaling,
    "table8": table8_backsub_tilings,
    "table9": table9_backsub_three_gpus,
    "figure4": figure4_backsub_three_gpus,
    "table10": table10_roofline,
    "figure5": figure5_roofline,
    "table11": table11_least_squares,
    "overhead": overhead_factors,
}
