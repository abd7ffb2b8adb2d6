"""Kernel launch records and execution traces.

Every stage of the accelerated algorithms (Algorithms 1 and 2 of the
paper) is executed as one or more *kernel launches*.  In this
reproduction a :class:`KernelLaunch` records everything the performance
model needs about one launch — grid and block dimensions, the multiple
double operation tally and the global memory traffic — and a
:class:`KernelTrace` collects the launches of a whole run, mirroring
the per-stage breakdown that the paper's tables report
(``β,v``, ``βRᵀ⋆v``, ``update R``, ``compute W``, ...).

The launches are built in one place, the analytic cost model
(:mod:`repro.perf.costmodel`), from the problem shape alone: it prices
the paper's experiments at full scale, and the numeric drivers
(:mod:`repro.batch`, :mod:`repro.series`, which really perform the
arithmetic on :class:`~repro.vec.mdarray.MDArray` data) record its
traces for the shapes they run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .counters import OperationTally
from .device import DeviceSpec, get_device

__all__ = ["KernelLaunch", "StageSummary", "KernelTrace"]


@dataclass
class KernelLaunch:
    """One (simulated) kernel launch."""

    name: str
    stage: str
    blocks: int
    threads_per_block: int
    limbs: int
    tally: OperationTally = field(default_factory=OperationTally)
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    elapsed_ms: float | None = None
    #: relative efficiency hint in (0, 1]: kernels dominated by serial
    #: dependency chains or divergent control flow (e.g. the triangular
    #: tile inversion) sustain a smaller fraction of the device's
    #: multiple double throughput than the streaming matrix kernels
    efficiency: float = 1.0

    @property
    def threads(self) -> int:
        return self.blocks * self.threads_per_block

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    def flops(self, source: str = "paper") -> float:
        """Double precision flop count of this launch."""
        return self.tally.flops(self.limbs, source)

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of global memory traffic (roofline abscissa)."""
        total_bytes = self.bytes_total
        if total_bytes == 0:
            return float("inf")
        return self.flops() / total_bytes

    def batched(self, batch: int) -> "KernelLaunch":
        """The same launch advancing ``batch`` independent problems.

        The grid grows by the batch factor (``batch`` times the blocks,
        same threads per block), and the tally and memory traffic scale
        linearly — while it remains **one** launch.  The batched traces
        of :mod:`repro.perf.costmodel` (``batched_qr_trace`` and the
        others), which the batched drivers of :mod:`repro.batch` record,
        apply it through :meth:`KernelTrace.batched`.
        """
        return KernelLaunch(
            name=self.name,
            stage=self.stage,
            blocks=self.blocks * int(batch),
            threads_per_block=self.threads_per_block,
            limbs=self.limbs,
            tally=self.tally.scaled(batch),
            bytes_read=self.bytes_read * batch,
            bytes_written=self.bytes_written * batch,
            efficiency=self.efficiency,
        )


@dataclass
class StageSummary:
    """Aggregated view of all launches belonging to one stage."""

    stage: str
    launches: int
    elapsed_ms: float
    flops: float
    bytes: float
    md_operations: float

    @property
    def gigaflop_rate(self) -> float:
        """Gigaflops over the time spent by this stage's kernels."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.flops / (self.elapsed_ms * 1.0e-3) / 1.0e9


class KernelTrace:
    """An ordered collection of kernel launches with aggregation helpers."""

    def __init__(self, device="V100", label: str = ""):
        self.device: DeviceSpec = get_device(device)
        self.label = label
        self.launches: list[KernelLaunch] = []
        #: additional wall-clock milliseconds outside the kernels (host
        #: work and PCIe transfers), filled by the performance model
        self.transfer_ms: float = 0.0
        self.host_ms: float = 0.0

    # -- recording ---------------------------------------------------------
    def record(self, launch: KernelLaunch) -> KernelLaunch:
        self.launches.append(launch)
        return launch

    def add(
        self,
        name: str,
        stage: str,
        *,
        blocks: int,
        threads_per_block: int,
        limbs: int,
        tally: OperationTally,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        efficiency: float = 1.0,
    ) -> KernelLaunch:
        """Create and record one launch."""
        launch = KernelLaunch(
            name=name,
            stage=stage,
            blocks=int(blocks),
            threads_per_block=int(threads_per_block),
            limbs=limbs,
            tally=tally,
            bytes_read=float(bytes_read),
            bytes_written=float(bytes_written),
            efficiency=float(efficiency),
        )
        return self.record(launch)

    def batched(self, batch: int) -> "KernelTrace":
        """A trace of the same launches, each advancing ``batch`` problems.

        The launch count stays **flat** in the batch size while blocks,
        tallies and bytes scale linearly — the whole point of the
        batched execution layer (:mod:`repro.batch`)."""
        if batch < 1:
            raise ValueError("the batch size must be at least 1")
        out = KernelTrace(self.device, label=f"{self.label} [batch={batch}]")
        out.launches = [launch.batched(batch) for launch in self.launches]
        out.transfer_ms = self.transfer_ms
        out.host_ms = self.host_ms
        return out

    def extend(self, other: "KernelTrace") -> None:
        """Append all launches (and accounted host/transfer time) of
        another trace; used to chain QR and back substitution into the
        least squares solver trace."""
        self.launches.extend(other.launches)
        self.transfer_ms += other.transfer_ms
        self.host_ms += other.host_ms

    # -- aggregate queries ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.launches)

    @property
    def kernel_launch_count(self) -> int:
        return len(self.launches)

    def total_flops(self, source: str = "paper") -> float:
        return sum(launch.flops(source) for launch in self.launches)

    def total_bytes(self) -> float:
        return sum(launch.bytes_total for launch in self.launches)

    def total_md_operations(self) -> float:
        return sum(launch.tally.md_operations for launch in self.launches)

    def kernel_time_ms(self) -> float:
        """Sum of the elapsed times of all kernels (the
        ``cudaEventElapsedTime`` totals of the paper's tables)."""
        return sum(launch.elapsed_ms or 0.0 for launch in self.launches)

    def wall_clock_ms(self) -> float:
        """Kernel time plus transfer and host time."""
        return self.kernel_time_ms() + self.transfer_ms + self.host_ms

    def kernel_gigaflops(self, source: str = "paper") -> float:
        """Flop rate over the time spent by the kernels ("kernel flops"
        rows of the paper's tables), in gigaflops."""
        elapsed = self.kernel_time_ms()
        if elapsed <= 0:
            return 0.0
        return self.total_flops(source) / (elapsed * 1e-3) / 1e9

    def wall_gigaflops(self, source: str = "paper") -> float:
        """Flop rate over the wall clock time ("wall flops" rows)."""
        elapsed = self.wall_clock_ms()
        if elapsed <= 0:
            return 0.0
        return self.total_flops(source) / (elapsed * 1e-3) / 1e9

    def arithmetic_intensity(self) -> float:
        """Overall flops-per-byte of the trace."""
        total_bytes = self.total_bytes()
        if total_bytes == 0:
            return float("inf")
        return self.total_flops() / total_bytes

    # -- per-stage breakdown -------------------------------------------------
    def stages(self) -> list:
        """Stage names in order of first appearance."""
        seen = []
        for launch in self.launches:
            if launch.stage not in seen:
                seen.append(launch.stage)
        return seen

    def stage_summary(self, stage: str) -> StageSummary:
        relevant = [launch for launch in self.launches if launch.stage == stage]
        return StageSummary(
            stage=stage,
            launches=len(relevant),
            elapsed_ms=sum(launch.elapsed_ms or 0.0 for launch in relevant),
            flops=sum(launch.flops() for launch in relevant),
            bytes=sum(launch.bytes_total for launch in relevant),
            md_operations=sum(launch.tally.md_operations for launch in relevant),
        )

    def stage_times_ms(self) -> dict:
        """Mapping of stage name to total kernel milliseconds, the layout
        of the paper's per-stage tables."""
        return {stage: self.stage_summary(stage).elapsed_ms for stage in self.stages()}

    def stage_tallies(self) -> dict:
        """Mapping of stage name to aggregated operation tallies."""
        out = {}
        for launch in self.launches:
            existing = out.setdefault(launch.stage, OperationTally())
            existing += launch.tally
        return out

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"KernelTrace({self.label or 'unnamed'}, device={self.device.name}, "
            f"launches={len(self.launches)}, stages={len(self.stages())})"
        )
