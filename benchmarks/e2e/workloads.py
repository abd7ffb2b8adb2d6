"""The workloads of the end-to-end benchmark.

Each workload is a closed loop with one client: it solves one
*round* (a complete system, or one pass of the precision ladder),
checks every output, and only then starts the next round.  A round is
a short list of library calls, which the harness in ``run.py`` times
one by one.  Every call uses the library's defaults: no exec-backend
override, no ``backend=`` for :class:`~repro.poly.homotopy.Homotopy`,
the default precision ladder, packing and gamma.

The seed makes the inputs.  For ``lstsq_ladder`` it draws the random
matrices of every round.  The homotopy workloads keep the library's
default gamma, because another gamma changes the path geometry and
with it the amount of work (276 or 449 path steps on cyclic-3), which
would drown any change under test; there the seed permutes the order
in which the start solutions reach the tracker, and the checks map
every result back to its start solution.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import numpy as np

from repro.core import least_squares
from repro.md.constants import get_precision
from repro.md.number import ComplexMultiDouble, MultiDouble
from repro.perf.model import PerformanceModel
from repro.poly.families import cyclic, noon
from repro.poly.homotopy import Homotopy, extract_complex
from repro.vec.random import random_lstsq_problem

import verify
from layers import PRECISION_NAMES

__all__ = ["make"]

_MODEL = PerformanceModel("V100")


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _limbs(value):
    if isinstance(value, ComplexMultiDouble):
        return (value.real.limbs, value.imag.limbs)
    if isinstance(value, MultiDouble):
        return value.limbs
    return value


def _trace_totals(traces) -> dict:
    launches = [launch for trace in traces for launch in trace.launches]
    return {
        "gpu.launches": len(launches),
        "gpu.flops": float(sum(launch.flops() for launch in launches)),
        "gpu.bytes_computed": float(sum(launch.bytes_total for launch in launches)),
        "gpu.model_kernel_ms": float(sum(_MODEL.kernel_time_ms(launch) for launch in launches)),
    }


class LstsqLadder:
    """One dense square solve per precision of the ladder."""

    LADDER = ((2, 224), (4, 48), (8, 24))

    def __init__(self, seed: int):
        self.seed = seed
        for limbs, _ in self.LADDER:  # first-call costs, outside the rounds
            a, b = random_lstsq_problem(2, 2, limbs, np.random.default_rng(0))
            least_squares.lstsq(a, b)

    def inputs(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        return [
            (limbs, n, *random_lstsq_problem(n, n, limbs, rng))
            for limbs, n in self.LADDER
        ]

    def calls(self, inputs) -> list:
        """``(key, thunk)`` per timed call; keyed by limb count."""
        return [
            (limbs, lambda a=a, b=b: least_squares.lstsq(a, b))
            for limbs, _, a, b in inputs
        ]

    def check(self, inputs, results) -> list:
        return [
            verify.lstsq_verdict(
                f"{PRECISION_NAMES[limbs]} n={n}", a, b, result.x,
                get_precision(limbs).eps,
            )
            for (limbs, n, a, b), result in zip(inputs, results)
        ]

    def counters(self, results) -> dict:
        out = _trace_totals(trace for r in results for trace in (r.qr_trace, r.bs_trace))
        for (limbs, _), result in zip(self.LADDER, results):
            totals = _trace_totals((result.qr_trace, result.bs_trace))
            out[f"flops.{limbs}"] = totals["gpu.flops"]
            out[f"model_ms.{limbs}"] = totals["gpu.model_kernel_ms"]
        return out

    def signature(self, results) -> str:
        return _digest([result.x.data.tobytes() for result in results])


class _Homotopy:
    """Shared part of the homotopy workloads: the library-default
    total-degree homotopy, seeded start orders and endpoint checks."""

    #: indices of the start solutions a round tracks (``None``: all)
    tracked = None

    def __init__(self, seed: int, target, roots, **track):
        self.seed = seed
        self.homotopy = Homotopy.total_degree(target)
        self.starts = self.homotopy.start_solutions()
        self.roots = roots
        self.track = track
        if self.tracked is None:
            self.tracked = tuple(range(len(self.starts)))
        self._warm_up()

    def inputs(self, index: int):
        """A seeded order of the tracked start solutions."""
        rng = np.random.default_rng([self.seed, index])
        return [self.tracked[i] for i in rng.permutation(len(self.tracked))]

    def check(self, inputs, results) -> list:
        paths = dict(zip(inputs, self.paths(results)))
        order = sorted(paths)
        h = self.homotopy
        points = []
        for i in order:
            point = paths[i].final_point
            if h.tracking_dimension == h.real_dimension:
                point = extract_complex(point)
            points.append([complex(value) for value in point])
        return verify.path_verdicts(
            [f"path {i}" for i in order],
            points,
            [h.target_residual(paths[i].final_point) for i in order],
            [paths[i].reached for i in order],
            [paths[i].failed for i in order],
            self.roots,
        )

    def signature(self, results) -> str:
        return _digest([
            (
                [_limbs(v) for v in path.final_point],
                path.final_t, path.reached, path.failed, path.escalations,
                path.precisions_used, [astuple(step) for step in path.steps],
            )
            for path in self.paths(results)
        ])

    def counters(self, results) -> dict:
        paths = self.paths(results)
        return {
            "paths.steps": sum(path.step_count for path in paths),
            "paths.escalations": sum(path.escalations for path in paths),
        }


class FleetWorkload(_Homotopy):
    """Every start solution tracked as one fleet."""

    def _warm_up(self):
        self.homotopy.track_fleet(self.starts[:2], **{**self.track, "max_steps": 1})

    def calls(self, inputs) -> list:
        starts = [self.starts[i] for i in inputs]
        return [("fleet", lambda: self.homotopy.track_fleet(starts, **self.track))]

    @staticmethod
    def paths(results) -> list:
        return results[0].paths

    def counters(self, results) -> dict:
        fleet = results[0]
        slots = sum(len(indices) for _, _, indices in fleet.sub_batches)
        useful = sum(path.step_count for path in fleet.paths if path.reached)
        return {
            **super().counters(results),
            **_trace_totals(fleet.round_traces),
            "batch.fleet.sub_batches": len(fleet.sub_batches),
            "batch.fleet.occupancy": fleet.occupancy,
            "batch.fleet.step_yield": useful / slots if slots else 0.0,
        }


class SoloWorkload(_Homotopy):
    """Selected start solutions tracked one at a time."""

    #: path 3 stays at d, path 5 escalates d -> dd
    tracked = (3, 5)

    def _warm_up(self):
        self.homotopy.track(self.starts[0], **{**self.track, "max_steps": 1})

    def calls(self, inputs) -> list:
        return [
            (f"path {i}", lambda i=i: self.homotopy.track(self.starts[i], **self.track))
            for i in inputs
        ]

    @staticmethod
    def paths(results) -> list:
        return results

    def counters(self, results) -> dict:
        return {
            **super().counters(results),
            "gpu.model_kernel_ms": float(sum(path.total_model_ms for path in results)),
        }


_TRACK = {"tol": 1e-6, "order": 8, "max_steps": 192}


def make(name: str, seed: int):
    """Build a workload: library import, problem construction and
    first-call warm-up."""
    if name == "lstsq_ladder":
        return LstsqLadder(seed)
    if name == "cyclic3":
        return FleetWorkload(seed, cyclic(3), verify.cyclic3_roots(), **_TRACK)
    if name == "noon2":
        return FleetWorkload(seed, noon(2), verify.noon2_roots(), tol=1e-6)
    if name == "cyclic3_solo":
        return SoloWorkload(seed, cyclic(3), verify.cyclic3_roots(), **_TRACK)
    raise ValueError(f"unknown workload {name!r}")
