"""End-to-end solve benchmark of the multiple double stack.

    python3 benchmarks/e2e/run.py [--workload W] [--seed 7]
        [--seconds 25] [--trace [0|1]] [--runs N] [--out DIR]

Run from the repository root.  Each run of a workload starts fresh
child processes, one at a time, each single-threaded
(``OMP/OPENBLAS/MKL_NUM_THREADS=1``, ``REPRO_EXEC_BACKEND`` removed, so
the library's default backend runs):

* five set-up probes, each timing a fresh process from its start to
  inputs ready (imports, problem construction and first-call warm-up);
  ``setup_s`` is their median, in reference seconds (see below) with
  the slowdown the measuring child sampled right after them;
* one measuring child, which solves rounds of the workload for
  ``--seconds`` (at least one round; no further round starts that
  would end past the budget, which bounds a run's time on a busy
  machine) and checks every output.  It reports the
  median round time in reference seconds, ``wall_ref_s``: each timed
  call's wall seconds divided by the machine's slowdown sampled while
  it ran (``calibrate.py``), which takes out most of the drift of a
  shared machine.  ``peak_rss_mb`` is its peak resident memory after
  the first round.

With ``--trace 1`` each round is solved twice on the same inputs, once
plain and once under the per-layer tracer of ``layers.py``, in
alternating order and without speed sampling; the run reports the
per-layer metrics instead, checks that both results are bitwise
identical, and reports the tracer's own overhead and coverage.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--runs N`` repeats
the run with seeds ``seed .. seed + N - 1`` and reports each metric's
median, quartiles and sample count.  ``--out DIR`` also writes the full
record of every run there as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, PRECISION_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Why each workload is in the benchmark (``workloads.py`` builds them).
WORKLOADS = {
    "lstsq_ladder": (
        "dense lstsq at dd n=224, qd n=48, od n=24: wide limb launches, dd "
        "fast paths and qd/od renormalization; bypasses series, poly, fleet"
    ),
    "cyclic3": (
        "cyclic-3 fleet of 6 regular paths, d->dd: tiny launches, so launch "
        "overhead, evaluation, Pade and fleet glue dominate"
    ),
    "noon2": (
        "noon-2 fleet of 9 paths, 4 diverging until the 64-step budget: "
        "batch width and wasted steps"
    ),
    "cyclic3_solo": (
        "two cyclic-3 paths tracked one at a time (d only, d->dd): the same "
        "layers without batch.fleet, the solo-regression guard"
    ),
}

#: End-to-end metrics (measured untraced): name -> unit.
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_PROBES = 5
#: A run must end within this many seconds, set-up probes included.
RUN_DEADLINE_S = 170.0

#: The precisions of the dense ladder, and the limb count of each name.
PRECISIONS = ("dd", "qd", "od")
LIMBS = {name: limbs for limbs, name in PRECISION_NAMES.items()}
DENSE_LAYERS = ("core.least_squares", "core.blocked_qr", "core.back_substitution")


def per_layer_units() -> dict:
    """Per-layer metrics (measured traced): name -> unit."""
    units = {"wall_s": "s"}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        if layer in DENSE_LAYERS:
            units[f"{layer}.incl_s"] = "s"
        if layer == "exec":
            units.update({f"exec.self_s.{p}": "s" for p in LIMBS})
            units["exec.us_per_call"] = "us"
    units.update({
        "batch.fleet.sub_batches": "count",
        "batch.fleet.occupancy": "ratio",
        "batch.fleet.step_yield": "ratio",
        "paths.steps": "count",
        "paths.escalations": "count",
        "gpu.launches": "count",
        "gpu.flops": "flop",
        "gpu.bytes_computed": "B",
        "gpu.model_kernel_ms": "ms",
    })
    for p in PRECISIONS:
        units[f"core.least_squares.solve_s.{p}"] = "s"
        units[f"core.least_squares.gflops.{p}"] = "GFLOP/s"
        units[f"core.least_squares.model_over_measured.{p}"] = "ratio"
    for source in ("core.least_squares", "perf.model"):
        units[f"{source}.overhead.qd_over_dd"] = "ratio"
        units[f"{source}.overhead.od_over_qd"] = "ratio"
    units["trace.overhead"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _monotonic() -> float:
    """A clock shared by every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_setup(name, seed):
    import workloads

    workload = workloads.make(name, seed)
    return workload, workload.inputs(0)


def child_setup(args) -> None:
    _child_setup(args.workload, args.seed)
    print(repr(_monotonic()))


def solve_round(workload, inputs, sampler=None):
    """Time each call of one round.

    Returns ``(results, seconds, reference_s, calls)``.  With a
    ``sampler`` the calls are timed on its clock, which leaves out the
    sampling, and ``reference_s`` sums each call's seconds divided by
    the machine's slowdown while it ran; without one it is 0.
    """
    clock = sampler.clock if sampler else time.perf_counter
    results, calls = [], {}
    seconds = reference_s = 0.0
    for key, thunk in workload.calls(inputs):
        with sampler or contextlib.nullcontext():
            start = clock()
            results.append(thunk())
            elapsed = clock() - start
        seconds += elapsed
        calls[str(key)] = elapsed
        if sampler:
            reference_s += elapsed / sampler.slowdown()
    return results, seconds, reference_s, calls


def _traced_round(workload, inputs, tracer):
    with tracer:
        results, seconds, _, _ = solve_round(workload, inputs)
    summary = tracer.layer_summary()
    tracer.clear()
    return results, seconds, summary


def child_measure(args) -> None:
    import numpy as np

    from calibrate import SpeedSampler
    from layers import Tracer
    from repro.exec import get_backend
    from verify import Verdict

    workload, inputs = _child_setup(args.workload, args.seed)
    # traced runs time plain and traced halves on the bare clock
    sampler = None if args.trace else SpeedSampler()
    tracer = Tracer() if args.trace else None
    rounds = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        if rounds:
            inputs = workload.inputs(len(rounds))
        # alternate which half of a traced pair runs first
        traced_first = tracer is not None and len(rounds) % 2 == 1
        if traced_first:
            traced = _traced_round(workload, inputs, tracer)
        results, seconds, reference_s, calls = solve_round(workload, inputs, sampler)
        if tracer is not None and not traced_first:
            traced = _traced_round(workload, inputs, tracer)
        verdicts = workload.check(inputs, results)
        record = {
            "seconds": seconds,
            "reference_s": reference_s,
            "calls": calls,
            "counters": workload.counters(results),
        }
        if not rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            traced_results, record["traced_seconds"], record["layers"] = traced
            same = workload.signature(traced_results) == workload.signature(results)
            verdicts += [
                Verdict(
                    f"traced {v.label}", v.ok and same,
                    v.detail if same else "traced result differs from the untraced one",
                )
                for v in list(verdicts)
            ]
        record["verdicts"] = [vars(v) for v in verdicts]
        rounds.append(record)
        now = time.perf_counter()
        if now - begin + (now - started) > args.seconds:
            break
    print(json.dumps({
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "exec_backend": get_backend().name,
        },
    }))


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_EXEC_BACKEND", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn(mode, args, deadline) -> str:
    """Run one child to completion; its standard output."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return done.stdout.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def end_to_end_metrics(child: dict, setup_samples) -> dict:
    rounds = child["rounds"]
    # the probes ran just before the measuring child: take their time
    # to reference seconds with the slowdown it sampled over its rounds
    slowdown = sum(r["seconds"] for r in rounds) / sum(r["reference_s"] for r in rounds)
    return {
        "wall_ref_s": _median([r["reference_s"] for r in rounds]),
        "setup_s": _median(setup_samples) / slowdown,
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer_metrics(child: dict) -> dict:
    """Per-layer metrics of a traced run, per round (mean over rounds)."""
    rounds = child["rounds"]
    out = dict.fromkeys(per_layer_units(), 0.0)

    def layer_mean(kind, name, field):
        return _mean([r["layers"][kind].get(name, {}).get(field, 0) for r in rounds])

    for key in out:
        layer, _, field = key.rpartition(".")
        if field in ("self_s", "calls", "incl_s"):
            out[key] = layer_mean("layers", layer, field)
    for p in LIMBS:
        out[f"exec.self_s.{p}"] = layer_mean("labels", f"exec.{p}", "self_s")
    if out["exec.calls"]:
        out["exec.us_per_call"] = out["exec.self_s"] / out["exec.calls"] * 1e6
    for key in rounds[0]["counters"]:
        if key in out:
            out[key] = _mean([r["counters"][key] for r in rounds])

    # dense ladder: measured seconds come from the untraced solves
    measured, flops, model_ms = {}, {}, {}
    for p in PRECISIONS:
        limbs = str(LIMBS[p])
        if limbs not in rounds[0]["calls"]:
            continue
        measured[p] = _median([r["calls"][limbs] for r in rounds])
        flops[p] = rounds[0]["counters"][f"flops.{limbs}"]
        model_ms[p] = rounds[0]["counters"][f"model_ms.{limbs}"]
        out[f"core.least_squares.solve_s.{p}"] = measured[p]
        out[f"core.least_squares.gflops.{p}"] = flops[p] / measured[p] / 1e9
        out[f"core.least_squares.model_over_measured.{p}"] = model_ms[p] / (measured[p] * 1e3)
    for high, low in (("qd", "dd"), ("od", "qd")):
        if high in measured and low in measured:
            key = f"overhead.{high}_over_{low}"
            out[f"core.least_squares.{key}"] = (
                measured[high] / flops[high] / (measured[low] / flops[low])
            )
            out[f"perf.model.{key}"] = model_ms[high] / flops[high] / (model_ms[low] / flops[low])

    out["wall_s"] = _median([r["seconds"] for r in rounds])
    out["trace.overhead"] = (
        _median([r["traced_seconds"] for r in rounds]) / out["wall_s"] - 1.0
    )
    out["trace.coverage"] = (
        sum(r["layers"]["root_s"] for r in rounds) / sum(r["traced_seconds"] for r in rounds)
    )
    return out


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_once(args) -> dict:
    """One run of one workload: set-up probes, then the measuring child."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            spawned = _monotonic()
            ready = float(_spawn("setup", args, deadline))
            setup_samples.append(ready - spawned)
    child = json.loads(_spawn("measure", args, deadline))
    metrics = per_layer_metrics(child) if args.trace else end_to_end_metrics(child, setup_samples)
    verdicts = [v for r in child["rounds"] for v in r["verdicts"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "git_sha": _git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            **child["environment"],
        },
        "setup_samples_s": setup_samples,
        "rounds": child["rounds"],
        "verdicts": verdicts,
        "metrics": metrics,
    }


def _print_run(run) -> None:
    env = run["environment"]
    print(
        f"{run['workload']} seed={run['seed']} trace={run['trace']}: "
        f"git {env['git_sha'] or 'unknown'}, python {env['python']}, "
        f"numpy {env['numpy']}, nproc {env['nproc']}, exec backend {env['exec_backend']}"
    )
    for index, record in enumerate(run["rounds"]):
        timing = f"{record['seconds']:.3f} s"
        if record["reference_s"]:
            timing += f" ({record['reference_s']:.3f} reference s)"
        if "traced_seconds" in record:
            timing += f" (traced {record['traced_seconds']:.3f} s)"
        print(f"  round {index}: {timing}")
        for v in record["verdicts"]:
            print(f"    {'ok  ' if v['ok'] else 'FAIL'} {v['label']}: {v['detail']}")


def summarize(runs, units) -> dict:
    """Median, quartiles and sample count of every metric over runs."""
    summary = {}
    for name, unit in units.items():
        values = [run["metrics"][name] for run in runs]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        summary[name] = {
            "value": _median(values), "q1": q1, "q3": q3, "n": len(values), "unit": unit,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        (child_setup if args.child == "setup" else child_measure)(args)
        return 0
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds must be positive and --runs at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    units = per_layer_units() if args.trace else END_TO_END
    names = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    metrics = {}
    for name in names:
        runs = []
        for i in range(args.runs):
            run_args = argparse.Namespace(**{**vars(args), "workload": name, "seed": args.seed + i})
            run = run_once(run_args)
            _print_run(run)
            runs.append(run)
            attempted += len(run["verdicts"])
            failed += sum(not v["ok"] for v in run["verdicts"])
        summary = summarize(runs, units)
        print(f"{name}: median [q1, q3] over {args.runs} run(s)")
        for metric, s in summary.items():
            print(f"  {metric:44s} {s['value']:12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] {s['unit']}")
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({
            prefix + metric: {"value": s["value"], "unit": s["unit"]}
            for metric, s in summary.items()
        })
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"e2e_{name}_seed{args.seed}_trace{args.trace}.json"
            path.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
