"""Wall-clock profiling hooks aligned with the analytic cost model.

The library's drivers record their kernel work in a
:class:`~repro.gpu.kernel.KernelTrace`: the launches of the analytic
cost model (:mod:`repro.perf.costmodel`) for the shapes they run, which
the :class:`~repro.perf.model.PerformanceModel` prices in simulated
milliseconds.  What the trace cannot tell is what a run *actually*
cost on the host.

:func:`profiled` wraps a driver boundary so that — when a recorder is
active — every call records a stage span carrying **both**

* ``measured_ms`` — real wall-clock time of the call, and
* ``predicted_ms`` — the performance model's kernel milliseconds for
  the exact trace the call produced (computed without mutating the
  trace's ``elapsed_ms`` fields),

under the same span name.  :func:`predicted_vs_measured` then folds a
recording into one table row per stage with the two milliseconds
columns side by side — the acceptance oracle for the future real
array backend: once the limb kernels execute on real hardware, the
measured column must track the predicted one (up to the simulated
device's scale factor) stage for stage.
"""

from __future__ import annotations

from functools import wraps

from .events import get_recorder

__all__ = [
    "predicted_kernel_ms",
    "attach_trace",
    "profiled",
    "predicted_vs_measured",
]

#: Performance models are stateless per device; cache one per device name.
_MODELS: dict = {}


def _model_for(device):
    from ..perf.model import PerformanceModel

    name = getattr(device, "name", str(device))
    model = _MODELS.get(name)
    if model is None:
        model = _MODELS[name] = PerformanceModel(device)
    return model


def predicted_kernel_ms(trace, launches=None) -> float:
    """Analytic kernel milliseconds of a trace (or a launch subset).

    Unlike :meth:`PerformanceModel.attribute
    <repro.perf.model.PerformanceModel.attribute>` this does **not**
    write ``elapsed_ms`` into the launches — profiling must observe,
    never mutate, the traces the drivers hand to their callers.
    """
    model = _model_for(trace.device)
    if launches is None:
        launches = trace.launches
    return sum(model.kernel_time_ms(launch) for launch in launches)


def attach_trace(span, trace, *, start: int = 0) -> None:
    """Attach the analytic cost of ``trace.launches[start:]`` to a span.

    ``start`` skips launches that were already in a shared trace before
    the profiled call appended its own (the drivers accept a ``trace=``
    operand they extend in place).  ``trace`` may also be a sequence of
    traces (drivers that keep separate QR and back-substitution traces);
    ``start`` then applies to the first.  ``span`` may be ``None``
    (disabled recording) and ``trace`` may be ``None`` (drivers that
    skip trace recording for degenerate inputs); both are no-ops.
    """
    if span is None or trace is None:
        return
    traces = trace if isinstance(trace, (list, tuple)) else (trace,)
    traces = [item for item in traces if item is not None]
    if not traces:
        return
    predicted = 0.0
    launches = 0
    for index, item in enumerate(traces):
        subset = item.launches[start:] if index == 0 else item.launches
        predicted += predicted_kernel_ms(item, subset)
        launches += len(subset)
    span.set(
        predicted_ms=predicted,
        launches=launches,
        device=traces[0].device.name,
    )


def profiled(name, *, category: str = "stage", trace_of=None):
    """Decorate a driver so every call records a measured+predicted span.

    ``trace_of`` maps the driver's return value to the
    :class:`~repro.gpu.kernel.KernelTrace` it filled (or a sequence of
    traces).  When it is ``None`` — or returns ``None`` — but the
    caller passed a shared trace via a ``trace=`` keyword that the
    driver extended in place, the launches this call appended to that
    shared trace are priced instead; with neither, the span records
    wall-clock only.

    With recording disabled the wrapper is one recorder lookup and one
    ``if`` — the driver's arithmetic is untouched either way, so
    results are bitwise identical with recording on or off.
    """

    def decorate(func):
        @wraps(func)
        def wrapper(*args, **kwargs):
            recorder = get_recorder()
            if not recorder.enabled:
                return func(*args, **kwargs)
            shared = kwargs.get("trace")
            already = len(shared.launches) if shared is not None else 0
            with recorder.span(name, category=category) as span:
                result = func(*args, **kwargs)
                trace = trace_of(result) if trace_of is not None else None
                if trace is None:
                    trace = shared
                start = already if trace is shared else 0
                attach_trace(span, trace, start=start)
                return result

        return wrapper

    return decorate


def predicted_vs_measured(source) -> list:
    """One row per profiled span name: measured vs analytic milliseconds.

    ``source`` is a :class:`~repro.obs.events.Recorder` (or the
    document returned by :func:`repro.obs.export.read_jsonl`) — any
    object with a ``records`` sequence.  Only stage spans that carry
    both a ``measured_ms`` and a ``predicted_ms`` contribute; rows are
    sorted by total measured time, heaviest first, and carry the
    measured/predicted ratio (the array-backend acceptance oracle reads
    this column: a simulated-device prediction is not expected to equal
    host wall-clock, but the *shape* across stages must match).
    """
    rows: dict = {}
    for record in source.records:
        if record.kind != "span" or record.category != "stage":
            continue
        predicted = record.fields.get("predicted_ms")
        if predicted is None or record.measured_ms is None:
            continue
        row = rows.setdefault(
            record.name,
            {
                "span": record.name,
                "calls": 0,
                "measured_ms": 0.0,
                "predicted_ms": 0.0,
                "launches": 0,
            },
        )
        row["calls"] += 1
        row["measured_ms"] += record.measured_ms
        row["predicted_ms"] += float(predicted)
        row["launches"] += int(record.fields.get("launches", 0))
    out = sorted(rows.values(), key=lambda row: -row["measured_ms"])
    for row in out:
        row["ratio"] = (
            row["measured_ms"] / row["predicted_ms"]
            if row["predicted_ms"] > 0.0
            else float("inf")
        )
    return out
