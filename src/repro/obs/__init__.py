"""repro.obs — structured run telemetry for the tracking stack.

Zero-dependency, **off by default** observability: typed span/event
records in the ``run > path > step > stage`` hierarchy, counters and
duration histograms (:mod:`repro.obs.events`); wall-clock profiling
hooks that pair every measured stage with its analytic
:class:`~repro.gpu.kernel.KernelTrace` cost
(:mod:`repro.obs.profile`); schema-versioned JSONL export with a
lossless round-trip and a p50/p90/p99 metrics aggregator
(:mod:`repro.obs.export`); human-readable run reports on the shared
table formatters (:mod:`repro.obs.report`); and the
``repro``-namespaced logging integration (:mod:`repro.obs.log`).

Quickstart::

    from repro.obs import recording, render_run_report, write_jsonl

    with recording() as rec:
        fleet = homotopy.track_fleet(tol=1e-6)
    print(render_run_report(rec))
    write_jsonl(rec, "run.jsonl")

With no active recorder every instrumentation point is a constant-time
no-op and tracked results are bitwise identical to recording enabled —
telemetry observes, it never participates.

The report renderers are lazily exported (PEP 562): they sit on top of
the :mod:`repro.perf` table formatters, and loading those eagerly from
here would cycle with the instrumented drivers (``repro.core`` imports
:mod:`repro.obs.profile`, :mod:`repro.perf` imports ``repro.core``).
"""

from __future__ import annotations

from .events import (  # noqa: F401
    CATEGORIES,
    NULL_RECORDER,
    SCHEMA_VERSION,
    NullRecorder,
    Record,
    Recorder,
    get_recorder,
    recording,
    set_default_recorder,
)
from .export import (  # noqa: F401
    RecordingDocument,
    histogram_summary,
    metrics_summary,
    percentile,
    read_jsonl,
    write_jsonl,
)
from .log import configure_logging, get_logger  # noqa: F401
from .profile import (  # noqa: F401
    attach_trace,
    predicted_kernel_ms,
    predicted_vs_measured,
    profiled,
)

#: Report renderers, resolved on first access (see the module
#: docstring).
_REPORT_EXPORTS = (
    "path_timeline",
    "fleet_rounds",
    "top_stages",
    "predicted_vs_measured_table",
    "render_run_report",
)

__all__ = [
    "SCHEMA_VERSION",
    "CATEGORIES",
    "Record",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_default_recorder",
    "recording",
    "RecordingDocument",
    "write_jsonl",
    "read_jsonl",
    "percentile",
    "histogram_summary",
    "metrics_summary",
    "predicted_kernel_ms",
    "attach_trace",
    "profiled",
    "predicted_vs_measured",
    "configure_logging",
    "get_logger",
    *_REPORT_EXPORTS,
]


def __getattr__(name):
    if name in _REPORT_EXPORTS:
        from . import report

        value = getattr(report, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
