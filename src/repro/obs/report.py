"""Human-readable run reports over recorded telemetry.

Renders a :class:`~repro.obs.events.Recorder` (or a
:class:`~repro.obs.export.RecordingDocument` read back from JSONL)
through the same aligned-text table formatters the paper-table
experiments use (:func:`repro.perf.report.format_table`):

* :func:`path_timeline` — the per-path story: every accepted step with
  its ``t``, step size, precision rung, truncation/noise estimates and
  cost, interleaved with the rejected attempts and their escalation
  reasons (the residual trajectory and precision ladder at a glance);
* :func:`fleet_rounds` — the lock-step rounds of a fleet run: one row
  per precision sub-batch with its member paths, plus retirements and
  failures;
* :func:`top_stages` — the top-k profiled stages by measured
  wall-clock time;
* :func:`predicted_vs_measured_table` — the
  :func:`repro.obs.profile.predicted_vs_measured` comparison as a
  table (measured host milliseconds next to the analytic kernel
  milliseconds, span for span);
* :func:`render_run_report` — all of the above plus the counter and
  histogram summary, the "what did this run actually do" artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf.report import format_table
from .export import metrics_summary
from .profile import predicted_vs_measured

__all__ = [
    "path_timeline",
    "fleet_rounds",
    "top_stages",
    "predicted_vs_measured_table",
    "render_run_report",
]


@dataclass
class _Table:
    """The minimal result shape :func:`repro.perf.report.format_table`
    renders (descriptions + row dictionaries)."""

    description: str
    rows: list = field(default_factory=list)
    notes: str = ""
    experiment: str = "obs"


def _timeline_rows(source, path=None) -> list:
    rows = []
    for record in source.records:
        if record.name == "step":
            outcome = "accepted"
        elif record.name == "step_rejected":
            outcome = "rejected"
        else:
            continue
        fields = record.fields
        if path is not None and fields.get("path") not in (None, path):
            continue
        rows.append(
            {
                "path": fields.get("path"),
                "t": fields.get("t"),
                "step": fields.get("step"),
                "precision": fields.get("precision"),
                "outcome": outcome,
                "reason": fields.get("reason", ""),
                "truncation": fields.get("truncation_error"),
                "noise": fields.get("precision_noise"),
                "pole_radius": fields.get("pole_radius"),
                "model_ms": fields.get("model_ms"),
                "measured_ms": record.measured_ms,
            }
        )
    return rows


def path_timeline(source, path=None) -> str:
    """The step-by-step timeline of one path (or of every path).

    ``path`` filters on the ``path`` index field every step record
    carries (a single-path run is a fleet of one: ``path = 0``).
    """
    rows = _timeline_rows(source, path)
    scope = "all paths" if path is None else f"path {path}"
    table = _Table(
        description=f"Path timeline ({scope}): accepted steps and rejected attempts",
        rows=rows,
        notes="rejected rows are expansion attempts discarded for a precision "
        "escalation; truncation/noise are the two error estimates against "
        "the split tolerance budget",
    )
    return format_table(table)


def fleet_rounds(source) -> str:
    """The lock-step round/regrouping history of a fleet run."""
    rows = []
    for record in source.records:
        if record.name == "sub_batch":
            fields = record.fields
            paths = fields.get("paths", [])
            rows.append(
                {
                    "round": fields.get("round"),
                    "precision": fields.get("precision"),
                    "batch": len(paths),
                    "paths": ",".join(str(p) for p in paths),
                    "event": "advance",
                }
            )
        elif record.name in ("path_retired", "path_failed"):
            fields = record.fields
            rows.append(
                {
                    "round": fields.get("round"),
                    "precision": fields.get("precision"),
                    "batch": None,
                    "paths": str(fields.get("path")),
                    "event": "retired" if record.name == "path_retired" else "FAILED",
                }
            )
    table = _Table(
        description="Fleet rounds: per-precision sub-batches and retirements",
        rows=rows,
        notes="each advance row is one lock-step batched step attempt for the "
        "listed paths at the listed precision rung",
    )
    return format_table(table)


def top_stages(source, k: int = 10) -> str:
    """The ``k`` profiled stages that cost the most measured time."""
    totals: dict = {}
    for record in source.records:
        if record.kind != "span" or record.category != "stage":
            continue
        if record.measured_ms is None:
            continue
        row = totals.setdefault(
            record.name,
            {"stage": record.name, "calls": 0, "measured_ms": 0.0, "predicted_ms": None},
        )
        row["calls"] += 1
        row["measured_ms"] += record.measured_ms
        predicted = record.fields.get("predicted_ms")
        if predicted is not None:
            row["predicted_ms"] = (row["predicted_ms"] or 0.0) + float(predicted)
    rows = sorted(totals.values(), key=lambda row: -row["measured_ms"])[:k]
    table = _Table(
        description=f"Top {min(k, len(rows))} stages by measured wall-clock time",
        rows=rows,
    )
    return format_table(table)


def predicted_vs_measured_table(source) -> str:
    """Measured wall-clock vs analytic kernel milliseconds per stage."""
    table = _Table(
        description="Predicted (cost model) vs measured (wall clock) per stage",
        rows=predicted_vs_measured(source),
        notes="predicted_ms prices the exact launches each call recorded on "
        "the simulated device; the ratio column is the acceptance oracle "
        "for real execution backends (shape must match across stages)",
    )
    return format_table(table)


def _metrics_section(source) -> str:
    summary = metrics_summary(source)
    counter_rows = [
        {"counter": name, "value": value}
        for name, value in sorted(summary["counters"].items())
    ]
    histogram_rows = [
        {"histogram": name, **stats}
        for name, stats in sorted(summary["histograms"].items())
    ]
    blocks = [
        f"Records: {summary['records']} "
        f"({summary['spans']} spans, {summary['events']} events)"
    ]
    if counter_rows:
        blocks.append(format_table(_Table("Counters", counter_rows)))
    if histogram_rows:
        blocks.append(
            format_table(
                _Table(
                    "Duration histograms (ms)",
                    histogram_rows,
                    notes="percentiles are nearest-rank over the raw span durations",
                )
            )
        )
    return "\n\n".join(blocks)


def render_run_report(source, top_k: int = 10) -> str:
    """The full run report: timeline, fleet rounds, stage costs, metrics."""
    label = getattr(source, "label", "")
    sections = [f"== Run report{f' — {label}' if label else ''} =="]
    sections.append(_metrics_section(source))
    timeline = _timeline_rows(source)
    if timeline:
        sections.append(path_timeline(source))
    if any(record.name == "sub_batch" for record in source.records):
        sections.append(fleet_rounds(source))
    if predicted_vs_measured(source):
        sections.append(predicted_vs_measured_table(source))
        sections.append(top_stages(source, top_k))
    return "\n\n".join(sections)
