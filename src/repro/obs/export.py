"""JSONL export/import of recordings and the metrics aggregator.

One recording becomes one JSONL document:

* line 1 — a **header** (``schema`` version, recorder label, record
  count);
* one line per :class:`~repro.obs.events.Record`, in record-creation
  order;
* a final **metrics** line holding the counters, the raw duration
  histograms and the last-value gauges (recordings written before
  gauges existed read back with an empty gauge table — the reader is
  null-tolerant on the key).

:func:`read_jsonl` reconstructs the document; because field payloads
are sanitized to JSON-ready types at record time
(:mod:`repro.obs.events`), ``read_jsonl(write_jsonl(rec, path)).records
== rec.records`` holds exactly — the round-trip contract the test
suite pins.

:func:`metrics_summary` reduces a recorder (or a read-back document)
to counts, totals and p50/p90/p99 percentiles per histogram — the
machine-readable shape that :func:`repro.obs.report.render_run_report`
renders and ``benchmarks/harness.py`` embeds into ``BENCH_*.json``
entries via its ``telemetry=`` attachment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .events import SCHEMA_VERSION, Record

__all__ = [
    "RecordingDocument",
    "write_jsonl",
    "read_jsonl",
    "percentile",
    "histogram_summary",
    "metrics_summary",
]


@dataclass
class RecordingDocument:
    """A recording read back from JSONL — the query surface of
    :class:`~repro.obs.events.Recorder` over immutable data."""

    schema: int = SCHEMA_VERSION
    label: str = ""
    records: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)

    def spans(self, name=None, category=None) -> list:
        return [
            record
            for record in self.records
            if record.kind == "span"
            and (name is None or record.name == name)
            and (category is None or record.category == category)
        ]

    def events(self, name=None, category=None) -> list:
        return [
            record
            for record in self.records
            if record.kind == "event"
            and (name is None or record.name == name)
            and (category is None or record.category == category)
        ]


def write_jsonl(recorder, path) -> Path:
    """Write one recording as a schema-versioned JSONL file.

    ``recorder`` is a live :class:`~repro.obs.events.Recorder` or a
    :class:`RecordingDocument`; ``path`` is created (parents included)
    and overwritten.  Returns the path written.
    """
    path = Path(path)
    header = {
        "kind": "header",
        "schema": getattr(recorder, "schema", SCHEMA_VERSION),
        "label": recorder.label,
        "records": len(recorder.records),
    }
    metrics = {
        "kind": "metrics",
        "counters": dict(recorder.counters),
        "histograms": {name: list(values) for name, values in recorder.histograms.items()},
        "gauges": dict(getattr(recorder, "gauges", {}) or {}),
    }
    lines = [json.dumps(header)]
    lines.extend(json.dumps(record.to_dict()) for record in recorder.records)
    lines.append(json.dumps(metrics))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_jsonl(path) -> RecordingDocument:
    """Read a JSONL recording back into a :class:`RecordingDocument`.

    Unknown line kinds are skipped (forward compatibility within a
    schema version); a missing header or a newer schema version is an
    error — the reader would silently misinterpret the records.
    """
    path = Path(path)
    document = RecordingDocument()
    saw_header = False
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        kind = data.get("kind")
        if not saw_header and kind != "header":
            break  # reported below: the header must lead the file
        if kind == "header":
            saw_header = True
            document.schema = int(data.get("schema", SCHEMA_VERSION))
            document.label = data.get("label", "")
            if document.schema > SCHEMA_VERSION:
                raise ValueError(
                    f"recording {path} has schema {document.schema}, newer than "
                    f"this reader ({SCHEMA_VERSION})"
                )
        elif kind == "metrics":
            document.counters = data.get("counters", {})
            document.histograms = data.get("histograms", {})
            # recordings written before gauges existed lack the key
            document.gauges = data.get("gauges") or {}
        elif kind in ("span", "event"):
            document.records.append(Record.from_dict(data))
    if not saw_header:
        raise ValueError(f"{path} is not a telemetry recording (no header line)")
    return document


def percentile(values, q):
    """Nearest-rank percentile: the smallest observation covering at
    least ``q`` percent of the sample (so ``p50`` of ``[1, 2, 3, 4]``
    is ``2``, ``p99`` the maximum).  Deterministic and hand-computable
    — the definition the test suite checks digit for digit.

    An empty sample returns ``None`` (there is no observation to
    report): a histogram read back from a JSONL document may hold no
    observations, and summarizing it must say so rather than raise.  A
    ``q`` outside ``(0, 100]`` is still a programming error and raises.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"the percentile must lie in (0, 100], got {q}")
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def histogram_summary(values) -> dict:
    """Count, total, mean, min/max and nearest-rank p50/p90/p99 of one
    histogram's raw observations.

    Empty input is well-defined, not an error: ``count`` 0, ``total_ms``
    0.0 and ``None`` for every statistic that needs at least one
    observation, so :func:`metrics_summary` of any document succeeds.
    A single observation reports itself as every statistic.
    """
    values = list(values)
    total = float(sum(values))
    if not values:
        return {
            "count": 0,
            "total_ms": 0.0,
            "mean_ms": None,
            "min_ms": None,
            "max_ms": None,
            "p50_ms": None,
            "p90_ms": None,
            "p99_ms": None,
        }
    return {
        "count": len(values),
        "total_ms": total,
        "mean_ms": total / len(values),
        "min_ms": min(values),
        "max_ms": max(values),
        "p50_ms": percentile(values, 50),
        "p90_ms": percentile(values, 90),
        "p99_ms": percentile(values, 99),
    }


def metrics_summary(source) -> dict:
    """Machine-readable aggregate of a recording.

    ``source`` is a :class:`~repro.obs.events.Recorder` or a
    :class:`RecordingDocument`.  Returns ``{"schema", "records",
    "spans", "events", "counters", "histograms", "gauges"}`` where
    every histogram is reduced through :func:`histogram_summary` —
    JSON-ready for ``BENCH_*.json`` embedding and CI artifacts.
    """
    records = list(source.records)
    return {
        "schema": getattr(source, "schema", SCHEMA_VERSION),
        "records": len(records),
        "spans": sum(1 for record in records if record.kind == "span"),
        "events": sum(1 for record in records if record.kind == "event"),
        "counters": dict(source.counters),
        "histograms": {
            name: histogram_summary(values)
            for name, values in source.histograms.items()
        },
        "gauges": dict(getattr(source, "gauges", {}) or {}),
    }
