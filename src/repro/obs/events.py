"""Structured run telemetry: typed span/event records, counters, histograms.

The observability layer the whole tracking stack reports through.  A
:class:`Recorder` collects

* **spans** — wall-clock-measured sections arranged in the hierarchy
  ``run > path > step > stage`` (a fleet run contains paths, a path
  contains steps, a step contains solver stages like the Jacobian QR
  or a batched Padé construction).  Nesting is tracked through a
  :mod:`contextvars` variable, so concurrent threads (or asyncio
  tasks) build independent, correctly-parented span chains into the
  same recorder;
* **events** — point-in-time facts (a precision escalation with its
  reason, a rejected step, a sub-batch regrouping, a path failure);
* **counters** and **duration histograms** — aggregates for the
  :func:`repro.obs.export.metrics_summary` p50/p90/p99 pipeline.
  Every closed span feeds the histogram of its name automatically;
* **gauges** — last-value measurements (the fleet scheduler's
  occupancy, a queue depth): :meth:`Recorder.gauge` overwrites the
  named value, so the export carries the state at the end of the run.

Recording is **off by default**: :func:`get_recorder` returns a shared
:class:`NullRecorder` whose every method is a no-op (entering a null
span is two constant-time calls — the instrumented drivers pay roughly
one ``if`` when telemetry is disabled, and the arithmetic they perform
is never touched, so results are bitwise identical either way).  Turn
it on for a scope with :func:`recording`, or process-wide with
:func:`set_default_recorder`.

Records are plain data: JSON-ready field dictionaries (tuples become
lists, numpy scalars become Python numbers at record time), so a
recording round-trips losslessly through the JSONL writer/reader of
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from .log import logger as _logger

__all__ = [
    "SCHEMA_VERSION",
    "CATEGORIES",
    "Record",
    "SpanHandle",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_default_recorder",
    "recording",
]

#: Version stamped into every exported JSONL document; bump on any
#: backwards-incompatible change to the record layout.
SCHEMA_VERSION = 1

#: The span hierarchy, outermost first.
CATEGORIES = ("run", "path", "step", "stage")

#: Identifier of the span currently open in this thread/task (record
#: ids are recorder-scoped); the parent of the next record.
_CURRENT_SPAN: ContextVar = ContextVar("repro_obs_current_span", default=None)

#: Recorder installed for the current context by :func:`recording`.
_ACTIVE: ContextVar = ContextVar("repro_obs_recorder", default=None)


def _sanitize(value):
    """Coerce one field value to a JSON-ready type.

    Applied at record time so that exported records compare equal to
    in-memory records after a JSONL round-trip (tuples would otherwise
    come back as lists, numpy scalars are not serializable at all).
    """
    if value is None or type(value) in (bool, int, float, str):
        # exact builtin types only: numpy's float64 *subclasses* float
        # and would otherwise slip through unchanged
        return value
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_sanitize(item) for item in value]
    if hasattr(value, "item"):  # numpy scalars
        try:
            return _sanitize(value.item())
        except (TypeError, ValueError):  # pragma: no cover - defensive
            pass
    return str(value)


def _sanitize_fields(fields: dict) -> dict:
    return {str(key): _sanitize(value) for key, value in fields.items()}


@dataclass
class Record:
    """One telemetry record — a closed span or a point event."""

    #: ``"span"`` or ``"event"``
    kind: str
    #: what happened (``"step"``, ``"blocked_qr"``, ``"escalation"``...)
    name: str
    #: hierarchy level, one of :data:`CATEGORIES` (or ``""`` for
    #: uncategorized events)
    category: str
    #: recorder-scoped id, in record-creation (span *open*) order
    record_id: int
    #: id of the enclosing span (``None`` at the top level)
    parent_id: int | None = None
    #: wall-clock duration (spans only; ``None`` for events and for
    #: spans still open)
    measured_ms: float | None = None
    #: JSON-ready payload (t, step size, precision, residuals, ...)
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "category": self.category,
            "record_id": self.record_id,
            "parent_id": self.parent_id,
            "measured_ms": self.measured_ms,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Record":
        return cls(
            kind=data["kind"],
            name=data["name"],
            category=data.get("category", ""),
            record_id=data["record_id"],
            parent_id=data.get("parent_id"),
            measured_ms=data.get("measured_ms"),
            fields=data.get("fields", {}),
        )


class SpanHandle:
    """Mutable view of an open (or just-closed) span.

    Yielded by :meth:`Recorder.span`; instrumentation uses
    :meth:`set` to attach fields that only become known while — or
    right after — the span runs (the accepted step size, the analytic
    kernel cost of the trace the wrapped driver produced, ...).
    Setting fields after the ``with`` block closes is allowed: the
    record object is shared with the recorder, only ``measured_ms`` is
    frozen at close.
    """

    __slots__ = ("record",)

    def __init__(self, record: Record):
        self.record = record

    def __bool__(self) -> bool:
        return True

    def set(self, **fields) -> "SpanHandle":
        self.record.fields.update(_sanitize_fields(fields))
        return self


class Recorder:
    """Collects spans, events, counters and duration histograms.

    Thread-safe: records are appended under a lock, and the
    parent-span chain lives in a :mod:`contextvars` variable so each
    thread/task nests independently.
    """

    enabled = True

    def __init__(self, label: str = ""):
        self.label = label
        self.records: list = []
        self.counters: dict = {}
        self.histograms: dict = {}
        self.gauges: dict = {}
        self._lock = threading.Lock()
        self._next_id = 0

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.records)

    # -- recording ---------------------------------------------------------
    def _new_record(self, kind, name, category, fields) -> Record:
        with self._lock:
            record_id = self._next_id
            self._next_id += 1
            record = Record(
                kind=kind,
                name=str(name),
                category=str(category),
                record_id=record_id,
                parent_id=_CURRENT_SPAN.get(),
                fields=_sanitize_fields(fields),
            )
            self.records.append(record)
        return record

    def event(self, name, category: str = "", **fields) -> Record:
        """Record a point event under the currently open span."""
        record = self._new_record("event", name, category, fields)
        if _logger.isEnabledFor(logging.DEBUG):
            _logger.debug("event %s %s", record.name, record.fields)
        return record

    @contextmanager
    def span(self, name, category: str = "stage", **fields):
        """Open a wall-clock-measured span; yields a :class:`SpanHandle`.

        The record is created (and parented) at entry, its
        ``measured_ms`` is stamped at exit, and the duration feeds the
        histogram of the span's name.
        """
        record = self._new_record("span", name, category, fields)
        token = _CURRENT_SPAN.set(record.record_id)
        start = time.perf_counter()
        try:
            yield SpanHandle(record)
        finally:
            record.measured_ms = (time.perf_counter() - start) * 1e3
            _CURRENT_SPAN.reset(token)
            self.observe(record.name, record.measured_ms)
            if _logger.isEnabledFor(logging.DEBUG):
                _logger.debug(
                    "span %s %.3f ms %s", record.name, record.measured_ms, record.fields
                )

    def count(self, name, value=1) -> None:
        """Increment a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name, value) -> None:
        """Append one observation (milliseconds, by convention) to a
        named duration histogram."""
        value = float(value)
        with self._lock:
            self.histograms.setdefault(name, []).append(value)

    def gauge(self, name, value) -> None:
        """Set a named last-value gauge (each call overwrites)."""
        value = float(value)
        with self._lock:
            self.gauges[name] = value

    def clear(self) -> None:
        with self._lock:
            self.records.clear()
            self.counters.clear()
            self.histograms.clear()
            self.gauges.clear()
            self._next_id = 0

    # -- queries -----------------------------------------------------------
    def spans(self, name=None, category=None) -> list:
        """Span records, optionally filtered by name and/or category."""
        return [
            record
            for record in self.records
            if record.kind == "span"
            and (name is None or record.name == name)
            and (category is None or record.category == category)
        ]

    def events(self, name=None, category=None) -> list:
        """Event records, optionally filtered by name and/or category."""
        return [
            record
            for record in self.records
            if record.kind == "event"
            and (name is None or record.name == name)
            and (category is None or record.category == category)
        ]

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"Recorder({self.label or 'unnamed'}, records={len(self.records)}, "
            f"counters={len(self.counters)}, histograms={len(self.histograms)})"
        )


class _NullSpan:
    """The no-op span: entering yields ``None`` so instrumentation can
    guard optional field attachment with ``if span:``."""

    __slots__ = ()

    def __enter__(self):
        return

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every method is a constant-time no-op.

    Shared process-wide as :data:`NULL_RECORDER`; instrumented code
    never needs to branch — ``with get_recorder().span(...)`` costs two
    trivial calls when recording is off — but may use the falsy
    ``__bool__`` to skip building expensive field payloads.
    """

    enabled = False
    label = ""
    records: tuple = ()
    counters: dict = {}
    histograms: dict = {}
    gauges: dict = {}

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def span(self, name, category: str = "stage", **fields) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name, category: str = "", **fields) -> None:
        return

    def count(self, name, value=1) -> None:
        return

    def observe(self, name, value) -> None:
        return

    def gauge(self, name, value) -> None:
        return

    def clear(self) -> None:
        return

    def spans(self, name=None, category=None) -> list:
        return []

    def events(self, name=None, category=None) -> list:
        return []

    def __repr__(self):  # pragma: no cover - cosmetic
        return "NullRecorder()"


#: The shared disabled recorder (the off-by-default fast path).
NULL_RECORDER = NullRecorder()

#: Process-wide default, used whenever no :func:`recording` scope is
#: active in the current context.
_default_recorder = NULL_RECORDER


def get_recorder():
    """The active recorder: the innermost :func:`recording` scope of
    this context, else the process-wide default, else the shared
    :class:`NullRecorder`."""
    active = _ACTIVE.get()
    return _default_recorder if active is None else active


def set_default_recorder(recorder=None):
    """Install (or with ``None`` clear) the process-wide default
    recorder; returns the previous default so callers can restore it."""
    global _default_recorder
    previous = _default_recorder
    _default_recorder = NULL_RECORDER if recorder is None else recorder
    return previous


@contextmanager
def recording(recorder=None, label: str = ""):
    """Enable telemetry for a scope.

    ::

        with recording() as rec:
            fleet = homotopy.track_fleet(...)
        print(render_run_report(rec))

    A fresh :class:`Recorder` is created unless one is passed in.  The
    scope is context-local (:mod:`contextvars`), so concurrent tasks
    can record into separate recorders.
    """
    rec = Recorder(label=label) if recorder is None else recorder
    token = _ACTIVE.set(rec)
    try:
        yield rec
    finally:
        _ACTIVE.reset(token)
