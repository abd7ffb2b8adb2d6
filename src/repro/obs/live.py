"""Live fleet monitoring: streaming telemetry for in-flight runs.

The recorder (:mod:`repro.obs.events`) answers "what happened" after a
run closes; this module answers "what is happening" *while* a fleet
tracks.  A :class:`LiveMonitor` subscribes to a
:class:`~repro.obs.events.Recorder` (every point event and every
closed span is pushed to it as it is recorded) and maintains:

* **per-path progress** — ``t`` reached, precision rung, accepted and
  rejected step counts, escalations, status
  (active/retired/failed/reached) — updated from the tracker's
  ``step``/``step_rejected``/``escalation``/``path_retired``/
  ``path_failed`` records;
* **an analytic ETA** — the cost model prices every accepted step
  (the ``model_ms`` the trackers attribute from
  :func:`repro.perf.costmodel.path_step_trace`), so the monitor
  extrapolates: remaining ``t`` distance at the path's mean accepted
  step size times its mean per-step kernel cost, summed over the
  active paths;
* **incremental JSONL flushes** — records observed since the last
  flush plus a progress snapshot are appended to the monitor's file
  whenever :attr:`flush_interval` wall-clock seconds have passed
  (checked opportunistically on every observed record, and by
  :meth:`poll` / the optional background heartbeat thread).  Flushes
  log at DEBUG (:mod:`repro.obs.log`);
* **heartbeat / stall events** — :meth:`poll` raises a ``stall`` when
  no path has made progress (accepted a step, retired, or failed) for
  :attr:`stall_window` wall-clock seconds while paths are still
  active.  Stalls log at WARNING — a silent fleet is exactly the
  situation in which nobody is watching a report.

The monitor rides the same **observe-only contract** as the rest of
:mod:`repro.obs`: it only ever *reads* the records it is handed, so
tracking with a monitor attached is bitwise identical to tracking
without one (pinned end to end by the test suite).  The trackers
(:func:`repro.series.tracker.track_path`,
:func:`repro.batch.fleet.track_paths`, and the
:meth:`Homotopy.track <repro.poly.homotopy.Homotopy.track>` /
:meth:`track_fleet <repro.poly.homotopy.Homotopy.track_fleet>` drivers
that forward to them) accept a ``monitor=`` keyword: the monitor is
attached to the active recorder for the duration of the call — and
when recording is off, to the monitor's own private recorder — so
``track_fleet(monitor=LiveMonitor("run.jsonl"))`` just works.

Wall-clock decisions (flush due, stall) read an injectable ``clock``
(defaults to :func:`time.monotonic`), so the tests drive them
deterministically; timestamps never influence the tracked results.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .events import Recorder, get_recorder, recording
from .log import get_logger

__all__ = [
    "LIVE_SCHEMA_VERSION",
    "PathProgress",
    "LiveMonitor",
    "attach_monitor",
    "read_live_jsonl",
]

_log = get_logger(__name__)

#: Version stamped into the header of every live JSONL stream.
LIVE_SCHEMA_VERSION = 1

@dataclass
class PathProgress:
    """The monitor's view of one path."""

    path: object
    t: float = 0.0
    precision: str = ""
    accepted: int = 0
    rejected: int = 0
    escalations: int = 0
    #: analytic kernel milliseconds attributed to the accepted steps
    model_ms: float = 0.0
    #: sum of accepted step sizes (mean step = step_total / accepted)
    step_total: float = 0.0
    #: ``active`` | ``retired`` | ``failed``
    status: str = "active"
    reached: bool = False

    @property
    def active(self) -> bool:
        return self.status == "active"

    def eta_model_ms(self, t_end: float) -> float | None:
        """Analytic kernel milliseconds still ahead of this path:
        remaining distance over the mean accepted step size, times the
        mean per-step cost.  ``None`` before the first accepted step
        (there is nothing to extrapolate from)."""
        if not self.active:
            return 0.0
        if self.accepted == 0 or self.step_total <= 0.0:
            return None
        remaining = max(0.0, t_end - self.t)
        mean_step = self.step_total / self.accepted
        mean_cost = self.model_ms / self.accepted
        return (remaining / mean_step) * mean_cost

    def snapshot(self) -> dict:
        return {
            "path": self.path,
            "t": self.t,
            "precision": self.precision,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "escalations": self.escalations,
            "model_ms": self.model_ms,
            "status": self.status,
            "reached": self.reached,
        }


class LiveMonitor:
    """Streams the progress of an in-flight run (see the module
    docstring).

    Parameters
    ----------
    path:
        Incremental JSONL destination; ``None`` keeps the monitor
        in-memory only (progress/ETA/stall detection still work, flush
        only snapshots).
    t_end:
        The tracking target the ETA extrapolates toward.
    flush_interval:
        Wall-clock seconds between incremental flushes.
    stall_window:
        Wall-clock seconds of no path progress before a stall is
        raised.
    clock:
        Monotonic-seconds callable, injectable for tests.
    """

    def __init__(
        self,
        path=None,
        *,
        t_end: float = 1.0,
        flush_interval: float = 2.0,
        stall_window: float = 60.0,
        clock=time.monotonic,
    ):
        if flush_interval <= 0.0:
            raise ValueError(f"flush_interval must be positive, got {flush_interval}")
        if stall_window <= 0.0:
            raise ValueError(f"stall_window must be positive, got {stall_window}")
        self.path = Path(path) if path is not None else None
        self.t_end = float(t_end)
        self.flush_interval = float(flush_interval)
        self.stall_window = float(stall_window)
        self.label = ""
        self.paths: dict = {}
        #: monitor-origin events (heartbeats, stalls), in order
        self.events: list = []
        self.stalls = 0
        self.flushes = 0
        self.sub_batches = 0
        self._clock = clock
        self._lock = threading.RLock()
        self._pending: list = []
        self._started = clock()
        self._last_progress = self._started
        self._last_stall = self._started
        self._last_flush = self._started
        self._seq = 0
        self._header_written = False
        self._recorder = None
        self._owned_recorder = None
        self._thread = None
        self._stop = threading.Event()

    # -- attachment --------------------------------------------------------
    @property
    def recorder(self) -> Recorder:
        """The monitor's private recorder — what the trackers record
        into when ``monitor=`` is passed while recording is off."""
        if self._owned_recorder is None:
            self._owned_recorder = Recorder(label="live-monitor")
        return self._owned_recorder

    def attach(self, recorder) -> None:
        """Subscribe to a recorder (replacing any previous attachment)."""
        self.detach()
        recorder.subscribe(self.observe)
        self._recorder = recorder
        self.label = getattr(recorder, "label", "") or self.label

    def detach(self) -> None:
        """Unsubscribe from the currently attached recorder."""
        if self._recorder is not None:
            self._recorder.unsubscribe(self.observe)
            self._recorder = None

    @contextmanager
    def watch(self, recorder):
        """Attach for a scope; a final flush closes the stream on exit."""
        self.attach(recorder)
        try:
            yield self
        finally:
            self.detach()
            self.flush()

    # -- the sink ----------------------------------------------------------
    def observe(self, record) -> None:
        """The subscription sink: fold one record into the progress
        view.  Reads only — the record objects stay untouched."""
        with self._lock:
            self._pending.append(record)
            name = record.name
            fields = record.fields
            if name == "step":
                self._on_step(fields)
            elif name == "step_rejected":
                self._progress_for(fields).rejected += 1
            elif name == "escalation":
                progress = self._progress_for(fields)
                progress.escalations += 1
                progress.precision = fields.get("to_precision", progress.precision)
            elif name == "path_retired":
                self._on_retired(fields)
            elif name == "path_failed":
                self._on_failed(fields)
            elif name == "sub_batch":
                self.sub_batches += 1
            now = self._clock()
            if self._flush_due(now):
                self._flush_locked(now)

    def _progress_for(self, fields) -> PathProgress:
        key = fields.get("path")
        progress = self.paths.get(key)
        if progress is None:
            progress = self.paths[key] = PathProgress(path=key)
        return progress

    def _on_step(self, fields) -> None:
        progress = self._progress_for(fields)
        progress.accepted += 1
        step = fields.get("step")
        t = fields.get("t")
        if step is not None:
            progress.step_total += float(step)
            if t is not None:
                progress.t = float(t) + float(step)
        progress.precision = fields.get("precision", progress.precision)
        model_ms = fields.get("model_ms")
        if model_ms is not None:
            progress.model_ms += float(model_ms)
        self._last_progress = self._clock()

    def _on_retired(self, fields) -> None:
        progress = self._progress_for(fields)
        progress.status = "retired"
        progress.reached = bool(fields.get("reached"))
        if fields.get("t") is not None:
            progress.t = float(fields["t"])
        self._last_progress = self._clock()

    def _on_failed(self, fields) -> None:
        progress = self._progress_for(fields)
        progress.status = "failed"
        if fields.get("t") is not None:
            progress.t = float(fields["t"])
        self._last_progress = self._clock()

    # -- progress / ETA ----------------------------------------------------
    def active_count(self) -> int:
        return sum(1 for progress in self.paths.values() if progress.active)

    def eta_model_ms(self) -> float | None:
        """Fleet ETA in analytic kernel milliseconds: the sum of the
        per-path extrapolations (``None`` until some active path has an
        accepted step to extrapolate from)."""
        etas = [
            progress.eta_model_ms(self.t_end)
            for progress in self.paths.values()
            if progress.active
        ]
        known = [eta for eta in etas if eta is not None]
        if not known:
            return None
        return sum(known)

    def progress(self) -> dict:
        """A JSON-ready snapshot of the whole fleet."""
        with self._lock:
            paths = [
                progress.snapshot()
                for _, progress in sorted(
                    self.paths.items(), key=lambda item: str(item[0])
                )
            ]
            ts = [progress.t for progress in self.paths.values()]
            return {
                "label": self.label,
                "t_end": self.t_end,
                "paths": paths,
                "active": self.active_count(),
                "retired": sum(
                    1 for p in self.paths.values() if p.status == "retired"
                ),
                "failed": sum(1 for p in self.paths.values() if p.status == "failed"),
                "reached": sum(1 for p in self.paths.values() if p.reached),
                "sub_batches": self.sub_batches,
                "min_t": min(ts) if ts else None,
                "max_t": max(ts) if ts else None,
                "eta_model_ms": self.eta_model_ms(),
                "stalls": self.stalls,
                "flushes": self.flushes,
            }

    # -- heartbeat / stall -------------------------------------------------
    def heartbeat(self, now=None) -> dict:
        """Record (and return) a heartbeat snapshot; logs at DEBUG."""
        now = self._clock() if now is None else now
        with self._lock:
            snapshot = self.progress()
            entry = {
                "kind": "heartbeat",
                "elapsed_s": now - self._started,
                **snapshot,
            }
            self.events.append(entry)
        _log.debug(
            "live heartbeat: %d active, min t = %s, eta = %s model ms",
            snapshot["active"],
            snapshot["min_t"],
            snapshot["eta_model_ms"],
        )
        return entry

    def check_stall(self, now=None) -> bool:
        """Raise a stall if no path progressed for ``stall_window``
        seconds while paths are still active.  At most one stall per
        window — a stuck fleet pages once per window, not once per
        poll.  Logs at WARNING."""
        now = self._clock() if now is None else now
        with self._lock:
            if self.active_count() == 0 and self.paths:
                return False
            idle = now - self._last_progress
            if idle < self.stall_window or now - self._last_stall < self.stall_window:
                return False
            self.stalls += 1
            self._last_stall = now
            entry = {
                "kind": "stall",
                "idle_seconds": idle,
                "active": self.active_count(),
                "min_t": min(
                    (p.t for p in self.paths.values() if p.active), default=None
                ),
            }
            self.events.append(entry)
        _log.warning(
            "fleet stall: no path progress for %.1f s (%d active, min t = %s)",
            idle,
            entry["active"],
            entry["min_t"],
        )
        return True

    def poll(self, now=None) -> None:
        """One monitoring tick: stall check plus a flush when due.
        Called opportunistically from :meth:`observe` (flush only —
        records arriving means no stall bookkeeping is needed there)
        and periodically by the background heartbeat thread."""
        now = self._clock() if now is None else now
        self.check_stall(now)
        with self._lock:
            if self._flush_due(now):
                self._flush_locked(now)

    # -- background heartbeat ----------------------------------------------
    def start(self, interval: float | None = None) -> None:
        """Run :meth:`poll` on a daemon thread every ``interval``
        seconds (default: half the flush interval) until :meth:`stop`.
        Optional — a single-threaded run is monitored opportunistically
        through :meth:`observe`; the thread adds stall detection while
        the tracked computation is *not* producing records."""
        if self._thread is not None:
            return
        interval = self.flush_interval / 2.0 if interval is None else float(interval)
        self._stop.clear()

        def run():
            while not self._stop.wait(interval):
                self.poll()

        self._thread = threading.Thread(
            target=run, name="repro-live-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background heartbeat thread (if running)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    # -- incremental flushing ----------------------------------------------
    def _flush_due(self, now) -> bool:
        return (
            self.path is not None
            and bool(self._pending)
            and now - self._last_flush >= self.flush_interval
        )

    def flush(self, now=None) -> dict:
        """Flush now, regardless of the interval: append the records
        observed since the last flush and one progress snapshot to the
        JSONL stream (when a path is bound), and return the snapshot.
        Logs at DEBUG."""
        now = self._clock() if now is None else now
        with self._lock:
            return self._flush_locked(now)

    def _flush_locked(self, now) -> dict:
        snapshot = {
            "kind": "progress",
            "seq": self._seq,
            "elapsed_s": now - self._started,
            **self.progress(),
        }
        if self.path is not None:
            lines = []
            if not self._header_written:
                lines.append(
                    json.dumps(
                        {
                            "kind": "header",
                            "schema": LIVE_SCHEMA_VERSION,
                            "live": True,
                            "label": self.label,
                        }
                    )
                )
            lines.extend(json.dumps(record.to_dict()) for record in self._pending)
            lines.append(json.dumps(snapshot))
            self.path.parent.mkdir(parents=True, exist_ok=True)
            mode = "a" if self._header_written else "w"
            with self.path.open(mode) as stream:
                stream.write("\n".join(lines) + "\n")
            self._header_written = True
        flushed = len(self._pending)
        self._pending.clear()
        self._seq += 1
        self.flushes += 1
        self._last_flush = now
        _log.debug(
            "live flush #%d: %d records, %d active paths",
            self._seq,
            flushed,
            snapshot["active"],
        )
        return snapshot

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"LiveMonitor({self.active_count()} active of {len(self.paths)} "
            f"paths, {self.flushes} flushes, {self.stalls} stalls"
            f"{f', path={self.path}' if self.path else ''})"
        )


def attach_monitor(stack, monitor):
    """Resolve the recorder a monitored tracking call records into.

    The trackers call this with their :class:`contextlib.ExitStack` and
    the ``monitor=`` argument.  With no monitor this is exactly
    :func:`~repro.obs.events.get_recorder` — the ``monitor=None`` path
    costs one ``if``.  With a monitor, the monitor watches the active
    recorder for the duration of the stack; when recording is *off*,
    the monitor's private recorder is activated first, so monitoring
    works without an enclosing :func:`~repro.obs.events.recording`
    scope.
    """
    recorder = get_recorder()
    if monitor is None:
        return recorder
    if not recorder.enabled:
        recorder = stack.enter_context(recording(monitor.recorder))
    stack.enter_context(monitor.watch(recorder))
    return recorder


def read_live_jsonl(path) -> dict:
    """Read an incremental live stream back.

    Returns ``{"label", "records", "progress"}`` — the telemetry
    records (as :class:`~repro.obs.events.Record` objects, flush order)
    and the progress snapshots.  Unknown line kinds are skipped, the
    header is required, a newer schema raises — the same contract as
    :func:`repro.obs.export.read_jsonl`.
    """
    from .events import Record

    path = Path(path)
    label = ""
    records: list = []
    snapshots: list = []
    saw_header = False
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        kind = data.get("kind")
        if not saw_header:
            if kind != "header":
                raise ValueError(f"{path} is not a live telemetry stream (no header)")
            saw_header = True
            schema = int(data.get("schema", LIVE_SCHEMA_VERSION))
            if schema > LIVE_SCHEMA_VERSION:
                raise ValueError(
                    f"live stream {path} has schema {schema}, newer than this "
                    f"reader ({LIVE_SCHEMA_VERSION})"
                )
            label = data.get("label", "")
            continue
        if kind in ("span", "event"):
            records.append(Record.from_dict(data))
        elif kind == "progress":
            snapshots.append(data)
    return {"label": label, "records": records, "progress": snapshots}
