"""The live fleet monitor: progress, ETA, stalls, flushes, and the
observe-only contract.

Unit tests drive a :class:`~repro.obs.live.LiveMonitor` with synthetic
fleet telemetry and an injected clock (progress folding, analytic ETA,
stall detection at WARNING, incremental JSONL flushes at DEBUG, the
read-back contract).  The acceptance tests track the real cyclic-3
complex fleet with and without a monitor attached under **both**
execution backends and assert bitwise identity — endpoints, steps,
regrouping, launch sequences — plus the same for a monitored
single-path ``track_path`` (a fleet of one).
"""

from __future__ import annotations

import logging

import pytest

from repro.exec import use_backend
from repro.obs import LiveMonitor, Recorder, read_live_jsonl, recording
from repro.obs.events import NULL_RECORDER
from repro.poly import Homotopy, cyclic

CYCLIC3_KWARGS = dict(tol=1e-6, order=8, max_steps=4, precision_ladder=(1, 2))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_monitor(path=None, **kwargs):
    clock = FakeClock()
    kwargs.setdefault("flush_interval", 10.0)
    kwargs.setdefault("stall_window", 60.0)
    return LiveMonitor(path, clock=clock, **kwargs), clock


def emit_step(recorder, path, t, step, precision="2d", model_ms=2.0):
    recorder.event(
        "step",
        category="step",
        path=path,
        t=t,
        step=step,
        precision=precision,
        model_ms=model_ms,
    )


class TestProgressFolding:
    def test_steps_advance_paths(self):
        monitor, _ = make_monitor()
        recorder = Recorder(label="unit")
        with monitor.watch(recorder):
            emit_step(recorder, 0, 0.0, 0.25)
            emit_step(recorder, 0, 0.25, 0.25, precision="4d")
            emit_step(recorder, 1, 0.0, 0.5)
        progress = monitor.paths[0]
        assert progress.accepted == 2
        assert progress.t == 0.5
        assert progress.precision == "4d"
        assert progress.model_ms == 4.0
        assert monitor.paths[1].t == 0.5
        assert monitor.active_count() == 2

    def test_rejections_escalations_and_endings(self):
        monitor, _ = make_monitor()
        recorder = Recorder()
        with monitor.watch(recorder):
            recorder.event("step_rejected", category="step", path=0, t=0.0)
            recorder.event(
                "escalation",
                category="step",
                path=0,
                t=0.0,
                from_precision="2d",
                to_precision="4d",
            )
            emit_step(recorder, 0, 0.0, 1.0, precision="4d")
            recorder.event(
                "path_retired", category="path", path=0, t=1.0, reached=True
            )
            recorder.event(
                "path_failed", category="path", path=1, t=0.3, reason="singular"
            )
            recorder.event("sub_batch", category="step", round=1, paths=[0, 1])
        assert monitor.paths[0].rejected == 1
        assert monitor.paths[0].escalations == 1
        assert monitor.paths[0].status == "retired"
        assert monitor.paths[0].reached is True
        assert monitor.paths[1].status == "failed"
        assert monitor.paths[1].t == 0.3
        assert monitor.sub_batches == 1
        assert monitor.active_count() == 0
        snapshot = monitor.progress()
        assert snapshot["retired"] == 1
        assert snapshot["failed"] == 1
        assert snapshot["reached"] == 1

    def test_eta_from_the_cost_model(self):
        """Mean accepted step 0.1 at mean 2 model-ms per step, t at 0.5:
        the remaining 0.5 extrapolates to 5 more steps = 10 model-ms."""
        monitor, _ = make_monitor()
        recorder = Recorder()
        with monitor.watch(recorder):
            for i in range(5):
                emit_step(recorder, 0, 0.1 * i, 0.1, model_ms=2.0)
        assert monitor.paths[0].t == pytest.approx(0.5)
        assert monitor.eta_model_ms() == pytest.approx(10.0)
        # retired paths stop contributing (watch() detached on exit, so
        # hand the record to the sink directly)
        monitor.observe(
            recorder.event("path_retired", category="path", path=0, t=1.0, reached=True)
        )
        assert monitor.eta_model_ms() is None

    def test_eta_unknown_before_first_step(self):
        monitor, _ = make_monitor()
        recorder = Recorder()
        with monitor.watch(recorder):
            recorder.event("step_rejected", category="step", path=0, t=0.0)
            assert monitor.eta_model_ms() is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LiveMonitor(flush_interval=0.0)
        with pytest.raises(ValueError):
            LiveMonitor(stall_window=-1.0)


class TestStallDetection:
    def test_stall_fires_once_per_window(self, caplog):
        monitor, clock = make_monitor(stall_window=30.0)
        recorder = Recorder()
        monitor.attach(recorder)
        emit_step(recorder, 0, 0.0, 0.1)
        clock.now = 10.0
        assert monitor.check_stall() is False
        clock.now = 45.0
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert monitor.check_stall() is True
        assert monitor.stalls == 1
        assert any("stall" in r.message for r in caplog.records)
        assert caplog.records[-1].levelno == logging.WARNING
        # within the same window: no second page
        clock.now = 50.0
        assert monitor.check_stall() is False
        # a fresh window without progress pages again
        clock.now = 80.0
        assert monitor.check_stall() is True
        assert monitor.stalls == 2
        monitor.detach()

    def test_progress_resets_the_stall_timer(self):
        monitor, clock = make_monitor(stall_window=30.0)
        recorder = Recorder()
        monitor.attach(recorder)
        emit_step(recorder, 0, 0.0, 0.1)
        clock.now = 45.0
        emit_step(recorder, 0, 0.1, 0.1)
        clock.now = 60.0  # only 15 s since the last accepted step
        assert monitor.check_stall() is False
        monitor.detach()

    def test_finished_fleet_never_stalls(self):
        monitor, clock = make_monitor(stall_window=30.0)
        recorder = Recorder()
        monitor.attach(recorder)
        emit_step(recorder, 0, 0.0, 1.0)
        recorder.event("path_retired", category="path", path=0, t=1.0, reached=True)
        clock.now = 1000.0
        assert monitor.check_stall() is False
        assert monitor.stalls == 0
        monitor.detach()

    def test_heartbeat_records_and_logs_debug(self, caplog):
        monitor, clock = make_monitor()
        recorder = Recorder()
        monitor.attach(recorder)
        emit_step(recorder, 0, 0.0, 0.5)
        clock.now = 3.0
        with caplog.at_level(logging.DEBUG, logger="repro"):
            entry = monitor.heartbeat()
        assert entry["kind"] == "heartbeat"
        assert entry["elapsed_s"] == 3.0
        assert entry["active"] == 1
        assert entry in monitor.events
        beat = [r for r in caplog.records if "heartbeat" in r.message]
        assert beat and all(r.levelno == logging.DEBUG for r in beat)
        monitor.detach()


class TestIncrementalFlush:
    def test_flush_appends_and_reads_back(self, tmp_path, caplog):
        path = tmp_path / "live.jsonl"
        monitor, clock = make_monitor(path)
        recorder = Recorder(label="flush-unit")
        monitor.attach(recorder)
        emit_step(recorder, 0, 0.0, 0.25)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            monitor.flush()
        assert monitor.flushes == 1
        assert any("live flush" in r.message for r in caplog.records)

        first = path.read_text()
        emit_step(recorder, 0, 0.25, 0.25)
        monitor.flush()
        second = path.read_text()
        assert second.startswith(first)  # append-only stream

        back = read_live_jsonl(path)
        assert back["label"] == "flush-unit"
        assert [r.to_dict() for r in back["records"]] == [
            r.to_dict() for r in recorder.records
        ]
        assert len(back["progress"]) == 2
        assert back["progress"][-1]["seq"] == 1
        assert back["progress"][-1]["paths"][0]["t"] == 0.5
        monitor.detach()

    def test_opportunistic_flush_on_interval(self, tmp_path):
        path = tmp_path / "live.jsonl"
        monitor, clock = make_monitor(path, flush_interval=5.0)
        recorder = Recorder()
        monitor.attach(recorder)
        emit_step(recorder, 0, 0.0, 0.1)
        assert monitor.flushes == 0  # interval not reached yet
        clock.now = 6.0
        emit_step(recorder, 0, 0.1, 0.1)
        assert monitor.flushes == 1  # observing the record flushed
        monitor.detach()

    def test_watch_scope_flushes_on_exit(self, tmp_path):
        path = tmp_path / "live.jsonl"
        monitor, _ = make_monitor(path)
        recorder = Recorder()
        with monitor.watch(recorder):
            emit_step(recorder, 0, 0.0, 0.5)
        assert path.exists()
        back = read_live_jsonl(path)
        assert back["records"] and back["progress"]
        # detached: further records are not observed
        emit_step(recorder, 0, 0.5, 0.5)
        assert monitor.paths[0].accepted == 1

    def test_unbound_monitor_flushes_in_memory(self):
        monitor, _ = make_monitor()
        recorder = Recorder()
        with monitor.watch(recorder):
            emit_step(recorder, 0, 0.0, 0.5)
        snapshot = monitor.flush()
        assert snapshot["kind"] == "progress"
        assert monitor.flushes >= 1

    def test_read_back_requires_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "progress"}\n')
        with pytest.raises(ValueError, match="no header"):
            read_live_jsonl(path)


class TestBackgroundThread:
    def test_start_stop_polls(self, tmp_path):
        monitor, _ = make_monitor(tmp_path / "live.jsonl", flush_interval=0.01)
        recorder = Recorder()
        monitor.attach(recorder)
        emit_step(recorder, 0, 0.0, 0.1)
        monitor.start(interval=0.01)
        monitor.start(interval=0.01)  # idempotent
        import time as _time

        _time.sleep(0.05)
        monitor.stop()
        monitor.stop()  # idempotent
        monitor.detach()
        # the poll thread used the fake clock for decisions but still
        # folded pending records into at least one flush
        assert monitor.flushes >= 0


def fleet_fingerprint(fleet):
    return {
        "steps": [path.steps for path in fleet.paths],
        "final_t": [path.final_t for path in fleet.paths],
        "reached": [path.reached for path in fleet.paths],
        "points": [
            [complex(v) for v in path.final_point] for path in fleet.paths
        ],
        "sub_batches": fleet.sub_batches,
        "fleet_model_ms": fleet.fleet_model_ms,
        "launches": [
            [launch.name for launch in trace.launches]
            for trace in fleet.round_traces
        ],
    }


class TestMonitoringIsObserveOnly:
    """The acceptance contract: monitored == unmonitored, bitwise,
    on the cyclic-3 complex fleet under both execution backends."""

    @pytest.fixture(scope="class")
    def homotopy(self):
        return Homotopy.total_degree(cyclic(3), seed=7, backend="complex")

    @pytest.mark.parametrize("backend", ["generic", "fused"])
    def test_fleet_bitwise_identical_under_monitor(
        self, homotopy, backend, tmp_path_factory
    ):
        path = tmp_path_factory.mktemp("live") / f"cyclic3_{backend}.jsonl"
        with use_backend(backend):
            reference = homotopy.track_fleet(**CYCLIC3_KWARGS)
            monitor = LiveMonitor(path, flush_interval=0.001)
            observed = homotopy.track_fleet(monitor=monitor, **CYCLIC3_KWARGS)
        assert fleet_fingerprint(observed) == fleet_fingerprint(reference)
        # the monitor genuinely watched the run
        assert len(monitor.paths) == len(reference.paths)
        assert monitor.active_count() == 0
        assert monitor.sub_batches == len(reference.sub_batches)
        back = read_live_jsonl(path)
        assert back["records"]
        assert back["progress"][-1]["paths"]

    def test_solo_track_bitwise_identical_under_monitor(self, homotopy):
        reference = homotopy.track(**CYCLIC3_KWARGS)
        monitor = LiveMonitor()
        observed = homotopy.track(monitor=monitor, **CYCLIC3_KWARGS)
        assert observed.steps == reference.steps
        assert observed.final_t == reference.final_t
        assert [complex(v) for v in observed.final_point] == [
            complex(v) for v in reference.final_point
        ]
        # a single path is a fleet of one: its records carry path = 0
        assert list(monitor.paths) == [0]
        progress = monitor.paths[0]
        assert progress.accepted == reference.step_count
        assert progress.status == "retired"

    def test_monitor_rides_an_active_recording(self, homotopy):
        """Inside a recording scope the monitor attaches to the active
        recorder instead of its own — one telemetry stream, two
        consumers."""
        with recording(label="monitored") as recorder:
            monitor = LiveMonitor()
            homotopy.track_fleet(monitor=monitor, **CYCLIC3_KWARGS)
        assert recorder.spans("track_paths", "run")
        assert monitor.paths
        assert monitor._owned_recorder is None  # private recorder unused
        # detached on exit: the outer recorder keeps working solo
        recorder.event("after", category="run")
        assert "after" not in {
            progress.path for progress in monitor.paths.values()
        }

    def test_null_recorder_subscription_is_a_noop(self):
        sink = NULL_RECORDER.subscribe(lambda record: None)
        assert sink is not None
        NULL_RECORDER.unsubscribe(sink)
