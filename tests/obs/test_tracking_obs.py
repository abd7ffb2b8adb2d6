"""End-to-end telemetry contracts on real tracked fleets.

Two contracts are pinned here:

* **observe-only** — recording ON changes no tracked result bitwise
  (same ``PathStep`` records, same regrouping history, same launch
  sequences) relative to recording OFF;
* **artifact completeness** — one recorded cyclic-3 dd fleet yields a
  losslessly round-tripping JSONL document, a per-path timeline
  report, and a predicted-vs-measured table in which every profiled
  span carries both the measured wall-clock milliseconds and the
  analytic kernel milliseconds of the exact launches it recorded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import fleet as fleet_module
from repro.obs import (
    metrics_summary,
    predicted_vs_measured,
    read_jsonl,
    recording,
    render_run_report,
    write_jsonl,
)
from repro.obs.profile import predicted_kernel_ms
from repro.obs.report import path_timeline
from repro.poly import Homotopy, cyclic

from ..oracles.step_control import pole_radius

CYCLIC2_KWARGS = dict(tol=1e-6, order=8, max_steps=12, precision_ladder=(1, 2))


def launch_names(trace):
    return [launch.name for launch in trace.launches]


class TestRecordingIsObserveOnly:
    """ON vs OFF on a truncated cyclic-2 fleet: bit-identical results."""

    @pytest.fixture(scope="class")
    def homotopy(self):
        return Homotopy.total_degree(cyclic(2), seed=7)

    @pytest.fixture(scope="class")
    def runs(self, homotopy):
        """Both runs, plus each sub-batch's approximants and paths as
        the recorded run's step control saw them."""
        reference = homotopy.track_fleet(**CYCLIC2_KWARGS)
        controls = []
        control = fleet_module._control_steps

        def spying_control(approximants, solution, paths, states, **kwargs):
            n = solution.shape[1]
            controls.append(
                {
                    state.index: approximants[p * n : (p + 1) * n]
                    for p, state in zip(paths, states)
                }
            )
            return control(approximants, solution, paths, states, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fleet_module, "_control_steps", spying_control)
            with recording(label="cyclic-2 fleet") as recorder:
                observed = homotopy.track_fleet(**CYCLIC2_KWARGS)
        return reference, observed, recorder, controls

    def test_fleet_results_bit_identical(self, runs):
        reference, observed, _, _ = runs
        assert reference.batch == observed.batch
        for ref_path, obs_path in zip(reference.paths, observed.paths):
            assert ref_path.steps == obs_path.steps
            assert ref_path.final_t == obs_path.final_t
            assert ref_path.reached == obs_path.reached
            assert ref_path.escalations == obs_path.escalations
            assert ref_path.precisions_used == obs_path.precisions_used
            assert [float(v) for v in ref_path.final_point] == [
                float(v) for v in obs_path.final_point
            ]

    def test_regrouping_and_launches_identical(self, runs):
        reference, observed, _, _ = runs
        assert reference.sub_batches == observed.sub_batches
        assert reference.fleet_model_ms == observed.fleet_model_ms
        assert [launch_names(t) for t in reference.round_traces] == [
            launch_names(t) for t in observed.round_traces
        ]

    def test_single_path_bit_identical(self, homotopy):
        reference = homotopy.track(**CYCLIC2_KWARGS)
        with recording():
            observed = homotopy.track(**CYCLIC2_KWARGS)
        assert reference.steps == observed.steps
        assert reference.final_t == observed.final_t

    def test_recorder_saw_the_run(self, runs):
        _, observed, recorder, _ = runs
        assert recorder.counters["steps"] == sum(
            path.step_count for path in observed.paths
        )
        assert recorder.counters["sub_batches"] == len(observed.sub_batches)
        assert len(recorder.spans("track_paths", "run")) == 1

    def test_step_events_carry_the_oracle_pole_radius(self, runs):
        """Each recorded ``step`` event's ``pole_radius`` is the smallest
        scalar-oracle pole radius of its path's approximants in that
        round (the sub-batch's radii, reused)."""
        _, observed, recorder, controls = runs
        steps = recorder.events("step")
        assert len(steps) == sum(path.step_count for path in observed.paths)
        for event in steps:
            members = controls[event.fields["round"] - 1][event.fields["path"]]
            expected = min(pole_radius(a) for a in members)
            assert type(event.fields["pole_radius"]) is float
            assert np.float64(event.fields["pole_radius"]).view(np.int64) == np.float64(
                expected
            ).view(np.int64)


class TestCyclic3FleetArtifacts:
    """The acceptance artifact: a recorded cyclic-3 dd complex fleet."""

    @pytest.fixture(scope="class")
    def tracked(self):
        homotopy = Homotopy.total_degree(cyclic(3), seed=7, backend="complex")
        with recording(label="cyclic-3 dd fleet") as recorder:
            fleet = homotopy.track_fleet(
                tol=1e-8, order=8, max_steps=3, precision_ladder=(2,)
            )
        return fleet, recorder

    def test_jsonl_round_trips_losslessly(self, tracked, tmp_path_factory):
        _, recorder = tracked
        path = tmp_path_factory.mktemp("obs") / "cyclic3.jsonl"
        document = read_jsonl(write_jsonl(recorder, path))
        assert document.label == "cyclic-3 dd fleet"
        assert document.records == recorder.records
        assert document.counters == recorder.counters
        assert document.histograms == recorder.histograms
        assert metrics_summary(document) == metrics_summary(recorder)

    def test_timeline_reports_every_path(self, tracked):
        fleet, recorder = tracked
        text = path_timeline(recorder)
        for index, path in enumerate(fleet.paths):
            assert path.step_count > 0
            assert f"\n   {index}  " in text or f" {index}  " in text
        # one row per accepted step fleet-wide (the title line mentions
        # "accepted" too, so count padded table cells, not substrings)
        rows = [line for line in text.splitlines() if "  accepted" in line]
        assert len(rows) == sum(p.step_count for p in fleet.paths)

    def test_predicted_vs_measured_is_fully_populated(self, tracked):
        _, recorder = tracked
        rows = predicted_vs_measured(recorder)
        assert rows, "no profiled spans carried both milliseconds columns"
        names = {row["span"] for row in rows}
        # the lock-step expansion and its batched stages all align; the
        # staircase shows the two stages of Algorithm 1 apart
        assert "fleet_expansion" in names
        assert "batched_qr" in names
        assert "batched_back_substitution" in names
        assert "batched_tile_inversion" in names
        assert "batched_substitution" in names
        assert "batched_lstsq" in names
        assert "poly_eval_series" in names
        for row in rows:
            assert row["calls"] > 0
            assert row["measured_ms"] > 0.0
            assert row["predicted_ms"] > 0.0
            assert row["launches"] > 0
            assert 0.0 < row["ratio"] < float("inf")

    def test_expansion_spans_align_with_round_traces(self, tracked):
        """Span for span, the profiled predicted milliseconds are the
        analytic cost of the exact launches that round recorded."""
        fleet, recorder = tracked
        spans = recorder.spans("fleet_expansion")
        assert len(spans) == len(fleet.round_traces) == len(fleet.sub_batches)
        for span, trace in zip(spans, fleet.round_traces):
            assert span.fields["predicted_ms"] == predicted_kernel_ms(trace)
            assert span.fields["launches"] == len(trace.launches)
            assert span.fields["device"] == trace.device.name
            assert span.measured_ms > 0.0

    def test_run_report_renders(self, tracked):
        _, recorder = tracked
        text = render_run_report(recorder)
        assert "cyclic-3 dd fleet" in text
        assert "Path timeline" in text
        assert "Fleet rounds" in text
        assert "Predicted (cost model) vs measured" in text
