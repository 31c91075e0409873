"""Tests for cost-model calibration telemetry (``repro.obs.calibration``).

Sample arithmetic, the tracker's bounded ring, and the
``observe_flush`` entry point that feeds the tracker and the metrics.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import calibration, events
from repro.obs.calibration import REL_ERR_FLOOR, CalibrationSample


def make_sample(
    predicted=2.0, actual=2.5, view="v", alias="PS", t=0, k=1
) -> CalibrationSample:
    return CalibrationSample(
        view=view, t=t, alias=alias, k=k, predicted_ms=predicted, actual_ms=actual
    )


class TestSample:
    def test_residual_is_signed(self):
        assert make_sample(2.0, 2.5).residual_ms == pytest.approx(0.5)
        assert make_sample(2.0, 1.5).residual_ms == pytest.approx(-0.5)

    def test_abs_and_rel_err(self):
        sample = make_sample(4.0, 3.0)
        assert sample.abs_err_ms == pytest.approx(1.0)
        assert sample.rel_err == pytest.approx(0.25)

    def test_rel_err_floored_for_zero_prediction(self):
        sample = make_sample(0.0, 1.0)
        assert sample.rel_err == pytest.approx(1.0 / REL_ERR_FLOOR)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_sample().actual_ms = 9.0


class TestTracker:
    def test_capacity_drops_oldest(self, event_log, monkeypatch):
        monkeypatch.setitem(events.CAPACITY, "calibration", 2)
        event_log.open("calibration")
        with calibration.tracking() as tracker:  # joins the open ring
            for t in range(3):
                calibration.observe_flush("v", t, "PS", 1, 2.0, 2.5)
        assert len(tracker) == 2
        assert tracker.dropped == 1
        assert [s.t for s in tracker.samples()] == [1, 2]


class TestObserveFlush:
    def test_feeds_tracker_metrics_and_monitor(self):
        """The tracker and the recorder both see the sample; the
        ``planner.calibration.*`` family is these four metrics."""
        with obs.recording() as recorder:
            with calibration.tracking() as tracker:
                sample = calibration.observe_flush(
                    "v", 3, "PS", 2, predicted_ms=2.0, actual_ms=3.0
                )
        assert sample.residual_ms == pytest.approx(1.0)
        assert tracker.samples() == [sample]
        snap = recorder.registry.snapshot()
        assert snap["planner.calibration.samples"]["value"] == 1
        assert snap["planner.calibration.abs_err_ms"]["max"] == 1.0
        assert snap["planner.calibration.rel_err"]["max"] == 0.5
        assert snap["planner.calibration.residual"]["max"] == 1.0
        assert [
            n for n in recorder.registry.names()
            if n.startswith("planner.calibration.")
        ] == [
            "planner.calibration.abs_err_ms",
            "planner.calibration.rel_err",
            "planner.calibration.residual",
            "planner.calibration.samples",
        ]
        # The maintainer's per-flush histograms ride on the same call.
        assert [
            n for n in recorder.registry.names() if n.startswith("ivm.flush.")
        ] == [
            "ivm.flush.actual_ms",
            "ivm.flush.batch_size",
            "ivm.flush.predicted_ms",
        ]
        assert snap["ivm.flush.batch_size"]["max"] == 2
        assert snap["ivm.flush.predicted_ms"]["max"] == 2.0
        assert snap["ivm.flush.actual_ms"]["max"] == 3.0

    def test_enabled_gates(self):
        """What the maintainer asks before it times a flush."""
        assert not events.wanted("calibration")
        with calibration.tracking():
            assert events.wanted("calibration")
        assert not events.wanted("calibration")

    def test_tracking_restores_previous_tracker(self):
        with calibration.tracking() as outer:
            with calibration.tracking() as inner:
                assert inner is outer  # joined, not shadowed
            assert events.installed().rings["calibration"] is outer
        assert "calibration" not in events.installed().rings
