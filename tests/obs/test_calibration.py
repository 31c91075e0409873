"""Tests for cost-model calibration telemetry (``repro.obs.calibration``).

Sample arithmetic, the summary over tracked samples (with the property
that every aggregate equals the fold of its per-sample residuals), the rolling
drift monitor (fires only on a full window, re-arms after firing, works
with or without a recorder), and the ``observe_flush`` entry point that
ties tracker, metrics, and drift together.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import calibration, events
from repro.obs.calibration import (
    REL_ERR_FLOOR,
    CalibrationSample,
    DriftEvent,
    DriftMonitor,
)


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
    def test_summary_buckets(self):
        with calibration.tracking() as tracker:
            calibration.observe_flush("a", 0, "PS", 1, 2.0, 2.5)
            calibration.observe_flush("a", 0, "S", 1, 1.0, 0.5)
            calibration.observe_flush("b", 0, "PS", 1, 3.0, 3.0)
        summary = calibration.summary(tracker.samples())
        assert summary["total"]["samples"] == 3
        assert summary["total"]["predicted_ms"] == pytest.approx(6.0)
        assert summary["total"]["actual_ms"] == pytest.approx(6.0)
        assert summary["total"]["residual_ms"] == pytest.approx(0.0)
        assert summary["total"]["abs_err_ms"] == pytest.approx(1.0)
        assert summary["total"]["max_abs_err_ms"] == pytest.approx(0.5)
        assert list(summary["tables"]) == ["PS", "S"]  # sorted
        assert summary["tables"]["PS"]["samples"] == 2
        assert summary["views"]["a"]["residual_ms"] == pytest.approx(0.0)
        assert summary["views"]["b"]["samples"] == 1

    def test_viewless_samples_skip_view_buckets(self):
        summary = calibration.summary([make_sample(view=None)])
        assert summary["total"]["samples"] == 1
        assert summary["views"] == {}
        assert summary["tables"]["PS"]["samples"] == 1

    def test_capacity_drops_oldest(self, event_log):
        event_log.open("calibration", capacity=2)
        with calibration.tracking() as tracker:  # joins the open ring
            for t in range(3):
                calibration.observe_flush("v", t, "PS", 1, 2.0, 2.5)
        assert len(tracker) == 2
        assert tracker.dropped == 1
        assert [s.t for s in tracker.samples()] == [1, 2]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e4),
                st.floats(0.0, 1e4),
                st.sampled_from(["PS", "S", "N"]),
                st.sampled_from(["a", "b", None]),
            ),
            max_size=40,
        )
    )
    def test_aggregates_equal_sum_of_per_sample_residuals(self, raws):
        """The tracker invariant: every summary bucket is exactly the
        fold of its member samples -- no sample is double counted,
        dropped, or misfiled."""
        samples = [
            make_sample(p, a, view=view, alias=alias, t=i)
            for i, (p, a, alias, view) in enumerate(raws)
        ]
        summary = calibration.summary(samples)
        assert summary["total"]["samples"] == len(samples)
        assert summary["total"]["residual_ms"] == pytest.approx(
            sum(s.residual_ms for s in samples)
        )
        assert summary["total"]["abs_err_ms"] == pytest.approx(
            sum(s.abs_err_ms for s in samples)
        )
        for alias, bucket in summary["tables"].items():
            members = [s for s in samples if s.alias == alias]
            assert bucket["samples"] == len(members)
            assert bucket["residual_ms"] == pytest.approx(
                sum(s.residual_ms for s in members)
            )
        for view, bucket in summary["views"].items():
            members = [s for s in samples if s.view == view]
            assert bucket["residual_ms"] == pytest.approx(
                sum(s.residual_ms for s in members)
            )
        # Nothing lost across buckets either.
        assert sum(b["samples"] for b in summary["tables"].values()) == len(
            samples
        )


class TestDriftMonitor:
    def test_fires_only_on_a_full_window_over_threshold(self):
        monitor = DriftMonitor(threshold=0.5, window=3)
        bad = make_sample(1.0, 2.0)  # rel_err 1.0
        assert monitor.observe(bad) is None
        assert monitor.observe(bad) is None
        event = monitor.observe(bad)
        assert isinstance(event, DriftEvent)
        assert event.rolling_rel_err == pytest.approx(1.0)
        assert event.alias == "PS" and event.view == "v"

    def test_accurate_window_never_fires(self):
        monitor = DriftMonitor(threshold=0.5, window=2)
        good = make_sample(2.0, 2.1)  # rel_err 0.05
        assert monitor.observe(good) is None
        assert monitor.observe(good) is None
        assert monitor.observe(good) is None

    def test_rearms_after_firing(self):
        monitor = DriftMonitor(threshold=0.5, window=2)
        bad = make_sample(1.0, 3.0)
        assert monitor.observe(bad) is None
        assert monitor.observe(bad) is not None  # fires, window clears
        assert monitor.observe(bad) is None  # refilling from scratch
        assert monitor.observe(bad) is not None

    def test_windows_are_per_view_and_alias(self):
        monitor = DriftMonitor(threshold=0.5, window=2)
        assert monitor.observe(make_sample(1.0, 3.0, view="a")) is None
        assert monitor.observe(make_sample(1.0, 3.0, view="b")) is None
        # Each view's window holds one sample; neither is full yet.
        event = monitor.observe(make_sample(1.0, 3.0, view="a"))
        assert event is not None and event.view == "a"

    def test_fires_through_hub_without_recorder(self):
        seen: list[DriftEvent] = []
        monitor = DriftMonitor(threshold=0.1, window=1)
        with calibration.drift_alerts(seen.append):
            monitor.observe(make_sample(1.0, 2.0))
        assert len(seen) == 1
        assert "calibration drift" in str(seen[0])

    def test_counts_alerts_under_recorder(self):
        monitor = DriftMonitor(threshold=0.1, window=1)
        with obs.recording() as recorder:
            monitor.observe(make_sample(1.0, 2.0))
        snap = recorder.registry.snapshot()
        assert snap["planner.calibration.drift_alerts"]["value"] == 1


class TestObserveFlush:
    def test_feeds_tracker_metrics_and_monitor(self):
        calibration.configure_drift(threshold=0.1, window=1)
        fired: list[DriftEvent] = []
        try:
            with obs.recording() as recorder:
                with calibration.tracking() as tracker:
                    with calibration.drift_alerts(fired.append):
                        sample = calibration.observe_flush(
                            "v", 3, "PS", 2, predicted_ms=2.0, actual_ms=3.0
                        )
        finally:
            calibration.configure_drift()  # restore defaults
        assert sample.residual_ms == pytest.approx(1.0)
        assert calibration.summary(tracker.samples())["total"]["samples"] == 1
        snap = recorder.registry.snapshot()
        assert snap["planner.calibration.samples"]["value"] == 1
        assert snap["planner.calibration.abs_err_ms"]["max"] == 1.0
        assert snap["planner.calibration.rel_err"]["max"] == 0.5
        assert snap["planner.calibration.residual"]["max"] == 1.0
        assert len(fired) == 1

    def test_enabled_gates(self):
        """What the maintainer asks before it times a flush."""
        assert not (events.wanted("calibration") or events.wanted("drift"))
        with calibration.tracking():
            assert events.wanted("calibration")
        with calibration.drift_alerts(lambda e: None):
            assert events.wanted("drift")
        assert not (events.wanted("calibration") or events.wanted("drift"))

    def test_tracking_restores_previous_tracker(self):
        with calibration.tracking() as outer:
            with calibration.tracking() as inner:
                assert inner is outer  # joined, not shadowed
            assert events.installed().rings["calibration"] is outer
        assert "calibration" not in events.installed().rings
