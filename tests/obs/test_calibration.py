"""Tests for cost-model calibration telemetry (``repro.obs.calibration``).

Sample arithmetic, the summary over tracked samples (with the property
that every aggregate equals the fold of its per-sample residuals), and
the ``observe_flush`` entry point that feeds the tracker and the metrics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_capacity_drops_oldest(self, event_log, monkeypatch):
        monkeypatch.setitem(events.CAPACITY, "calibration", 2)
        event_log.open("calibration")
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
        assert calibration.summary(tracker.samples())["total"]["samples"] == 1
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
