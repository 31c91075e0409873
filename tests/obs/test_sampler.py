"""Tests for the flight recorder (ring-buffer registry sampler)."""

import threading
import time

import pytest

from repro import obs
from repro.obs.sampler import FlightRecorder
from repro.obs.tracing import read_jsonl


class TestSampling:
    def test_sample_now_snapshots_registry(self):
        recorder = obs.Recorder()
        recorder.counter("work.items", 5)
        flight = FlightRecorder(recorder, interval_s=60)
        sample = flight.sample_now()
        assert sample["metrics"]["work.items"]["value"] == 5
        assert sample["t_s"] >= 0
        assert len(flight) == 1

    def test_samples_ordered_and_independent(self):
        recorder = obs.Recorder()
        flight = FlightRecorder(recorder, interval_s=60)
        recorder.counter("work.items", 1)
        flight.sample_now()
        recorder.counter("work.items", 1)
        flight.sample_now()
        values = [
            s["metrics"]["work.items"]["value"] for s in flight.samples()
        ]
        assert values == [1, 2]

    def test_ring_buffer_bounds_memory(self):
        recorder = obs.Recorder()
        flight = FlightRecorder(recorder, interval_s=60, capacity=3)
        for i in range(10):
            recorder.gauge("step", i)
            flight.sample_now()
        assert len(flight) == 3
        kept = [s["metrics"]["step"]["value"] for s in flight.samples()]
        assert kept == [7.0, 8.0, 9.0]

    def test_validation(self):
        recorder = obs.Recorder()
        with pytest.raises(ValueError):
            FlightRecorder(recorder, interval_s=0)
        with pytest.raises(ValueError):
            FlightRecorder(recorder, capacity=0)


class TestSeries:
    def test_counter_and_histogram_series(self):
        recorder = obs.Recorder()
        flight = FlightRecorder(recorder, interval_s=60)
        flight.sample_now()  # before the metric exists: skipped
        recorder.counter("n", 2)
        recorder.observe("lat", 10.0)
        flight.sample_now()
        recorder.counter("n", 3)
        recorder.observe("lat", 20.0)
        flight.sample_now()
        assert [v for _, v in flight.series("n")] == [2, 5]
        assert [v for _, v in flight.series("lat", "p95")] == [10.0, 20.0]
        assert flight.series("missing") == []
        times = [t for t, _ in flight.series("n")]
        assert times == sorted(times)


class TestViewGauges:
    def test_samples_capture_ivm_view_metrics(self):
        """The sampler snapshots the whole registry, so the per-view
        maintenance family is in every sample and series() can extract
        backlog/cost curves per view with no extra wiring."""
        recorder = obs.Recorder()
        flight = FlightRecorder(recorder, interval_s=60)
        recorder.counter("ivm.view.v1.rounds")
        recorder.gauge("ivm.view.v1.backlog", 5.0)
        recorder.observe("ivm.view.v1.round_ms", 2.0)
        flight.sample_now()
        recorder.counter("ivm.view.v1.rounds")
        recorder.gauge("ivm.view.v1.backlog", 1.0)
        recorder.observe("ivm.view.v1.round_ms", 6.0)
        flight.sample_now()
        sample = flight.samples()[-1]["metrics"]
        assert sample["ivm.view.v1.rounds"]["value"] == 2
        assert sample["ivm.view.v1.backlog"]["value"] == 1.0
        assert sample["ivm.view.v1.backlog"]["peak"] == 5.0
        assert [v for _, v in flight.series("ivm.view.v1.backlog")] == [
            5.0,
            1.0,
        ]
        assert [
            v for _, v in flight.series("ivm.view.v1.round_ms", "max")
        ] == [2.0, 6.0]


class TestCalibrationMetrics:
    def test_samples_capture_planner_calibration_metrics(self):
        """`observe_flush` feeds the registry through the ambient
        recorder, so the sampler picks up the calibration family with no
        extra wiring -- residual-vs-time curves for free, exactly like
        the per-view gauges above."""
        from repro.obs import calibration

        recorder = obs.Recorder()
        flight = FlightRecorder(recorder, interval_s=60)
        obs.install(recorder)
        try:
            calibration.observe_flush(
                "v1", 0, "PS", 2, predicted_ms=2.0, actual_ms=2.5
            )
            flight.sample_now()
            calibration.observe_flush(
                "v1", 1, "PS", 1, predicted_ms=1.0, actual_ms=0.5
            )
            flight.sample_now()
        finally:
            obs.install(None)
        sample = flight.samples()[-1]["metrics"]
        assert sample["planner.calibration.samples"]["value"] == 2
        assert sample["planner.calibration.abs_err_ms"]["count"] == 2
        assert sample["planner.calibration.residual"]["min"] == -0.5
        assert sample["planner.calibration.residual"]["max"] == 0.5
        assert [
            v for _, v in flight.series("planner.calibration.samples")
        ] == [1, 2]
        assert [
            v for _, v in flight.series("planner.calibration.abs_err_ms", "max")
        ] == [0.5, 0.5]


class TestBackgroundThread:
    def test_start_stop_collects_samples(self):
        recorder = obs.Recorder()
        recorder.counter("alive")
        with FlightRecorder(recorder, interval_s=0.005) as flight:
            deadline = time.time() + 5
            while len(flight) == 0 and time.time() < deadline:
                time.sleep(0.005)
        # stop() adds a final sample even if the timer never fired
        assert len(flight) >= 1
        assert flight.samples()[-1]["metrics"]["alive"]["value"] == 1

    def test_stop_is_idempotent(self):
        flight = FlightRecorder(obs.Recorder(), interval_s=0.005)
        flight.start()
        flight.stop()
        flight.stop(final_sample=False)
        assert len(flight) == 1  # exactly one final sample

    def test_stop_without_start_is_a_noop(self):
        flight = FlightRecorder(obs.Recorder(), interval_s=0.005)
        flight.stop()
        assert len(flight) == 0  # no thread stopped, no final sample

    def test_clean_stop_emits_no_warnings(self):
        import warnings

        flight = FlightRecorder(obs.Recorder(), interval_s=0.005)
        flight.start()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flight.stop()

    def test_stuck_thread_is_reported_not_swallowed(self):
        """Regression: a sampler thread that outlives the join timeout
        used to be silently abandoned; now it raises a RuntimeWarning."""
        flight = FlightRecorder(obs.Recorder(), interval_s=60)
        release = threading.Event()
        stuck = threading.Thread(target=release.wait, daemon=True)
        stuck.start()
        flight._thread = stuck  # simulate a sampler that won't exit
        flight.JOIN_TIMEOUT_S = 0.01
        try:
            with pytest.warns(RuntimeWarning, match="did not exit"):
                flight.stop(final_sample=False)
            assert flight._thread is None  # stop state still advanced
        finally:
            release.set()
            stuck.join(timeout=5)


class TestDump:
    def test_jsonl_round_trip(self, tmp_path):
        recorder = obs.Recorder()
        flight = FlightRecorder(recorder, interval_s=60)
        recorder.counter("evts", 4)
        recorder.observe("ms", 2.5)
        flight.sample_now()
        flight.sample_now()
        path = tmp_path / "flight.jsonl"
        assert flight.dump_jsonl(path) == 2
        loaded = read_jsonl(path)
        assert loaded == flight.samples()
        assert loaded[0]["metrics"]["evts"]["value"] == 4
