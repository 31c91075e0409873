"""Tests for the live metrics HTTP endpoint."""

import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import decisions as decisions_mod
from repro.obs import events as events_mod
from repro.obs.sampler import FlightRecorder
from repro.obs.serve import MetricsServer


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture
def served():
    recorder = obs.Recorder()
    recorder.counter("engine.queries", 3)
    recorder.gauge("slo.refresh_margin", 12.5)
    recorder.observe("astar.plan_cost", 99.0)
    sampler = FlightRecorder(recorder, interval_s=60)
    sampler.sample_now()
    server = MetricsServer(recorder, port=0, sampler=sampler)
    server.start()
    try:
        yield recorder, server
    finally:
        server.stop()


class TestRoutes:
    def test_metrics_prometheus_exposition(self, served):
        recorder, server = served
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert "engine_queries_total 3" in body
        assert "slo_refresh_margin 12.5" in body
        assert "astar_plan_cost_count 1" in body

    def test_healthz(self, served):
        _, server = served
        status, _, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["metrics"] == 3
        assert payload["samples"] == 1
        assert payload["uptime_s"] >= 0

    def test_snapshot_matches_registry(self, served):
        recorder, server = served
        _, _, body = _get(server.url + "/snapshot")
        assert json.loads(body) == recorder.registry.snapshot()

    def test_samples_jsonl(self, served):
        _, server = served
        status, headers, body = _get(server.url + "/samples")
        assert status == 200
        lines = [line for line in body.splitlines() if line]
        assert len(lines) == 1
        sample = json.loads(lines[0])
        assert "t_s" in sample and "metrics" in sample

    def test_unknown_route_404(self, served):
        _, server = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404

    def test_port_zero_binds_a_real_port(self, served):
        _, server = served
        assert server.port > 0
        assert str(server.port) in server.url


class TestNoSampler:
    def test_samples_404_without_flight_recorder(self):
        with MetricsServer(obs.Recorder(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/samples")
            assert err.value.code == 404

    def test_healthz_reports_null_samples(self):
        with MetricsServer(obs.Recorder(), port=0) as server:
            _, _, body = _get(server.url + "/healthz")
            assert json.loads(body)["samples"] is None


class TestViewsRoute:
    def test_views_uses_attached_provider(self):
        summaries = {
            "min_cost": {"rounds": 4, "sim_ms": 12.5, "backlog": 3},
            "region_counts": {"rounds": 4, "sim_ms": 2.0, "backlog": 0},
        }
        server = MetricsServer(obs.Recorder(), port=0, views=lambda: summaries)
        with server:
            _, _, body = _get(server.url + "/views")
        assert json.loads(body) == {"views": summaries}

    def test_views_falls_back_to_registry_metrics(self):
        recorder = obs.Recorder()
        recorder.counter("ivm.view.min_cost.rounds", 3)
        recorder.counter("ivm.view.min_cost.mods_applied", 17)
        recorder.gauge("ivm.view.min_cost.backlog", 2.0)
        recorder.observe("ivm.view.min_cost.round_ms", 1.5)
        recorder.counter("ivm.view.other.rounds", 1)
        recorder.counter("engine.queries", 9)  # not a view metric
        with MetricsServer(recorder, port=0) as server:
            _, _, body = _get(server.url + "/views")
        views = json.loads(body)["views"]
        assert set(views) == {"min_cost", "other"}
        assert views["min_cost"]["rounds"] == 3
        assert views["min_cost"]["mods_applied"] == 17
        assert views["min_cost"]["backlog"] == 2.0
        assert views["min_cost"]["round_ms"] == 1  # histogram -> count
        assert views["other"] == {"rounds": 1}

    def test_views_empty_when_nothing_recorded(self):
        with MetricsServer(obs.Recorder(), port=0) as server:
            _, _, body = _get(server.url + "/views")
        assert json.loads(body) == {"views": {}}

    def test_views_from_registry_helper_ignores_malformed_names(self):
        from repro.obs.serve import _views_from_registry

        snapshot = {
            "ivm.view.v1.rounds": {"type": "counter", "value": 2},
            "ivm.view.noField": {"type": "counter", "value": 5},  # no split
            "slo.breaches": {"type": "counter", "value": 1},
        }
        assert _views_from_registry(snapshot) == {"v1": {"rounds": 2}}


class TestDecisionsRoute:
    def _make_events(self):
        from repro.obs.decisions import DecisionEvent

        return [
            DecisionEvent(
                t=t,
                policy="NAIVE",
                view=view,
                backlog=(1,),
                backlog_ms=(2.0,),
                chosen=chosen,
                chosen_ms=(2.0 if any(chosen) else 0.0,),
                predicted_ms=2.0 if any(chosen) else 0.0,
                rationale="r",
            )
            for t, view, chosen in [
                (0, "a", (0,)),
                (1, "a", (1,)),
                (1, "b", (1,)),
            ]
        ]

    @contextlib.contextmanager
    def _served(self):
        """The sample decisions in the open ring, and a server beside it."""
        with decisions_mod.collecting():
            for event in self._make_events():
                decisions_mod.emit(event)
            with MetricsServer(obs.Recorder(), port=0) as server:
                yield server.url + "/events?kind=decision"

    def test_provider_payload_golden_shape(self):
        with self._served() as url:
            _, _, body = _get(url)
        payload = json.loads(body)
        assert set(payload) == {"events", "total"}
        assert payload["total"] == 3
        assert set(payload["events"]) == {"decision"}
        assert len(payload["events"]["decision"]) == 3
        # The per-event JSON shape is the DecisionEvent.to_dict contract;
        # goldenned here so scrapers can rely on it.
        assert set(payload["events"]["decision"][0]) == {
            "t",
            "policy",
            "source",
            "view",
            "backlog",
            "backlog_ms",
            "chosen",
            "chosen_ms",
            "predicted_ms",
            "limit",
            "rationale",
            "candidates",
            "actual_ms",
        }
        assert payload["events"]["decision"][1]["chosen"] == [1]

    def test_view_step_and_limit_filters(self):
        with self._served() as url:
            _, _, body = _get(url + "&view=a")
            by_view = json.loads(body)
            _, _, body = _get(url + "&t=1")
            by_step = json.loads(body)
            _, _, body = _get(url + "&limit=1")
            capped = json.loads(body)
            _, _, body = _get(url + "&limit=0")
            none = json.loads(body)
        assert by_view["total"] == 2
        assert all(e["view"] == "a" for e in by_view["events"]["decision"])
        assert by_step["total"] == 2
        assert all(e["t"] == 1 for e in by_step["events"]["decision"])
        assert capped["total"] == 3  # total counts matches, not the cap
        assert len(capped["events"]["decision"]) == 1
        assert capped["events"]["decision"][0]["view"] == "b"  # most recent
        assert none == {"events": {"decision": []}, "total": 3}

    def test_falls_back_to_global_log(self):
        """The route reads the installed log at request time, whichever
        came first: the CLI starts the server before the run opens rings."""
        with MetricsServer(obs.Recorder(), port=0) as server:
            with decisions_mod.collecting():
                for event in self._make_events():
                    decisions_mod.emit(event)
                _, _, body = _get(server.url + "/events")
        assert json.loads(body)["total"] == 3

    def test_404_without_provider_or_log(self):
        assert "decision" not in events_mod.installed().rings
        with MetricsServer(obs.Recorder(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/events?kind=decision")
            _, _, body = _get(server.url + "/events")
        assert err.value.code == 404
        assert "no 'decision' ring" in json.loads(err.value.read())["error"]
        assert json.loads(body) == {"events": {}, "total": 0}

    def test_400_on_malformed_query(self):
        with self._served() as url:
            for query in ("&limit=x", "&limit=-1", "&t=x"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(url + query)
                assert err.value.code == 400


class TestControlRoute:
    def _make_events(self):
        from repro.ivm.governor import ControlEvent

        return [
            ControlEvent(
                t=t,
                governor="policy",
                setting="policy",
                old=old,
                new=new,
                reason="r",
                signals={"s": 1.0},
                view=view,
            )
            for t, view, old, new in [
                (3, "a", "online", "naive"),
                (5, None, "online", "receding"),
                (9, "b", "online", "naive"),
            ]
        ]

    @contextlib.contextmanager
    def _served(self):
        from repro.ivm import governor

        with events_mod.collecting("actuation"):
            for event in self._make_events():
                governor.emit(event)
            with MetricsServer(obs.Recorder(), port=0) as server:
                yield server.url + "/events?kind=actuation"

    def test_provider_payload_golden_shape(self):
        with self._served() as url:
            _, _, body = _get(url)
        payload = json.loads(body)
        assert payload["total"] == 3
        # The per-event JSON shape is the ControlEvent.to_dict contract;
        # goldenned here so scrapers can rely on it.
        assert set(payload["events"]["actuation"][0]) == {
            "t",
            "governor",
            "setting",
            "old",
            "new",
            "reason",
            "signals",
            "view",
            "applied",
        }
        assert "view" not in payload["events"]["actuation"][1]  # omitted when None

    def test_governor_view_and_limit_filters(self):
        with self._served() as url:
            _, _, body = _get(url + "&view=a")
            by_view = json.loads(body)
            _, _, body = _get(url + "&limit=1")
            capped = json.loads(body)
        assert by_view["total"] == 1
        assert by_view["events"]["actuation"][0]["t"] == 3
        assert capped["total"] == 3  # total counts matches, not the cap
        assert len(capped["events"]["actuation"]) == 1
        assert capped["events"]["actuation"][0]["t"] == 9  # most recent kept

    def test_falls_back_to_global_log(self):
        """Without ``kind`` every open ring answers: a step's whole chain."""
        with self._served() as url, decisions_mod.collecting():
            for event in TestDecisionsRoute()._make_events():
                decisions_mod.emit(event)
            _, _, body = _get(url.partition("?")[0] + "?view=a&t=1")
            step = json.loads(body)
            _, _, body = _get(url.partition("?")[0] + "?view=a")
            view = json.loads(body)
        assert step["total"] == 1 and set(step["events"]) == {"decision"}
        assert view["total"] == 3
        assert [e["t"] for e in view["events"]["decision"]] == [0, 1]
        assert [e["t"] for e in view["events"]["actuation"]] == [3]

    def test_404_without_provider_or_log(self):
        assert "actuation" not in events_mod.installed().rings
        with MetricsServer(obs.Recorder(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/events?kind=actuation")
        assert err.value.code == 404
        assert "no 'actuation' ring" in json.loads(err.value.read())["error"]

    def test_400_on_malformed_query(self):
        with self._served() as url:
            for query in ("&limit=x", "&limit=-1"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(url + query)
                assert err.value.code == 400


class TestQuantileParity:
    """/snapshot and /metrics must report the same quantile set, computed
    from the same reservoir -- SUMMARY_QUANTILES is the single source."""

    def test_snapshot_and_prometheus_quantiles_agree(self):
        from repro.obs.metrics import SUMMARY_QUANTILES

        recorder = obs.Recorder()
        for i in range(200):
            recorder.observe("ivm.flush.actual_ms", float(i))
        with MetricsServer(recorder, port=0) as server:
            _, _, snap_body = _get(server.url + "/snapshot")
            _, _, prom_body = _get(server.url + "/metrics")
        snap = json.loads(snap_body)["ivm.flush.actual_ms"]
        assert 0.99 in SUMMARY_QUANTILES
        for q in SUMMARY_QUANTILES:
            key = f"p{int(q * 100)}"
            assert key in snap, f"/snapshot missing {key}"
            line = f'ivm_flush_actual_ms{{quantile="{q}"}} '
            match = [
                l for l in prom_body.splitlines() if l.startswith(line)
            ]
            assert match, f"/metrics missing quantile {q}"
            assert float(match[0].split()[-1]) == snap[key]

    def test_snapshot_gauge_reports_peak(self):
        recorder = obs.Recorder()
        recorder.gauge("slo.refresh_margin", 10.0)
        recorder.gauge("slo.refresh_margin", 4.0)
        with MetricsServer(recorder, port=0) as server:
            _, _, snap_body = _get(server.url + "/snapshot")
            _, _, prom_body = _get(server.url + "/metrics")
        snap = json.loads(snap_body)["slo.refresh_margin"]
        assert snap["value"] == 4.0
        assert snap["peak"] == 10.0
        assert "slo_refresh_margin_peak 10" in prom_body


class TestLiveScrape:
    def test_scrape_while_workload_is_running(self):
        """/metrics answers mid-run while another thread records."""
        recorder = obs.Recorder()
        stop = threading.Event()
        started = threading.Event()

        def workload():
            obs.install(recorder)  # thread-local; the thread ends with it
            while not stop.is_set():
                obs.counter("live.events")
                obs.observe("live.latency_ms", 1.0)
                started.set()

        worker = threading.Thread(target=workload, daemon=True)
        with MetricsServer(recorder, port=0) as server:
            worker.start()
            assert started.wait(timeout=5)
            try:
                for _ in range(3):
                    _, _, body = _get(server.url + "/metrics")
                    assert "live_events_total" in body
            finally:
                stop.set()
                worker.join(timeout=5)

    def test_stop_is_idempotent_and_clean(self):
        import warnings

        server = MetricsServer(obs.Recorder(), port=0)
        server.start()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            server.stop()
            server.stop()  # second stop: no server, no thread, no warning

    def test_stuck_acceptor_thread_is_reported(self):
        """Regression: a serving thread that survives the join timeout
        used to be silently abandoned (port still bound); now it raises
        a RuntimeWarning."""
        server = MetricsServer(obs.Recorder(), port=0)
        release = threading.Event()
        stuck = threading.Thread(target=release.wait, daemon=True)
        stuck.start()
        server._thread = stuck  # simulate an acceptor that won't exit
        server.JOIN_TIMEOUT_S = 0.01
        try:
            with pytest.warns(RuntimeWarning, match="did not exit"):
                server.stop()
            assert server._thread is None
        finally:
            release.set()
            stuck.join(timeout=5)

    def test_stop_releases_port(self):
        recorder = obs.Recorder()
        server = MetricsServer(recorder, port=0)
        port = server.start()
        server.stop()
        # the same port is bindable again immediately
        rebound = MetricsServer(recorder, port=port)
        try:
            assert rebound.start() == port
        finally:
            rebound.stop()
