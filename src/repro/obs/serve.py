"""Stdlib HTTP endpoint serving a live recorder: ``/metrics``, ``/healthz``.

Long-running workloads (the ``timeline`` simulation, the pub/sub broker,
the staged simulator) should be observable *mid-run*, not only from the
exit summary.  :class:`MetricsServer` wraps an
:class:`http.server.ThreadingHTTPServer` on a daemon thread and serves:

``/metrics``
    Prometheus text exposition of the recorder's registry
    (:func:`repro.obs.export.render_prometheus`) -- scrapeable by a real
    Prometheus or just ``curl``.
``/healthz``
    JSON liveness: status, uptime, metric and sample counts.
``/snapshot``
    The raw registry snapshot as JSON (same shape the benchmark results
    persist), for tooling that wants exact values instead of exposition.
``/samples``
    The attached :class:`~repro.obs.sampler.FlightRecorder` ring buffer
    as JSONL (404 when no sampler is attached).
``/views``
    Per-view maintenance-ledger summaries as JSON.  Backed by a ``views``
    provider callable (e.g. ``coordinator.ledger_snapshot``) when one is
    attached; otherwise reconstructed from the registry's ``ivm.view.*``
    metrics, so any run emitting those is covered for free.
``/events``
    The event log (:mod:`repro.obs.events`) as JSON, read at request
    time: ``{"events": {kind: [event dicts]}, "total": N}``.
    ``?kind=`` picks one kind's ring (404 when it is not open);
    without it every open ring answers, so ``?view=V&t=T`` is the whole
    chain recorded for that step -- decision, calibration samples, SLO
    event, actuation.  ``?limit=`` caps each kind (most recent kept;
    ``total`` counts matches, not the cap).

Zero dependencies, thread-safe against the instrumented run (the metric
classes lock their own state), and activated from the CLI with the
global ``--serve-metrics PORT`` flag.  Binding port 0 picks a free port;
:meth:`MetricsServer.start` returns the actual one.
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.obs import events
from repro.obs.export import CONTENT_TYPE, render_prometheus
from repro.obs.recorder import Recorder
from repro.obs.sampler import FlightRecorder

#: Default row cap for the ``/views`` route; override per request with
#: ``?limit=N``.  At fleet scale an uncapped dump of thousands of view
#: summaries makes the endpoint useless to both humans and scrapers.
VIEWS_DEFAULT_LIMIT = 100

#: Default per-kind event cap for the ``/events`` route (most recent kept).
EVENTS_DEFAULT_LIMIT = 100


def _views_from_registry(snapshot: dict) -> dict[str, dict]:
    """Reconstruct per-view summaries from ``ivm.view.*`` metric values.

    The fallback behind ``/views`` when no ledger provider is attached:
    groups ``ivm.view.<id>.<field>`` metrics by view id and flattens each
    metric snapshot to a representative scalar (counter value, gauge
    value, histogram count).
    """
    views: dict[str, dict] = {}
    for name, data in snapshot.items():
        if not name.startswith("ivm.view."):
            continue
        rest = name[len("ivm.view.") :]
        vid, _, metric_field = rest.rpartition(".")
        if not vid:
            continue
        entry = views.setdefault(vid, {})
        if isinstance(data, dict):
            value = data.get("value", data.get("count"))
        else:
            value = data
        entry[metric_field] = value
    return views


class _ObsServer(ThreadingHTTPServer):
    """HTTP server carrying the observed run's state for the handler."""

    daemon_threads = True
    allow_reuse_address = True

    recorder: Recorder
    sampler: FlightRecorder | None
    views_provider: "Callable[[], dict] | None"
    started_at: float


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"
    server: _ObsServer

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes must not spam the run's stdout/stderr

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        if path == "/metrics":
            body = render_prometheus(self.server.recorder.registry)
            self._reply(200, CONTENT_TYPE, body.encode("utf-8"))
        elif path in ("/healthz", "/health"):
            payload = {
                "status": "ok",
                "uptime_s": round(time.time() - self.server.started_at, 3),
                "metrics": len(self.server.recorder.registry),
                "samples": (
                    len(self.server.sampler)
                    if self.server.sampler is not None
                    else None
                ),
            }
            self._reply_json(200, payload)
        elif path == "/snapshot":
            self._reply_json(200, self.server.recorder.registry.snapshot())
        elif path == "/samples":
            sampler = self.server.sampler
            if sampler is None:
                self._reply_json(404, {"error": "no flight recorder attached"})
                return
            body = "".join(
                json.dumps(sample, sort_keys=True) + "\n"
                for sample in sampler.samples()
            )
            self._reply(200, "application/x-ndjson", body.encode("utf-8"))
        elif path == "/views":
            limit = self._limit(query, VIEWS_DEFAULT_LIMIT)
            if limit is None:
                return
            provider = self.server.views_provider
            if provider is not None:
                views = provider()
            else:
                views = _views_from_registry(
                    self.server.recorder.registry.snapshot()
                )
            payload: dict = {"views": views}
            if len(views) > limit:
                # Costliest views first; the extra keys appear only when
                # rows were actually dropped, so small fleets keep the
                # exact legacy payload shape.
                ranked = sorted(
                    views.items(),
                    key=lambda item: (
                        -(self._view_cost(item[1])),
                        item[0],
                    ),
                )
                payload["views"] = dict(ranked[:limit])
                payload["omitted"] = len(views) - limit
                payload["total_views"] = len(views)
            self._reply_json(200, payload)
        elif path == "/events":
            limit = self._limit(query, EVENTS_DEFAULT_LIMIT)
            if limit is None:
                return
            try:
                t_raw = query.get("t", [None])[0]
                t = int(t_raw) if t_raw is not None else None
            except ValueError:
                self._reply_json(400, {"error": "t must be an integer"})
                return
            kind = query.get("kind", [None])[0]
            view = query.get("view", [None])[0]
            rings = dict(events.installed().rings)
            if kind is not None:
                if kind not in rings:
                    self._reply_json(
                        404, {"error": f"no {kind!r} ring is open"}
                    )
                    return
                rings = {kind: rings[kind]}
            found = {k: ring.events(view, t) for k, ring in rings.items()}
            self._reply_json(
                200,
                {
                    "events": {
                        k: [e.to_dict() for e in es[max(len(es) - limit, 0):]]
                        for k, es in found.items()
                        if es
                    },
                    "total": sum(len(es) for es in found.values()),
                },
            )
        else:
            self._reply_json(
                404,
                {
                    "error": f"no route {path!r}",
                    "routes": [
                        "/metrics",
                        "/healthz",
                        "/snapshot",
                        "/samples",
                        "/views",
                        "/events",
                    ],
                },
            )

    def _limit(self, query: dict, default: int) -> int | None:
        """``?limit=`` (a row cap); ``None`` after replying 400 to a bad one."""
        try:
            limit = int(query.get("limit", [default])[0])
        except ValueError:
            self._reply_json(400, {"error": "limit must be an integer"})
            return None
        if limit < 0:
            self._reply_json(400, {"error": "limit must be non-negative"})
            return None
        return limit

    @staticmethod
    def _view_cost(summary) -> float:
        """Ranking key for ``/views`` truncation (simulated cost spent)."""
        if isinstance(summary, dict):
            for key in ("sim_ms", "cost_ms"):
                value = summary.get(key)
                if isinstance(value, (int, float)):
                    return float(value)
        return 0.0

    def _reply_json(self, status: int, payload: object) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._reply(status, "application/json", body)

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class MetricsServer:
    """Serves one recorder over HTTP from a daemon thread.

    Parameters
    ----------
    recorder:
        The run's :class:`~repro.obs.recorder.Recorder` to expose.
    port:
        TCP port to bind; ``0`` picks a free one (the default, right for
        tests).  :meth:`start` returns the bound port either way.
    host:
        Bind address; loopback by default -- metrics can leak workload
        details, so exposing beyond the machine is an explicit choice.
    sampler:
        Optional :class:`FlightRecorder` backing the ``/samples`` route.
    views:
        Optional zero-argument callable returning per-view maintenance
        summaries for the ``/views`` route (typically
        ``coordinator.ledger_snapshot``); without one the route falls
        back to aggregating the registry's ``ivm.view.*`` metrics.
    """

    def __init__(
        self,
        recorder: Recorder,
        port: int = 0,
        host: str = "127.0.0.1",
        sampler: FlightRecorder | None = None,
        views: "Callable[[], dict] | None" = None,
    ):
        self.recorder = recorder
        self.requested_port = int(port)
        self.host = host
        self.sampler = sampler
        self.views = views
        self._server: _ObsServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        """Bind and serve in the background; returns the actual port."""
        if self._server is not None:
            return self.port
        server = _ObsServer((self.host, self.requested_port), _Handler)
        server.recorder = self.recorder
        server.sampler = self.sampler
        server.views_provider = self.views
        server.started_at = time.time()
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="obs-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self.port

    #: How long :meth:`stop` waits for the serving thread to exit before
    #: declaring it leaked (class attribute so tests can tighten it).
    JOIN_TIMEOUT_S = 5.0

    def stop(self) -> None:
        """Shut the server down and release the port (idempotent).

        A serving thread that fails to exit within :attr:`JOIN_TIMEOUT_S`
        raises a :class:`RuntimeWarning` instead of being silently
        abandoned -- a leaked acceptor thread keeps the port bound.
        """
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=self.JOIN_TIMEOUT_S)
            if thread.is_alive():
                warnings.warn(
                    f"metrics-server thread {thread.name!r} did not exit "
                    f"within {self.JOIN_TIMEOUT_S}s; a daemon thread (and "
                    f"its port) may be leaked",
                    RuntimeWarning,
                    stacklevel=2,
                )

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "serving" if self._server is not None else "stopped"
        return f"MetricsServer({self.url}, {state})"
