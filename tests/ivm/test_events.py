"""Tests for ControlEvent, its ``actuation`` ring, and its rendering."""

import json

from repro import obs
from repro.ivm.governor import ControlEvent, emit
from repro.obs import events


def render_control_log(trail, **filters) -> str:
    """What ``repro control-log`` prints."""
    return events.render_trail(trail, "control log", "event", **filters)


def _event(**overrides):
    base = dict(
        t=5,
        old="online",
        new="naive",
        reason="slo pressure",
        signals={"pressure_events": 3.0},
        view="paper_view",
    )
    base.update(overrides)
    return ControlEvent(**base)


class TestControlEvent:
    def test_dict_roundtrip(self):
        event = _event()
        clone = ControlEvent.from_dict(event.to_dict())
        assert clone == event

    def test_roundtrip_through_json(self):
        event = _event(old=2048, new=1024, view=None)
        line = json.dumps(event.to_dict(), sort_keys=True)
        clone = ControlEvent.from_dict(json.loads(line))
        assert clone == event

    def test_view_omitted_from_dict_when_none(self):
        assert "view" not in _event(view=None).to_dict()

    def test_from_dict_defaults(self):
        minimal = ControlEvent.from_dict({"old": "online", "new": "naive"})
        assert minimal.t is None
        assert minimal.reason == ""
        assert minimal.signals == {}
        assert minimal.view is None


class TestControlLog:
    def test_bounded_ring_counts_dropped(self, event_log, monkeypatch):
        monkeypatch.setitem(events.CAPACITY, "actuation", 3)
        event_log.open("actuation")
        for t in range(5):
            emit(_event(t=t))
        ring = event_log.rings["actuation"]
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e.t for e in ring.events()] == [2, 3, 4]

    def test_filtered(self):
        with events.collecting("actuation") as log:
            ring = log.rings["actuation"]
            emit(_event(view="a", t=1))
            emit(_event(view=None, t=1))
            emit(_event(view="b", t=2))
        assert len(ring.events(t=1)) == 2
        assert [e.t for e in ring.events() if e.view == "b"] == [2]
        assert ring.events(t=3) == []


class TestGlobalSink:
    def test_set_returns_previous_and_collecting_restores(self, event_log):
        assert not events.wanted("actuation")
        with events.collecting("actuation") as log:
            assert log is event_log
            ring = log.rings["actuation"]
            emit(_event())
        assert not events.wanted("actuation")
        emit(_event())  # closed again: not recorded
        assert len(ring) == 1

    def test_emit_without_log_or_recorder_is_safe(self):
        assert not events.wanted("actuation")
        emit(_event())  # neither sink exists: must not raise

    def test_emit_metrics(self):
        with obs.recording() as rec, events.collecting("actuation"):
            emit(_event())
            emit(_event(t=6))
        assert [
            n for n in rec.registry.names() if n.startswith("control.")
        ] == ["control.actuations"]
        assert rec.registry.get("control.actuations").value == 2


class TestRender:
    def test_empty(self):
        assert render_control_log([]) == "control log: no events"

    def test_empty_with_filters_names_scope(self):
        out = render_control_log([_event()], view="other")
        assert out == "control log: no events matching view=other"

    def test_tree_shape(self):
        out = render_control_log([_event()])
        lines = out.splitlines()
        assert lines[0] == "control log: 1 event(s)"
        assert lines[1:] == [
            "t=5 view=paper_view: policy 'online' -> 'naive'",
            "├─ reason: slo pressure",
            "└─ signals: pressure_events=3.000",
        ]

    def test_filters(self):
        trail = [_event(view="a"), _event(view="b", t=9)]
        out = render_control_log(trail, view="b")
        assert "t=9 view=b" in out
        assert "view=a" not in out
