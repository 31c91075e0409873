"""Tests for ControlEvent / ControlLog / the global sink / rendering."""

import json

import pytest

from repro import obs
from repro.control import events as control_events
from repro.control.events import (
    ControlEvent,
    ControlLog,
    collecting,
    emit,
    get_control_log,
    render_control_log,
    set_control_log,
)


def _event(**overrides):
    base = dict(
        t=5,
        governor="policy",
        setting="policy",
        old="online",
        new="naive",
        reason="slo pressure",
        signals={"pressure_events": 3.0},
        view="paper_view",
        applied=True,
    )
    base.update(overrides)
    return ControlEvent(**base)


class TestControlEvent:
    def test_dict_roundtrip(self):
        event = _event()
        clone = ControlEvent.from_dict(event.to_dict())
        assert clone == event

    def test_roundtrip_through_json(self):
        event = _event(old=2048, new=1024, governor="block_size", view=None)
        line = json.dumps(event.to_dict(), sort_keys=True)
        clone = ControlEvent.from_dict(json.loads(line))
        assert clone == event

    def test_view_omitted_from_dict_when_none(self):
        assert "view" not in _event(view=None).to_dict()

    def test_from_dict_defaults(self):
        minimal = ControlEvent.from_dict(
            {"governor": "block_size", "setting": "block_size"}
        )
        assert minimal.t is None
        assert minimal.applied is True
        assert minimal.signals == {}
        assert minimal.view is None


class TestControlLog:
    def test_bounded_ring_counts_dropped(self):
        log = ControlLog(capacity=3)
        for t in range(5):
            log.record(_event(t=t))
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.t for e in log.events()] == [2, 3, 4]

    def test_filtered(self):
        log = ControlLog()
        log.record(_event(governor="policy", view="a"))
        log.record(_event(governor="block_size", view=None))
        log.record(_event(governor="policy", view="b"))
        assert len(log.filtered(governor="policy")) == 2
        assert len(log.filtered(view="b")) == 1
        assert len(log.filtered(governor="block_size", view="b")) == 0


class TestGlobalSink:
    def test_set_returns_previous_and_collecting_restores(self):
        assert get_control_log() is None
        outer = ControlLog()
        assert set_control_log(outer) is None
        try:
            with collecting() as inner:
                assert get_control_log() is inner
                emit(_event())
            assert get_control_log() is outer
            assert len(inner) == 1
            assert len(outer) == 0
        finally:
            set_control_log(None)

    def test_emit_without_log_or_recorder_is_safe(self):
        assert get_control_log() is None
        emit(_event())  # neither sink exists: must not raise

    def test_emit_metrics(self):
        with obs.recording() as rec, collecting():
            emit(_event(applied=True))
            emit(_event(applied=False))
        assert rec.registry.get("control.events").value == 2
        assert rec.registry.get("control.actuations").value == 1


class TestRender:
    def test_empty(self):
        assert render_control_log([]) == "control log: no events"

    def test_empty_with_filters_names_scope(self):
        out = render_control_log([_event()], governor="block_size")
        assert out == "control log: no events matching governor=block_size"

    def test_tree_shape(self):
        out = render_control_log([_event()])
        lines = out.splitlines()
        assert lines[0] == "control log: 1 event(s)"
        assert "t=5 policy view=paper_view: set policy 'online' -> 'naive'" in lines[1]
        assert lines[2].startswith("├─ reason: slo pressure")
        assert "signals: pressure_events=3.000" in lines[3]
        assert lines[4] == "└─ applied: yes"

    def test_held_events_say_so(self):
        out = render_control_log([_event(applied=False)])
        assert "held policy" in out
        assert "applied: no" in out

    def test_filters(self):
        events = [
            _event(governor="policy", view="a"),
            _event(governor="block_size", view=None, t=9),
        ]
        out = render_control_log(events, governor="block_size")
        assert "t=9 block_size" in out
        assert "view=a" not in out
