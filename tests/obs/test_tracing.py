"""Tests for span tracing, the recorder, and JSONL export."""

import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.obs.tracing import NULL_SPAN, read_jsonl, write_jsonl


class TestDisabled:
    def test_no_recorder_by_default(self):
        assert obs.get_recorder() is None

    def test_helpers_are_noops_without_recorder(self):
        # Must not raise, must not allocate a registry anywhere.
        obs.counter("astar.expanded", 5)
        obs.gauge_max("astar.heap_peak", 2.0)
        obs.observe("engine.execute.sim_ms", 3.0)

    def test_trace_returns_shared_null_span(self):
        span = obs.trace("astar.search", horizon=5)
        assert span is NULL_SPAN
        with span as inner:
            assert inner.set(rows=1) is inner


class TestRecording:
    def test_recording_installs_and_restores(self):
        assert obs.get_recorder() is None
        with obs.recording() as rec:
            assert obs.get_recorder() is rec
            obs.counter("x")
            assert rec.registry.get("x").value == 1
        assert obs.get_recorder() is None

    def test_recordings_nest(self):
        with obs.recording() as outer:
            with obs.recording() as inner:
                obs.counter("only.inner")
                assert obs.get_recorder() is inner
            assert obs.get_recorder() is outer
            assert outer.registry.get("only.inner") is None

    def test_install_is_thread_local(self):
        with obs.recording() as rec:
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(obs.get_recorder())
            )
            thread.start()
            thread.join()
        assert seen == [None]
        assert rec is not None


class TestSpans:
    def test_nested_spans_record_parenting(self):
        with obs.recording(trace=True) as rec:
            with obs.trace("outer", depth=0):
                with obs.trace("outer.inner"):
                    pass
                with obs.trace("outer.second"):
                    pass
        events = {e["name"]: e for e in rec.events.events()}
        outer = events["outer"]
        assert outer["parent"] is None
        assert events["outer.inner"]["parent"] == outer["id"]
        assert events["outer.second"]["parent"] == outer["id"]
        assert outer["ph"] == "X"
        assert outer["dur"] >= 0
        # Children finish before the parent, so they appear first.
        assert [e["name"] for e in rec.events.events()][-1] == "outer"

    def test_span_attrs_and_error_flag(self):
        with obs.recording(trace=True) as rec:
            with pytest.raises(RuntimeError):
                with obs.trace("phase", k=40) as span:
                    span.set(rows=7)
                    raise RuntimeError("boom")
        (event,) = rec.events.events()
        assert event["args"] == {"k": 40, "rows": 7, "error": "RuntimeError"}

    def test_spans_feed_ms_histograms_even_without_trace(self):
        with obs.recording(trace=False) as rec:
            with obs.trace("ivm.flush"):
                pass
        assert len(rec.events) == 0  # no trace buffer when disabled
        hist = rec.registry.get("ivm.flush.ms")
        assert hist is not None and hist.count == 1

    def test_category_is_first_dotted_segment(self):
        with obs.recording(trace=True) as rec:
            with obs.trace("engine.io.load_table"):
                pass
        (event,) = rec.events.events()
        assert event["cat"] == "engine"


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.recording(trace=True) as rec:
            with obs.trace("a", k=1):
                with obs.trace("a.b"):
                    pass
            obs.counter("rows", 12)
            count = rec.write_trace(path)
        events = read_jsonl(path)
        assert len(events) == count >= 3
        spans = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in spans} == {"a", "a.b"}
        # Metrics ride along as Chrome counter events.
        assert any(e["name"] == "rows" for e in counters)
        by_name = {e["name"]: e for e in spans}
        assert by_name["a.b"]["parent"] == by_name["a"]["id"]

    def test_read_jsonl_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl(path)

    def test_summary_table_covers_span_timings(self):
        with obs.recording() as rec:
            with obs.trace("simulator.simulate_policy"):
                pass
        assert "simulator.simulate_policy.ms" in rec.summary_table()


_ATTR_VALUE = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),  # includes unicode, quotes, newlines
    st.booleans(),
    st.none(),
)
_ATTRS = st.dictionaries(
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_"
        ),
        min_size=1,
        max_size=10,
    ),
    _ATTR_VALUE,
    max_size=4,
)


class TestJsonlRoundTripProperty:
    """write_jsonl -> read_jsonl is the identity on recorded traces."""

    @given(
        spans=st.lists(
            st.tuples(
                st.sampled_from(["astar.search", "ivm.flush", "engine.io"]),
                _ATTRS,
                st.integers(min_value=0, max_value=2),  # nesting depth
            ),
            max_size=8,
        ),
        counters=st.dictionaries(
            st.sampled_from(["rows", "events", "slo.breaches"]),
            st.integers(min_value=1, max_value=10**9),
            max_size=3,
        ),
    )
    # The first draw of ``st.characters`` in a checkout with no
    # ``.hypothesis/`` builds the unicode table (~2 s): slow, not wrong.
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_round_trip_preserves_events(self, spans, counters):
        with obs.recording(trace=True) as rec:
            for name, attrs, depth in spans:
                stack = []
                for level in range(depth + 1):
                    span = obs.trace(f"{name}.d{level}" if level else name)
                    stack.append(span)
                    span.__enter__()
                    span.set(**attrs)
                for span in reversed(stack):
                    span.__exit__(None, None, None)
            for name, value in counters.items():
                obs.counter(name, value)
        events = rec.trace_events()
        # hypothesis forbids function-scoped fixtures, so no tmp_path here
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            count = write_jsonl(events, path)
            loaded = read_jsonl(path)
        assert count == len(events)
        assert loaded == events
        # Span nesting ids survive: each child's parent id is present.
        by_id = {e["id"]: e for e in loaded if e.get("ph") == "X"}
        for event in by_id.values():
            if event["parent"] is not None:
                assert event["parent"] in by_id
