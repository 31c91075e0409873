"""Tests for the zero-dependency metrics registry."""

import json

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_name,
)


class TestNames:
    def test_dotted_names_accepted(self):
        for name in ("astar.expanded", "a", "engine.join.nl.rows_out", "x-1_y"):
            assert check_name(name) == name

    @pytest.mark.parametrize(
        "bad", ["", ".", "a.", ".a", "a..b", "a b", "a/b", None, 7]
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            check_name(bad)


class TestCounter:
    def test_increments(self):
        c = Counter("events")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("events").inc(-1)


class TestGauge:
    def test_last_write_wins_with_peak(self):
        g = Gauge("backlog")
        g.set(3.0)
        g.set(9.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.peak == 9.0

    def test_set_max_keeps_peak_only(self):
        g = Gauge("heap_peak")
        g.set_max(5)
        g.set_max(2)
        g.set_max(11)
        assert g.value == 11.0

    def test_unset_snapshot_is_none(self):
        assert Gauge("idle").snapshot()["value"] is None


class TestHistogram:
    def test_exact_quantiles_below_reservoir(self):
        h = Histogram("latency")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.count == 100
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(50.5)
        assert h.quantile(0.50) == 50
        assert h.quantile(0.95) == 95
        assert h.quantile(0.0) == 1
        assert h.quantile(1.0) == 100

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("latency").quantile(1.5)

    def test_reservoir_bounds_memory_counts_stay_exact(self, monkeypatch):
        monkeypatch.setattr(metrics, "RESERVOIR_SIZE", 16)
        h = Histogram("big")
        for v in range(1000):
            h.observe(v)
        assert h.count == 1000
        assert h.total == sum(range(1000))
        assert h.max == 999
        assert len(h._reservoir) == 16
        # Sampled quantiles stay inside the observed range.
        assert 0 <= h.quantile(0.5) <= 999

    def test_empty_snapshot(self):
        assert Histogram("idle").snapshot() == {"type": "histogram", "count": 0}


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.histogram("a.b")

    def test_names_prefix_respects_dotted_segments(self):
        reg = MetricsRegistry()
        for name in ("astar.expanded", "astar.generated", "astarx.other"):
            reg.counter(name)
        assert [n for n in reg.names() if n.startswith("astar.")] == [
            "astar.expanded", "astar.generated",
        ]
        with pytest.raises(TypeError):
            reg.names("astar")  # every name is static: no family lookup
        assert reg.names() == sorted(
            ["astar.expanded", "astar.generated", "astarx.other"]
        )

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        parsed = json.loads(json.dumps(reg.snapshot()))
        assert parsed["c"] == {"type": "counter", "value": 3}
        assert parsed["h"]["count"] == 1

    def test_summary_table_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("engine.queries").inc(2)
        reg.gauge("astar.heap_peak").set(7)
        reg.histogram("ivm.flush.batch_size").observe(40)
        table = reg.summary_table()
        assert "engine.queries" in table
        assert "astar.heap_peak" in table
        assert "ivm.flush.batch_size" in table
        assert "p95" in table  # header present
