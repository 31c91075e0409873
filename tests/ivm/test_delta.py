"""Unit tests for delta tables (pending-modification queues)."""

import pytest

from repro.engine.errors import ExecutionError
from repro.engine.table import Table
from repro.engine.types import ColumnType, Schema
from repro.ivm.delta import DeltaTable


@pytest.fixture
def table():
    t = Table("t", Schema.of(k=ColumnType.INT))
    for i in range(3):
        t.insert((i,))
    return t


class TestPull:
    def test_starts_caught_up(self, table):
        delta = DeltaTable(table)
        assert delta.size == 0
        assert delta.applied_lsn == table.current_lsn

    def test_pull_ingests_new_events(self, table):
        delta = DeltaTable(table)
        table.insert((10,))
        table.insert((11,))
        assert delta.pull() == 2
        assert delta.size == 2
        assert delta.seen_lsn == table.current_lsn

    def test_pull_is_incremental(self, table):
        delta = DeltaTable(table)
        table.insert((10,))
        delta.pull()
        table.insert((11,))
        assert delta.pull() == 1
        assert delta.size == 2

    def test_pull_with_nothing_new(self, table):
        delta = DeltaTable(table)
        assert delta.pull() == 0


class TestTake:
    def test_fifo_order(self, table):
        delta = DeltaTable(table)
        lo = delta.applied_lsn
        table.insert((10,))
        table.insert((11,))
        delta.pull()
        delta.advance(1)
        assert delta.log.columns(lo, delta.applied_lsn)[1] == [(10,)]
        delta.advance(1)
        assert delta.log.columns(lo, delta.applied_lsn)[1] == [(10,), (11,)]
        assert delta.size == 0

    def test_take_advances_applied_lsn(self, table):
        delta = DeltaTable(table)
        base_lsn = table.current_lsn
        table.insert((10,))
        table.insert((11,))
        delta.pull()
        delta.advance(1)
        assert delta.applied_lsn == base_lsn + 1
        delta.advance(1)
        assert delta.applied_lsn == base_lsn + 2

    def test_partial_take_keeps_remainder(self, table):
        delta = DeltaTable(table)
        for i in range(4):
            table.insert((100 + i,))
        delta.pull()
        delta.advance(2)
        assert delta.size == 2
        lo = delta.applied_lsn
        assert delta.log.columns(lo, lo + 1)[1] == [(102,)]

    def test_take_zero_on_empty_syncs_applied(self, table):
        delta = DeltaTable(table)
        table.insert((10,))
        delta.pull()
        delta.advance(1)
        assert delta.advance(0) is None
        assert delta.applied_lsn == delta.seen_lsn

    def test_advance_is_take_without_the_events(self, table):
        """Advancing by two is advancing by one twice."""
        stepped, advanced = DeltaTable(table), DeltaTable(table)
        for i in range(3):
            table.insert((10 + i,))
        for delta in (stepped, advanced):
            delta.pull()
        stepped.advance(1)
        stepped.advance(1)
        assert advanced.advance(2) is None
        assert advanced.applied_lsn == stepped.applied_lsn
        assert advanced.size == stepped.size == 1

    def test_advance_checks_bounds_like_take(self, table):
        delta = DeltaTable(table)
        table.insert((10,))
        delta.pull()
        with pytest.raises(ExecutionError, match="only 1 pending"):
            delta.advance(2)
        with pytest.raises(ValueError):
            delta.advance(-1)
        assert delta.size == 1
        delta.advance(0)
        assert delta.size == 1

    def test_advance_counts_as_taken(self, table):
        from repro import obs

        delta = DeltaTable(table)
        for i in range(3):
            table.insert((10 + i,))
        delta.pull()
        with obs.recording() as recorder:
            delta.advance(2)
            delta.advance(1)
            delta.advance(0)
        assert recorder.registry.get("ivm.delta.window_taken").value == 3

    def test_take_all(self, table):
        delta = DeltaTable(table)
        for i in range(3):
            table.insert((i,))
        delta.pull()
        delta.advance(delta.size)
        assert delta.size == 0
        assert delta.applied_lsn == table.current_lsn

    def test_snapshot_at_applied_lsn_matches_processed_state(self, table):
        """The invariant the state-bug fix rests on."""
        delta = DeltaTable(table)
        table.insert((10,))
        table.update_rid(0, {"k": 99})
        delta.pull()
        delta.advance(1)  # incorporate only the insert of 10
        snap = table.snapshot(delta.applied_lsn)
        assert sorted(snap.rows()) == [(0,), (1,), (2,), (10,)]
        delta.advance(1)  # incorporate the update 0 -> 99
        snap = table.snapshot(delta.applied_lsn)
        assert sorted(snap.rows()) == [(1,), (2,), (10,), (99,)]
