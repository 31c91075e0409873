"""Unit tests for MVCC-lite tables, histories, and snapshots."""

import pytest

from repro import obs
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.index import Index
from repro.engine.snapshot import Snapshot
from repro.engine.table import Table
from repro.engine.types import ColumnType, Schema


@pytest.fixture
def table():
    return Table("t", Schema.of(k=ColumnType.INT, v=ColumnType.STR))


class TestModifications:
    def test_insert_assigns_lsns(self, table):
        e1 = table.insert((1, "a"))
        e2 = table.insert((2, "b"))
        assert (e1.lsn, e2.lsn) == (1, 2)
        assert table.current_lsn == 2
        assert table.live_count == 2

    def test_insert_validates_schema(self, table):
        with pytest.raises(SchemaError):
            table.insert(("not-int", "a"))

    def test_delete(self, table):
        table.insert((1, "a"))
        [lsn] = table.delete_rids([0])
        event = table.history[lsn - 1]
        assert event.kind == "delete"
        assert event.old_values == (1, "a")
        assert table.live_count == 0

    def test_delete_dead_row_rejected(self, table):
        table.insert((1, "a"))
        table.delete_rids([0])
        with pytest.raises(ExecutionError, match="not live"):
            table.delete_rids([0])

    def test_delete_out_of_range(self, table):
        with pytest.raises(ExecutionError, match="out of range"):
            table.delete_rids([5])

    def test_update_creates_new_version(self, table):
        table.insert((1, "a"))
        event = table.update_rid(0, {"v": "z"})
        assert event.kind == "update"
        assert event.old_values == (1, "a")
        assert event.new_values == (1, "z")
        assert table.live_count == 1
        assert table.version_count() == 2
        assert list(table.live_rows()) == [(1, "z")]

    def test_update_requires_changes(self, table):
        table.insert((1, "a"))
        with pytest.raises(ExecutionError, match="no changed columns"):
            table.update_rid(0, {})

    def test_update_validates_types(self, table):
        table.insert((1, "a"))
        with pytest.raises(SchemaError):
            table.update_rid(0, {"k": "oops"})

    def test_history_records_everything(self, table):
        table.insert((1, "a"))
        table.update_rid(0, {"v": "b"})
        table.delete_rids([1])
        kinds = [e.kind for e in table.history]
        assert kinds == ["insert", "update", "delete"]

    def test_events_between(self, table):
        for i in range(5):
            table.insert((i, "x"))
        olds, news = table.history.columns(1, 4)
        assert olds == [None] * 3
        assert news == [(1, "x"), (2, "x"), (3, "x")]
        assert [table.history[p].lsn for p in range(1, 4)] == [2, 3, 4]

    def test_find_rids(self, table):
        table.insert((1, "a"))
        table.insert((2, "b"))
        table.insert((3, "a"))
        rids = table.find_rids(lambda row: row[1] == "a")
        assert rids == [0, 2]


class TestSnapshots:
    def test_snapshot_sees_past_state(self, table):
        table.insert((1, "a"))
        lsn = table.current_lsn
        table.insert((2, "b"))
        table.update_rid(0, {"v": "z"})
        old = table.snapshot(lsn)
        assert sorted(old.rows()) == [(1, "a")]
        now = table.snapshot()
        assert sorted(now.rows()) == [(1, "z"), (2, "b")]

    def test_snapshot_counts_cached(self, table):
        table.insert((1, "a"))
        snap = table.snapshot()
        assert snap.count() == 1
        table.insert((2, "b"))  # snapshot stays pinned at its LSN
        assert snap.count() == 1

    def test_snapshot_of_deleted_row(self, table):
        table.insert((1, "a"))
        lsn = table.current_lsn
        table.delete_rids([0])
        assert list(table.snapshot(lsn).rows()) == [(1, "a")]
        assert list(table.snapshot().rows()) == []

    def test_snapshot_lsn_bounds(self, table):
        with pytest.raises(ExecutionError):
            table.snapshot(5)
        with pytest.raises(ExecutionError):
            table.snapshot(-1)

    def test_snapshot_at_zero_is_empty(self, table):
        table.insert((1, "a"))
        assert list(table.snapshot(0).rows()) == []

    def test_column_values(self, table):
        table.insert((1, "a"))
        table.insert((2, "b"))
        assert sorted(table.snapshot().column("k")) == [1, 2]


class TestRetainedSnapshots:
    def test_same_lsn_hands_out_the_same_snapshot(self, table):
        table.insert((1, "a"))
        with obs.recording() as recorder:
            first = table.snapshot()
            assert table.snapshot() is first
            assert table.snapshot(1) is first
            table.insert((2, "b"))
            assert table.snapshot(1) is first
            assert table.snapshot() is not first
        reused = recorder.registry.snapshot()["engine.snapshot.reused"]
        assert reused["value"] == 3

    def test_build_side_groups_rows_in_version_order(self, table):
        for row in [(1, "a"), (2, "b"), (1, "c")]:
            table.insert(row)
        side = table.snapshot().keyed("k")
        assert side == {}  # nothing is derived before a probe asks
        assert side[1] == [(1, "a"), (1, "c")]
        assert side[2] == [(2, "b")]
        assert side == {1: [(1, "a"), (1, "c")], 2: [(2, "b")]}
        assert table.snapshot().keyed("k") is side

    def test_later_snapshot_rolls_the_build_side_forward(self, table):
        for row in [(1, "a"), (2, "b"), (1, "c"), (3, "d")]:
            table.insert(row)
        old = table.snapshot()
        assert old.count() == 4
        old_side = old.keyed("k")
        before = {key: list(old_side[key]) for key in (1, 2, 3)}
        table.update_rid(0, {"v": "z"})  # (1, a) -> (1, z), now last of key 1
        table.delete_rids([3])  # key 3 empties
        table.insert((4, "e"))
        new = table.snapshot()
        side = new.keyed("k")
        # Inherited, not rebuilt: the visible-row list was never made, and
        # the keys the window touched are gone until a probe asks.
        assert new._visible is None
        assert new.count() == 4
        assert side == {2: [(2, "b")]}
        with obs.recording() as recorder:
            probed = {key: side[key] for key in (1, 2, 3, 4, 5)}
        derived = recorder.registry.snapshot()["engine.snapshot.derived_keys"]
        assert derived["value"] == 4  # 1, 3, 4 and the absent 5; 2 was kept
        direct = Snapshot(table, new.lsn).keyed("k")
        assert probed == {key: direct[key] for key in probed}
        assert probed[1] == [(1, "c"), (1, "z")]
        assert probed[3] == probed[5] == []
        assert new.count() == len(new.row_list())
        # Derived once: a second probe reads the stored bucket.
        assert side[1] is probed[1]
        # The earlier snapshot still reads as of its LSN, and an untouched
        # bucket is shared rather than copied.
        assert old_side == before
        assert side[2] is old_side[2]

    def test_duplicate_rows_roll_exactly(self, table):
        for row in [(1, "x"), (1, "y"), (1, "x")]:
            table.insert(row)
        old = table.snapshot()
        assert old.count() == 3
        assert old.keyed("k")[1] == [(1, "x"), (1, "y"), (1, "x")]
        table.delete_rids([2])  # the *second* (1, x); values alone cannot say so
        new = table.snapshot()
        assert new.keyed("k")[1] == [(1, "x"), (1, "y")]
        assert new._visible is None
        assert new.count() == 2

    def test_held_snapshot_probed_after_later_writes_reads_its_own_lsn(
        self, table
    ):
        for row in [(1, "a"), (2, "b")]:
            table.insert(row)
        first = table.snapshot().keyed("k")
        assert (first[1], first[2]) == ([(1, "a")], [(2, "b")])
        table.update_rid(0, {"v": "z"})  # (1, a) -> (1, z) at slot 2
        held = table.snapshot()
        side = held.keyed("k")
        assert 1 not in side
        assert side[2] is first[2]
        table.update_rid(2, {"v": "w"})  # (1, z) -> (1, w)
        table.insert((1, "c"))
        table.delete_rids([1])  # (2, b) dies
        table.snapshot().keyed("k")  # a later roll shares nothing back
        assert side[1] == [(1, "z")]
        assert side[2] == [(2, "b")]
        assert side[3] == []


class TestIndexedSnapshots:
    def test_index_lookup_current(self, table):
        table.create_index("k")
        table.insert((1, "a"))
        table.insert((1, "b"))
        table.insert((2, "c"))
        snap = table.snapshot()
        assert sorted(snap.lookup("k", 1)) == [(1, "a"), (1, "b")]
        assert snap.lookup("k", 9) == []

    def test_index_lookup_historical_is_exact(self, table):
        """Version-aware indexes serve any snapshot LSN exactly."""
        table.create_index("k")
        table.insert((1, "a"))
        lsn = table.current_lsn
        table.update_rid(0, {"v": "z"})
        table.insert((1, "extra"))
        old = table.snapshot(lsn)
        assert old.lookup("k", 1) == [(1, "a")]
        now = table.snapshot()
        assert sorted(now.lookup("k", 1)) == [(1, "extra"), (1, "z")]

    def test_index_backfill_covers_existing_versions(self, table):
        table.insert((1, "a"))
        lsn = table.current_lsn
        table.delete_rids([0])
        table.create_index("k")  # created after the delete
        assert table.snapshot(lsn).lookup("k", 1) == [(1, "a")]
        assert table.snapshot().lookup("k", 1) == []

    def test_lookup_of_a_key_of_another_type_answers_empty(self, table):
        table.create_index("k")
        table.insert((1, "a"))
        snap = table.snapshot()
        assert snap.lookup("k", "1") == []
        assert snap.lookup("k", None) == []
        assert snap.lookup("k", 1) == [(1, "a")]

    def test_lookup_without_index_raises(self, table):
        table.insert((1, "a"))
        with pytest.raises(LookupError):
            table.snapshot().lookup("v", "a")
        assert not table.snapshot().has_index("v")

    def test_unknown_column_leaves_the_table_writable(self, table):
        with pytest.raises(SchemaError):
            table.create_index("nope")
        with pytest.raises(SchemaError):
            table.snapshot().keyed("nope")
        table.insert((1, "a"))
        assert table.indexes == {}
        assert table.snapshot().keyed("k")[1] == [(1, "a")]

    def test_duplicate_index_rejected(self, table):
        table.create_index("k")
        with pytest.raises(SchemaError, match="already exists"):
            table.create_index("k")

    def test_index_is_a_declaration(self, table):
        table.insert((1, "a"))
        index = table.create_index("k")
        assert index == Index("t_k_idx", "k")
        assert table.indexes == {"t_k_idx": index}
        assert table.index_on("k") is index
        assert table.index_on("v") is None
        # The key map it reads is built with it, as set-up.
        assert table._key_maps == {"k": {1: [table.version(0)]}}

    def test_index_probes_roll_forward_sharing_untouched_buckets(self, table):
        table.create_index("k")
        table.insert_rows([(key, str(key)) for key in range(5)])
        old = table.snapshot()
        before = {key: old.lookup("k", key) for key in range(5)}
        table.update_rid(2, {"k": 7})  # key 2 loses its row, key 7 gains it
        new = table.snapshot()
        with obs.recording() as recorder:
            after = {key: new.lookup("k", key) for key in range(5)}
        derived = recorder.registry.snapshot()["engine.snapshot.derived_keys"]
        assert derived["value"] == 1  # key 2, the only one touched and probed
        assert all(after[key] is before[key] for key in (0, 1, 3, 4))
        assert (before[2], after[2]) == ([(2, "2")], [])
        assert new.lookup("k", 7) == [(7, "2")]


class TestCostCharging:
    def test_modifications_charge_counter(self, table):
        before = table.counter.row_writes
        table.insert((1, "a"))
        table.update_rid(0, {"v": "b"})
        assert table.counter.row_writes == before + 3  # 1 insert + 2 update

    def test_create_index_charges_one_maintain_per_stored_version(self, table):
        table.insert_rows([(1, "a"), (2, "b"), (3, "c")])
        table.update_rid(0, {"v": "z"})
        table.delete_rids([1])
        before = table.counter.snapshot()
        table.create_index("k")
        # Four versions stored, two of them dead: each is charged.
        assert table.counter.since(before) == {"index_maintains": 4}
