"""Tests for the paper's update streams."""

import pytest

from repro.engine.database import Database
from repro.tpcr.gen import load_tpcr
from repro.tpcr.updates import PartSuppCostUpdater, SupplierNationUpdater


@pytest.fixture
def db():
    database = Database()
    load_tpcr(database, scale=0.002)
    return database


class TestPartSuppCostUpdater:
    def test_updates_supplycost_only(self, db):
        ps = db.table("partsupp")
        updater = PartSuppCostUpdater(ps, seed=1)
        [lsn] = updater.apply(1)
        event = ps.history[lsn - 1]
        assert event.kind == "update"
        old, new = event.old_values, event.new_values
        assert old[3] != new[3] or old == new  # supplycost changed (pos 3)
        assert old[:3] == new[:3]
        assert old[4] == new[4]
        assert 1.00 <= new[3] <= 1000.00

    def test_apply_k(self, db):
        ps = db.table("partsupp")
        updater = PartSuppCostUpdater(ps, seed=1)
        before = ps.current_lsn
        events = updater.apply(7)
        assert len(events) == 7
        assert ps.current_lsn == before + 7
        assert ps.live_count == 1600  # updates preserve cardinality

    def test_callable_interface(self, db):
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=1)
        before = db.table("partsupp").current_lsn
        updater(4)
        assert db.table("partsupp").current_lsn == before + 4

    def test_live_rid_tracking_survives_many_updates(self, db):
        ps = db.table("partsupp")
        updater = PartSuppCostUpdater(ps, seed=1)
        updater.apply(3 * ps.live_count)  # every row updated ~3x on average
        assert ps.live_count == 1600
        # All tracked rids must still be live.
        for rid in updater._live_rids:
            assert ps.version(rid).xmax is None
        assert sorted(updater._live_rids) == ps.live_rids()
        # Its own batches are no reason to read the table again.
        held = updater._live_rids
        updater.apply(3)
        assert updater._live_rids is held

    def test_foreign_insert_becomes_a_possible_victim(self, db):
        ps = db.table("partsupp")
        updater = PartSuppCostUpdater(ps, seed=1)
        updater.apply(10)
        ps.insert((999_999, 1, 10, 5.0, "new row"))
        for _ in range(40):  # 40 x 200 draws over 1601 rows
            updater.apply(200)
            if any(row[0] == 999_999 and row[3] != 5.0 for row in ps.live_rows()):
                break
        else:
            pytest.fail("a row another writer inserted was never updated")
        assert ps.live_count == 1601

    def test_foreign_delete_is_never_picked(self, db):
        sup = db.table("supplier")
        updater = SupplierNationUpdater(sup, seed=2)
        updater.apply(5)
        for rid in sup.live_rids()[:15]:
            sup.delete_rids([rid])
        # 5 live suppliers left: 200 draws would hit a dead one, and raise.
        updater.apply(200)
        assert sup.live_count == 5
        assert sorted(updater._live_rids) == sup.live_rids()

    def test_determinism(self, db):
        db2 = Database()
        load_tpcr(db2, scale=0.002)
        ps1, ps2 = db.table("partsupp"), db2.table("partsupp")
        l1 = PartSuppCostUpdater(ps1, seed=5).apply(5)
        l2 = PartSuppCostUpdater(ps2, seed=5).apply(5)
        news1 = ps1.history.columns(l1[0] - 1, l1[-1])[1]
        news2 = ps2.history.columns(l2[0] - 1, l2[-1])[1]
        assert len(news1) == 5
        assert news1 == news2

    def test_negative_k_rejected(self, db):
        updater = PartSuppCostUpdater(db.table("partsupp"), seed=1)
        with pytest.raises(ValueError):
            updater.apply(-1)

    def test_empty_table_rejected(self):
        db = Database()
        load_tpcr(db, scale=0.002, tables=("region",))
        from repro.engine.types import ColumnType, Schema

        empty = db.create_table("empty", Schema.of(supplycost=ColumnType.FLOAT))
        with pytest.raises(ValueError, match="empty"):
            PartSuppCostUpdater(empty, seed=1)


class TestSupplierNationUpdater:
    def test_updates_nationkey_only(self, db):
        updater = SupplierNationUpdater(db.table("supplier"), seed=2)
        [lsn] = updater.apply(1)
        event = db.table("supplier").history[lsn - 1]
        old, new = event.old_values, event.new_values
        assert old[:3] == new[:3]
        assert old[4:] == new[4:]
        assert 0 <= new[3] < 25

    def test_cardinality_preserved(self, db):
        sup = db.table("supplier")
        SupplierNationUpdater(sup, seed=2).apply(50)
        assert sup.live_count == 20
