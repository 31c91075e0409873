"""Unit tests for notification conditions."""

import pytest

from repro.engine.database import Database
from repro.engine.types import ColumnType, Schema
from repro.pubsub.conditions import EveryNSteps, ValueWatch


@pytest.fixture
def db():
    database = Database()
    prices = database.create_table(
        "prices", Schema.of(symbol=ColumnType.STR, price=ColumnType.FLOAT)
    )
    prices.insert(("OIL", 100.0))
    return database


def oil_price(database):
    for symbol, price in database.table("prices").live_rows():
        if symbol == "OIL":
            return price
    raise LookupError("no OIL row")


class TestEveryNSteps:
    def test_fires_on_period(self, db):
        cond = EveryNSteps(3)
        fires = [cond.should_notify(t, db) for t in range(7)]
        assert fires == [True, False, False, True, False, False, True]

    def test_phase(self, db):
        cond = EveryNSteps(3, phase=1)
        fires = [cond.should_notify(t, db) for t in range(5)]
        assert fires == [False, True, False, False, True]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            EveryNSteps(0)


class TestValueWatch:
    def test_first_observation_baselines_without_firing(self, db):
        cond = ValueWatch(oil_price, relative=0.10)
        assert not cond.should_notify(0, db)

    def test_relative_threshold(self, db):
        cond = ValueWatch(oil_price, relative=0.10)
        cond.should_notify(0, db)  # baseline at 100
        prices = db.table("prices")
        prices.update_rid(prices.find_rids(lambda r: True)[0], {"price": 109.0})
        assert not cond.should_notify(1, db)  # 9% drift: under threshold
        rid = prices.find_rids(lambda r: True)[0]
        prices.update_rid(rid, {"price": 111.0})
        assert cond.should_notify(2, db)  # 11% drift

    def test_rebaselines_after_notification(self, db):
        cond = ValueWatch(oil_price, relative=0.10)
        cond.should_notify(0, db)
        prices = db.table("prices")
        prices.update_rid(prices.find_rids(lambda r: True)[0], {"price": 120.0})
        assert cond.should_notify(1, db)
        cond.notified(1, 120.0)
        # New baseline is 120; a move to 125 is only ~4%.
        assert not cond.should_notify(2, db)  # re-baselines at 120
        rid = prices.find_rids(lambda r: True)[0]
        prices.update_rid(rid, {"price": 125.0})
        assert not cond.should_notify(3, db)

    def test_requires_some_threshold(self, db):
        with pytest.raises(ValueError):
            ValueWatch(oil_price, relative=0.0)
        with pytest.raises(ValueError):
            ValueWatch(oil_price, relative=-0.1)

