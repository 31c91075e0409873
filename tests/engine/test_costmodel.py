"""Unit tests for the operation-count cost model."""

import random

import pytest

from repro.engine.costmodel import (
    ROWS_PER_PAGE,
    CostModel,
    OperationCounter,
)


class TestOperationCounter:
    def test_starts_at_zero(self):
        counter = OperationCounter()
        assert counter.elapsed_ms() == 0.0

    def test_charge_and_elapsed(self):
        model = CostModel(page_read=2.0, tuple_cpu=0.5)
        counter = OperationCounter(model=model)
        counter.charge("page_reads", 3)
        counter.charge("tuple_cpu", 4)
        assert counter.elapsed_ms() == pytest.approx(3 * 2.0 + 4 * 0.5)

    def test_charge_pages_rounds_up(self):
        counter = OperationCounter()
        counter.charge_pages(1)
        assert counter.page_reads == 1
        counter.charge_pages(ROWS_PER_PAGE)
        assert counter.page_reads == 2
        counter.charge_pages(ROWS_PER_PAGE + 1)
        assert counter.page_reads == 4

    def test_charge_pages_zero_rows_free(self):
        counter = OperationCounter()
        counter.charge_pages(0)
        assert counter.page_reads == 0

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError, match="unknown operation"):
            OperationCounter().charge("nonsense")

    def test_reset(self):
        counter = OperationCounter()
        counter.charge("compares", 10)
        counter.reset()
        assert counter.elapsed_ms() == 0.0
        assert counter.compares == 0

    def test_snapshot_lists_all_classes(self):
        counter = OperationCounter()
        counter.charge("hash_builds", 2)
        snap = counter.snapshot()
        assert snap["hash_builds"] == 2
        assert set(snap) == set(OperationCounter._FIELDS)

    def test_every_field_has_a_weight(self):
        model = CostModel()
        for field in OperationCounter._FIELDS:
            weight_name = OperationCounter._WEIGHT_BY_FIELD[field]
            assert hasattr(model, weight_name)


    def test_elapsed_is_bit_equal_to_the_field_by_field_loop(self):
        """The weights are bound once per model; the sum must still be the
        left-to-right accumulation in ``_FIELDS`` order, to the last bit."""
        rng = random.Random(20260930)
        weights = list(OperationCounter._WEIGHT_BY_FIELD.values())
        for _ in range(200):
            model = CostModel(**{w: rng.uniform(1e-4, 3.0) for w in weights})
            counter = OperationCounter(model=model)
            for field in OperationCounter._FIELDS:
                counter.charge(field, rng.randrange(0, 10**rng.randrange(1, 9)))
            expected = 0.0
            for field in OperationCounter._FIELDS:
                weight = getattr(model, OperationCounter._WEIGHT_BY_FIELD[field])
                expected += weight * getattr(counter, field)
            assert counter.elapsed_ms() == expected
            assert counter.snapshot() == {
                f: getattr(counter, f) for f in OperationCounter._FIELDS
            }

    def test_weights_follow_a_replaced_model(self):
        counter = OperationCounter(model=CostModel(compare=1.0))
        counter.charge("compares", 4)
        assert counter.elapsed_ms() == 4.0
        counter.model = CostModel(compare=2.5)
        assert counter.elapsed_ms() == 10.0

    def test_only_tally_fields_can_be_charged(self):
        for name in ("model", "_bound", "page_read", ""):
            with pytest.raises(ValueError, match="unknown operation"):
                OperationCounter().charge(name)


class TestCostWindow:
    def test_window_measures_delta(self):
        counter = OperationCounter(model=CostModel(compare=1.0))
        counter.charge("compares", 5)
        with counter.window() as window:
            counter.charge("compares", 3)
        assert window.elapsed_ms == pytest.approx(3.0)
        assert counter.elapsed_ms() == pytest.approx(8.0)

    def test_nested_windows(self):
        counter = OperationCounter(model=CostModel(compare=1.0))
        with counter.window() as outer:
            counter.charge("compares", 2)
            with counter.window() as inner:
                counter.charge("compares", 5)
        assert inner.elapsed_ms == pytest.approx(5.0)
        assert outer.elapsed_ms == pytest.approx(7.0)

    def test_window_survives_exception(self):
        counter = OperationCounter(model=CostModel(compare=1.0))
        window = counter.window()
        with pytest.raises(RuntimeError):
            with window:
                counter.charge("compares", 1)
                raise RuntimeError("boom")
        assert window.elapsed_ms == pytest.approx(1.0)
