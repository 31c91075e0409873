"""Unit tests for ModLog truncation and its subscriber registry."""

import pytest

from repro.engine.errors import ExecutionError
from repro.engine.table import ModEvent, ModLog


class _Reader:
    """Minimal truncation-pin: anything exposing ``applied_lsn``."""

    def __init__(self, applied_lsn: int):
        self.applied_lsn = applied_lsn


def fill(log: ModLog, n: int) -> None:
    for i in range(n):
        log.append(ModEvent(lsn=len(log) + 1, kind="insert",
                            old_values=None, new_values=(i,)))


class TestSubscribers:
    def test_subscribe_and_unsubscribe(self):
        log = ModLog(chunk_size=4)
        fill(log, 8)
        reader = _Reader(0)
        log.subscribe(reader)
        assert log.safe_truncation_lsn() == 0
        log.unsubscribe(reader)
        assert log.safe_truncation_lsn() == 8
        log.unsubscribe(reader)  # idempotent

    def test_registration_is_weak(self):
        log = ModLog(chunk_size=4)
        fill(log, 8)
        log.subscribe(_Reader(0))
        assert log.safe_truncation_lsn() == 8  # collected immediately

    def test_safe_truncation_lsn_is_min_subscriber(self):
        log = ModLog(chunk_size=4)
        fill(log, 10)
        slow, fast = _Reader(3), _Reader(9)
        log.subscribe(slow)
        log.subscribe(fast)
        assert log.safe_truncation_lsn() == 3
        slow.applied_lsn = 8
        assert log.safe_truncation_lsn() == 8

    def test_no_subscribers_means_everything_reclaimable(self):
        log = ModLog(chunk_size=4)
        fill(log, 10)
        assert log.safe_truncation_lsn() == 10


class TestTruncate:
    def test_drops_whole_chunks_only(self):
        log = ModLog(chunk_size=4)
        fill(log, 10)
        # Everything reclaimable, but only the two full chunks (8 events)
        # can go; the partial tail chunk stays.
        assert log.truncate() == 8
        assert log.truncated_lsn == 8
        assert log.retained == 2
        assert len(log) == 10  # logical length is stable

    def test_clamped_to_slowest_subscriber(self):
        log = ModLog(chunk_size=4)
        fill(log, 12)
        reader = _Reader(5)
        log.subscribe(reader)
        # Safe limit 5 -> only the first chunk (LSNs 1..4) may drop.
        assert log.truncate() == 4
        assert log.truncated_lsn == 4
        # While the reader stays at 5, a second pass drops nothing.
        assert log.truncate() == 0

    def test_truncate_is_idempotent_and_incremental(self):
        log = ModLog(chunk_size=4)
        fill(log, 12)
        reader = _Reader(4)
        log.subscribe(reader)
        assert log.truncate() == 4
        assert log.truncate() == 0
        reader.applied_lsn = 12
        assert log.truncate() == 8  # both remaining full chunks

    def test_reads_below_truncation_point_raise(self):
        log = ModLog(chunk_size=4)
        fill(log, 12)
        reader = _Reader(8)
        log.subscribe(reader)
        assert log.truncate() == 8
        with pytest.raises(ExecutionError, match="truncation point"):
            log.columns(2, 6)
        with pytest.raises(IndexError, match="truncation point"):
            log[0]

    def test_reads_above_truncation_point_survive(self):
        log = ModLog(chunk_size=4)
        fill(log, 12)
        before = log.columns(8, 12)
        reader = _Reader(8)
        log.subscribe(reader)
        assert log.truncate() == 8
        assert log.columns(8, 12) == before
        assert log[8].new_values == (8,)
        assert [e.lsn for e in log] == list(range(9, 13))

    def test_append_continues_after_truncation(self):
        log = ModLog(chunk_size=4)
        fill(log, 8)
        log.truncate()
        fill(log, 3)
        assert len(log) == 11
        assert log.columns(8, 11)[1] == [(0,), (1,), (2,)]
        assert [e.lsn for e in log] == [9, 10, 11]
