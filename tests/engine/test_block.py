"""Unit tests for :class:`RowBlock`: views and chunking."""

import pytest

from repro.engine.block import RowBlock, blocks_to_rows, iter_blocks

LAYOUT = {"T.a": 0, "T.b": 1}
ROWS = [(1, "x"), (2, "y"), (3, "z"), (4, "w")]
COLUMNS = [[1, 2, 3, 4], ["x", "y", "z", "w"]]


class TestViews:
    def test_row_major_roundtrip(self):
        block = RowBlock.from_rows(list(ROWS), LAYOUT)
        assert len(block) == 4
        assert block.rows() == ROWS
        assert block.column(0) == [1, 2, 3, 4]

    def test_column_major_roundtrip(self):
        block = RowBlock.from_columns([list(c) for c in COLUMNS], LAYOUT)
        assert len(block) == 4
        assert block.column(1) == ["x", "y", "z", "w"]
        assert block.rows() == ROWS

    def test_column_extraction_does_not_transpose(self):
        block = RowBlock.from_rows(list(ROWS), LAYOUT)
        assert block.column(0) == [1, 2, 3, 4]
        # Only the requested column was materialized, and it's cached.
        assert block._col_cache == {0: [1, 2, 3, 4]}
        assert block.column(0) is block.column(0)

    def test_block_that_kept_no_column_still_has_its_rows(self):
        block = RowBlock.from_columns([], {}, length=3)
        assert len(block) == 3
        assert block.rows() == [(), (), ()]


class TestIterBlocks:
    def test_chunking_and_tail(self):
        blocks = list(iter_blocks(ROWS, LAYOUT, 3))
        assert [len(b) for b in blocks] == [3, 1]
        assert blocks_to_rows(blocks) == ROWS

    def test_empty_input(self):
        assert list(iter_blocks([], LAYOUT, 8)) == []

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            list(iter_blocks(ROWS, LAYOUT, 0))
