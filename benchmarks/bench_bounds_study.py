"""Bounds table: OPT_LGM vs the globally optimal plan (Theorems 1 and 2
plus the Section 3.2 tightness construction)."""

import pytest

from benchmarks import write_table
from repro.experiments.bounds_study import run_bounds_study


def bench_bounds_study():
    result = run_bounds_study()
    write_table("bounds_study", result.format())
    assert result.max_ratio("linear") == pytest.approx(1.0)  # Theorem 2
    for row in result.rows_data:  # Theorem 1
        assert row.ratio <= 2.0 + 1e-9
    # Tightness construction approaches (2 - eps).
    assert result.max_ratio("step (tightness)") >= 1.8 - 1e-9
