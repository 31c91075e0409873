"""Tests for trace rendering."""

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.problem import ProblemInstance
from repro.core.report import (
    TIMELINE_ROWS,
    compare_traces,
    render_trace_timeline,
)
from repro.core.simulator import simulate_policy


@pytest.fixture
def problem():
    return ProblemInstance(
        [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
        limit=12.0,
        arrivals=[(1, 1)] * 80,
    )


class TestTimeline:
    def test_renders_flushes_and_totals(self, problem):
        trace = simulate_policy(problem, NaivePolicy())
        text = render_trace_timeline(
            problem, trace, table_names=("R", "S")
        )
        assert "flush[R,S]" in text
        assert f"total cost {trace.total_cost:.0f}" in text
        assert "peak backlog" in text

    def test_bucketing_caps_rows(self):
        problem = ProblemInstance(
            [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
            limit=12.0,
            arrivals=[(1, 1)] * 400,
        )
        trace = simulate_policy(problem, NaivePolicy())
        text = render_trace_timeline(problem, trace)
        body = [line for line in text.splitlines() if line.startswith("t=")]
        assert len(body) <= TIMELINE_ROWS

    def test_default_names(self, problem):
        trace = simulate_policy(problem, NaivePolicy())
        assert "T0" in render_trace_timeline(problem, trace)

    def test_name_count_checked(self, problem):
        trace = simulate_policy(problem, NaivePolicy())
        with pytest.raises(ValueError):
            render_trace_timeline(problem, trace, table_names=("only-one",))

    def test_indivisible_horizon_covers_every_step(self):
        """Bucketing regression: ``steps % bucket != 0`` loses nothing.

        With integer per-step costs the rendered ``cost=`` values are
        exact, so summing them over all rows must reproduce the trace's
        total -- including the forced refresh at t = horizon, which lands
        in the shorter tail bucket.
        """
        # 130 steps (horizon 129) into <= 40 rows -> bucket 4, tail of 2.
        problem = ProblemInstance(
            [LinearCost(slope=1.0), LinearCost(slope=1.0)],
            limit=50.0,
            arrivals=[(1, 1)] * 130,
        )
        trace = simulate_policy(problem, NaivePolicy())
        text = render_trace_timeline(problem, trace)
        rows = [line for line in text.splitlines() if line.startswith("t=")]
        assert len(rows) <= TIMELINE_ROWS
        starts = [int(row.split("|")[0].split("=")[1]) for row in rows]
        assert starts[0] == 0
        assert starts == sorted(starts)
        # Contiguous buckets: each row starts one bucket after the last.
        assert all(b - a == starts[1] for a, b in zip(starts, starts[1:]))
        assert starts[-1] < problem.horizon + 1  # tail bucket not skipped
        rendered_cost = sum(
            float(row.split("cost=")[1]) for row in rows if "cost=" in row
        )
        assert rendered_cost == pytest.approx(trace.total_cost)

    def test_tail_bucket_shows_forced_final_refresh(self):
        """A single-step tail bucket still renders the t = horizon flush."""
        # 79 steps into <= 40 rows -> bucket 2, tail bucket = {t=78} alone.
        problem = ProblemInstance(
            [LinearCost(slope=1.0), LinearCost(slope=1.0)],
            limit=50.0,
            arrivals=[(1, 1)] * 79,
        )
        trace = simulate_policy(problem, NaivePolicy())
        text = render_trace_timeline(problem, trace)
        rows = [line for line in text.splitlines() if line.startswith("t=")]
        assert len(rows) == TIMELINE_ROWS
        assert rows[-1].startswith("t=   78")
        assert "flush[" in rows[-1]

    def test_asymmetric_plan_shows_single_table_flushes(self, problem):
        trace = simulate_policy(problem, OnlinePolicy())
        text = render_trace_timeline(problem, trace, table_names=("R", "S"))
        # ONLINE flushes the cheap table alone at least once.
        assert "flush[S]" in text or "flush[R]" in text


class TestCompare:
    def test_table_shape(self, problem):
        traces = {
            "NAIVE": simulate_policy(problem, NaivePolicy()),
            "ONLINE": simulate_policy(problem, OnlinePolicy()),
        }
        text = compare_traces(problem, traces)
        assert "NAIVE" in text and "ONLINE" in text
        assert "vs best" in text
        # The best plan shows ratio 1.000.
        assert "1.000" in text

    def test_empty_rejected(self, problem):
        with pytest.raises(ValueError):
            compare_traces(problem, {})
