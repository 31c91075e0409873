"""Tests for operator-level asymmetric batching (pipelines)."""

import pytest

from repro.core.costfuncs import LinearCost
from repro.core.policies import PolicyError
from repro.staged import (
    CutPolicy,
    NaiveStagedPolicy,
    Pipeline,
    Stage,
    choose_best_cut,
    simulate_staged,
)


def three_stage_pipeline():
    """cheap-linear -> setup-heavy -> cheap-linear (the interesting shape)."""
    return Pipeline(
        [
            Stage("probe", LinearCost(slope=0.3), fanout=0.5),
            Stage("scan", LinearCost(slope=0.8, setup=100.0), fanout=2.0),
            Stage("fold", LinearCost(slope=0.05), fanout=0.0),
        ]
    )


class TestStage:
    def test_output_size_is_expected_cardinality(self):
        stage = Stage("s", LinearCost(1.0), fanout=0.2)
        assert stage.output_size(2) == pytest.approx(0.4)

    def test_negative_fanout_rejected(self):
        with pytest.raises(ValueError):
            Stage("s", LinearCost(1.0), fanout=-1.0)


class TestPipeline:
    def test_depth_and_zero_state(self):
        pipe = three_stage_pipeline()
        assert pipe.depth == 3
        assert pipe.zero_state() == (0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_flush_cost_cascades_with_fanout(self):
        pipe = three_stage_pipeline()
        # 10 at queue 0: stage0 cost .3*10=3, emits 5; stage1 cost
        # 100+.8*5=104, emits 10; stage2 cost .05*10=0.5.
        assert pipe.flush_cost((10, 0, 0)) == pytest.approx(107.5)

    def test_flush_cost_combines_queues(self):
        pipe = three_stage_pipeline()
        # 10 at queue 0 (emits 5 into stage 1's input) plus 7 already
        # queued at stage 1: one batch of 12 through the scan.
        expected = 0.3 * 10 + (100 + 0.8 * 12) + 0.05 * 24
        assert pipe.flush_cost((10, 7, 0)) == pytest.approx(expected)

    def test_flush_cost_empty_is_zero(self):
        assert three_stage_pipeline().flush_cost((0, 0, 0)) == 0.0

    def test_propagate_partial(self):
        pipe = three_stage_pipeline()
        state, cost = pipe.propagate((10, 0, 0), through=1)
        assert state == (0.0, 5.0, 0.0)
        assert cost == pytest.approx(3.0)

    def test_propagate_through_everything(self):
        pipe = three_stage_pipeline()
        state, cost = pipe.propagate((10, 0, 0), through=3)
        assert state == (0.0, 0.0, 0.0)
        assert cost == pytest.approx(107.5)

    def test_propagate_zero_is_noop(self):
        pipe = three_stage_pipeline()
        state, cost = pipe.propagate((4, 2, 1), through=0)
        assert state == (4.0, 2.0, 1.0)
        assert cost == 0.0

    def test_conservation_through_selective_stage(self):
        """Fluid model: small batches do not vanish through fan-out < 1."""
        pipe = Pipeline([Stage("sel", LinearCost(1.0), fanout=0.2),
                         Stage("sink", LinearCost(1.0), fanout=0.0)])
        state, __ = pipe.propagate((2, 0), through=1)
        assert state[1] == pytest.approx(0.4)

    def test_bad_states_rejected(self):
        pipe = three_stage_pipeline()
        with pytest.raises(ValueError):
            pipe.flush_cost((1, 2))
        with pytest.raises(ValueError):
            pipe.flush_cost((-1, 0, 0))
        with pytest.raises(ValueError):
            pipe.propagate((0, 0, 0), through=4)


class TestPolicies:
    def test_naive_flushes_only_when_full(self):
        pipe = three_stage_pipeline()
        trace = simulate_staged(pipe, 150.0, [2] * 100, NaiveStagedPolicy())
        assert trace.peak_flush_cost <= 150.0 + 1e-9
        # Several full flushes plus the final one.
        assert sum(1 for d in trace.depths if d) >= 2
        assert all(d in (0, 3) for d in trace.depths)

    def test_cut_policy_beats_naive_on_setup_heavy_middle(self):
        pipe = three_stage_pipeline()
        limit = 180.0
        arrivals = [2] * 200
        naive = simulate_staged(pipe, limit, arrivals, NaiveStagedPolicy())
        cut1 = simulate_staged(pipe, limit, arrivals, CutPolicy(1))
        assert cut1.total_cost < naive.total_cost

    def test_eager_through_setup_stage_loses(self):
        pipe = three_stage_pipeline()
        limit = 180.0
        arrivals = [2] * 200
        cut1 = simulate_staged(pipe, limit, arrivals, CutPolicy(1))
        cut2 = simulate_staged(pipe, limit, arrivals, CutPolicy(2))
        assert cut2.total_cost > 10 * cut1.total_cost

    def test_cut_zero_equals_naive(self):
        pipe = three_stage_pipeline()
        limit = 180.0
        arrivals = [2] * 150
        naive = simulate_staged(pipe, limit, arrivals, NaiveStagedPolicy())
        cut0 = simulate_staged(pipe, limit, arrivals, CutPolicy(0))
        assert cut0.total_cost == pytest.approx(naive.total_cost)

    def test_choose_best_cut(self):
        pipe = three_stage_pipeline()
        best_cut, best_cost = choose_best_cut(pipe, 180.0, [2] * 200)
        assert best_cut == 1
        cut1 = simulate_staged(pipe, 180.0, [2] * 200, CutPolicy(1))
        assert best_cost == pytest.approx(cut1.total_cost)

    def test_cut_deeper_than_pipeline_rejected(self):
        pipe = three_stage_pipeline()
        with pytest.raises(ValueError, match="deeper"):
            simulate_staged(pipe, 100.0, [1] * 5, CutPolicy(9))
        with pytest.raises(ValueError):
            CutPolicy(-1)


class TestSimulator:
    def test_forced_final_flush(self):
        pipe = three_stage_pipeline()
        trace = simulate_staged(pipe, 1e9, [1] * 10, NaiveStagedPolicy())
        assert trace.depths[-1] == pipe.depth
        assert trace.states[-1] == pipe.zero_state()
        # Only the final flush costs anything under a huge budget.
        assert sum(1 for d in trace.depths if d) == 1

    def test_violating_policy_caught(self):
        class StuckPolicy(NaiveStagedPolicy):
            def decide(self, t, state):
                return 0

        pipe = three_stage_pipeline()
        with pytest.raises(PolicyError, match="not\\s+refreshable"):
            simulate_staged(pipe, 105.0, [5] * 30, StuckPolicy())

    def test_bad_inputs(self):
        pipe = three_stage_pipeline()
        with pytest.raises(ValueError):
            simulate_staged(pipe, 100.0, [], NaiveStagedPolicy())
        with pytest.raises(ValueError):
            simulate_staged(pipe, -1.0, [1], NaiveStagedPolicy())
        with pytest.raises(ValueError):
            simulate_staged(pipe, 100.0, [-1], NaiveStagedPolicy())

    def test_trace_statistics(self):
        pipe = three_stage_pipeline()
        trace = simulate_staged(pipe, 150.0, [2] * 50, NaiveStagedPolicy())
        assert trace.horizon == 49
        assert len(trace.action_costs) == 50
        assert trace.total_cost == pytest.approx(sum(trace.action_costs))


class TestOperatorAsymmetryDriver:
    def test_driver_shape(self):
        from repro.experiments.operator_asymmetry import (
            run_operator_asymmetry,
        )

        result = run_operator_asymmetry(horizon=150)
        assert result.best_cut >= 1
        assert result.naive_cost > result.best_cost
        assert "Operator-level" in result.format()
