"""End-to-end observability: instrumented layers and the CLI flags."""

import pytest

from repro import obs
from repro.cli import main
from repro.core.astar import find_optimal_lgm_plan
from repro.core.costfuncs import LinearCost
from repro.core.naive import NaivePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import PolicyError
from repro.core.problem import ProblemInstance
from repro.core.simulator import simulate_policy
from repro.obs.tracing import read_jsonl


@pytest.fixture
def problem():
    return ProblemInstance(
        [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
        limit=12.0,
        arrivals=[(1, 1)] * 30,
    )


class TestAStarMetrics:
    def test_result_registers_search_statistics(self, problem):
        with obs.recording() as rec:
            result = find_optimal_lgm_plan(problem)
        assert rec.registry.get("astar.searches").value == 1
        assert rec.registry.get("astar.expanded").value == result.expanded
        assert rec.registry.get("astar.generated").value == result.generated
        assert result.expanded > 0
        # The rate heuristic is consistent on LGM instances: the deviation
        # counter exists but stays at zero.
        inconsistency = rec.registry.get(
            "astar.heuristic.inconsistency_detected"
        )
        assert inconsistency is not None and inconsistency.value == 0
        plan_cost = rec.registry.get("astar.plan_cost")
        assert plan_cost.count == 1
        assert plan_cost.total == pytest.approx(result.cost)

    def test_search_emits_span_and_heap_peak(self, problem):
        with obs.recording(trace=True) as rec:
            find_optimal_lgm_plan(problem)
        names = {e["name"] for e in rec.events.events()}
        assert "astar.search" in names
        assert rec.registry.get("astar.heap_peak").value > 0


class TestSimulatorMetrics:
    def test_policy_run_reports_steps_and_backlog(self, problem):
        with obs.recording() as rec:
            trace = simulate_policy(problem, OnlinePolicy())
        steps = rec.registry.get("simulator.steps")
        assert steps.value == problem.horizon + 1
        assert rec.registry.get("simulator.actions").value == trace.action_count
        assert rec.registry.get("simulator.backlog").count > 0
        # No decide() at t == horizon: the final refresh is forced.
        assert rec.registry.get("simulator.decide_ms").count == problem.horizon
        assert rec.registry.get("online.decisions").value > 0

    def test_uninstrumented_run_identical_to_observed(self, problem):
        bare = simulate_policy(problem, OnlinePolicy())
        with obs.recording(trace=True):
            observed = simulate_policy(problem, OnlinePolicy())
        assert bare.total_cost == observed.total_cost
        assert bare.plan.actions == observed.plan.actions

    def test_failed_run_leaves_no_slo_observations(self, problem):
        """A verdict is read from a finished trace, and a refused run
        returns none: what it leaves behind is the simulator's metrics."""

        class Hoarder(NaivePolicy):
            def decide(self, t, pre_state):
                return (0,) * self.n  # never acts: breaks C once full

        with obs.recording() as rec, pytest.raises(PolicyError):
            simulate_policy(problem, Hoarder())
        assert rec.registry.get("simulator.steps").value > 0
        assert not [n for n in rec.registry.names() if n.startswith("slo.")]


class TestCliTrace:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        """`repro <cmd> --trace FILE` exits 0 and leaves a layered trace."""
        from repro.experiments import common

        # The calibration cache survives across tests in one process; a
        # warm cache would skip the engine work this trace must cover.
        common.calibrated_costs.cache_clear()
        path = tmp_path / "out.jsonl"
        code = main(
            [
                "timeline",
                "--scale", "0.002",
                "--horizon", "30",
                "--policies", "naive", "optimal", "online",
                "--trace", str(path),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 0
        events = read_jsonl(path)
        assert len(events) >= 50
        for event in events:
            assert event["ph"] in ("X", "C")
            assert "name" in event and "ts" in event
        cats = {e["cat"] for e in events}
        # Every instrumented layer shows up in one run.
        assert {"astar", "simulator", "engine", "cli"} <= cats
        assert "metric" in out and "p95" in out  # summary table printed
        # The status line goes to stderr: stdout is the command's tables.
        assert f"trace events to {path}" in err
        assert "[obs]" not in out

    def test_metrics_flag_prints_summary_only(self, tmp_path, capsys):
        code = main(
            [
                "--metrics",
                "timeline",
                "--scale", "0.002",
                "--horizon", "20",
                "--policies", "naive",
            ]
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert "simulator.steps" in out
        assert "trace events" not in out + err

    def test_experiment_shorthand_accepts_trace(self, tmp_path, capsys):
        """`repro bounds --trace ...` == `repro experiment bounds --trace ...`."""
        path = tmp_path / "bounds.jsonl"
        code = main(["bounds", "--trace", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Bounds study" in out
        events = read_jsonl(path)
        assert any(
            e["name"] == "cli.command" and e["args"]["command"] == "experiment"
            for e in events
        )

    def test_no_flags_means_no_recorder_output(self, capsys):
        code = main(
            [
                "timeline",
                "--scale", "0.002",
                "--horizon", "20",
                "--policies", "naive",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "simulator.steps" not in out
