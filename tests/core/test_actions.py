"""Unit tests for greedy/minimal action enumeration and MinimizeAction."""

import pytest

from repro.core.actions import (
    enumerate_greedy_minimal_actions,
    minimize_action,
)
from repro.core.costfuncs import LinearCost
from repro.core.problem import ProblemInstance


def make_problem(costs, limit):
    # Arrivals are irrelevant for action enumeration; provide a stub.
    return ProblemInstance(costs, limit, [(0,) * len(costs)])


def minimality_cases():
    """(instance, full state) pairs; in the second, restoring one emptied
    table lands exactly on the largest cost that is not full."""
    edge = make_problem([LinearCost(1.0)], limit=9.0).full_above - 5.0
    yield make_problem(
        [LinearCost(0.5, 2.0), LinearCost(1.5), LinearCost(1.0, 1.0)],
        limit=9.0,
    ), (6, 4, 5)
    yield make_problem(
        [LinearCost(5.0), LinearCost(edge), LinearCost(edge)], limit=9.0
    ), (1, 1, 1)


def assert_minimal(prob, state, action):
    post = tuple(s - a for s, a in zip(state, action))
    assert not prob.is_full(post)
    # minimal: restoring any emptied table overflows
    for i, a in enumerate(action):
        if a:
            restored = list(post)
            restored[i] += a
            assert prob.is_full(tuple(restored)), (state, action)


class TestEnumeration:
    def test_non_full_state_yields_nothing(self):
        prob = make_problem([LinearCost(1.0), LinearCost(1.0)], limit=10.0)
        assert list(enumerate_greedy_minimal_actions((3, 3), prob)) == []

    def test_single_table(self):
        prob = make_problem([LinearCost(1.0)], limit=3.0)
        actions = list(enumerate_greedy_minimal_actions((5,), prob))
        assert actions == [(5,)]

    def test_two_tables_either_suffices(self):
        prob = make_problem([LinearCost(1.0), LinearCost(1.0)], limit=3.0)
        # state (3, 3): cost 6 > 3; emptying either table leaves 3 <= 3.
        actions = set(enumerate_greedy_minimal_actions((3, 3), prob))
        assert actions == {(3, 0), (0, 3)}

    def test_both_tables_required(self):
        prob = make_problem([LinearCost(1.0), LinearCost(1.0)], limit=3.0)
        # state (8, 8): even one table alone leaves 8 > 3, must empty both.
        actions = set(enumerate_greedy_minimal_actions((8, 8), prob))
        assert actions == {(8, 8)}

    def test_empty_components_never_selected(self):
        prob = make_problem([LinearCost(1.0), LinearCost(1.0)], limit=3.0)
        actions = set(enumerate_greedy_minimal_actions((9, 0), prob))
        assert actions == {(9, 0)}

    def test_mixed_asymmetric_costs(self):
        prob = make_problem(
            [LinearCost(slope=1.0, setup=10.0), LinearCost(slope=1.0)],
            limit=12.0,
        )
        # state (1, 12): f = 11 + 12 = 23 > 12.  Emptying table 0 leaves
        # 12 <= 12 (valid); emptying table 1 leaves 11 <= 12 (valid).
        actions = set(enumerate_greedy_minimal_actions((1, 12), prob))
        assert actions == {(1, 0), (0, 12)}

    def test_every_enumerated_action_is_valid_and_minimal(self):
        for prob, state in minimality_cases():
            assert prob.is_full(state)
            for action in enumerate_greedy_minimal_actions(state, prob):
                assert_minimal(prob, state, action)

    def test_too_many_tables_guarded(self):
        n = 25
        prob = make_problem([LinearCost(1.0)] * n, limit=1.0)
        with pytest.raises(ValueError, match="enumeration limit"):
            list(enumerate_greedy_minimal_actions((1,) * n, prob))


class TestMinimizeAction:
    def test_drops_redundant_components(self):
        prob = make_problem([LinearCost(1.0), LinearCost(1.0)], limit=3.0)
        result = minimize_action((3, 3), (3, 3), prob)
        # One of the two components must be dropped.
        assert result in ((3, 0), (0, 3))

    def test_keeps_required_components(self):
        prob = make_problem([LinearCost(1.0), LinearCost(1.0)], limit=3.0)
        assert minimize_action((8, 8), (8, 8), prob) == (8, 8)

    def test_drops_most_expensive_first(self):
        prob = make_problem(
            [LinearCost(slope=1.0, setup=10.0), LinearCost(slope=1.0)],
            limit=12.0,
        )
        # state (1, 12); full action (1, 12).  Component 0 costs 11,
        # component 1 costs 12 -> try dropping table 1 first: leaves 12 <=
        # 12 valid, so the expensive flush is shed.
        assert minimize_action((1, 12), (1, 12), prob) == (1, 0)

    def test_rejects_non_greedy_input(self):
        prob = make_problem([LinearCost(1.0)], limit=3.0)
        with pytest.raises(ValueError, match="not greedy"):
            minimize_action((2,), (5,), prob)

    def test_rejects_invalid_input(self):
        prob = make_problem([LinearCost(1.0), LinearCost(1.0)], limit=3.0)
        with pytest.raises(ValueError, match="constraint"):
            minimize_action((0, 0), (8, 8), prob)

    def test_result_is_minimal(self):
        for prob, state in minimality_cases():
            assert_minimal(prob, state, minimize_action(state, state, prob))
