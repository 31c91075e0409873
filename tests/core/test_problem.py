"""Unit tests for the problem-instance model (Section 2)."""

import pytest

from repro.core.costfuncs import LinearCost, TabulatedCost, check_cost_function
from repro.core.problem import (
    ProblemInstance,
    add_vectors,
    is_nonnegative,
    sub_vectors,
    zero_vector,
)


def two_table_instance(limit=12.0, steps=10):
    return ProblemInstance(
        [LinearCost(slope=0.1, setup=5.0), LinearCost(slope=0.25)],
        limit=limit,
        arrivals=[(1, 2)] * steps,
    )


class TestVectorHelpers:
    def test_zero_vector(self):
        assert zero_vector(3) == (0, 0, 0)

    def test_add_sub_roundtrip(self):
        a, b = (3, 4), (1, 2)
        assert sub_vectors(add_vectors(a, b), b) == a

    def test_strict_zip(self):
        with pytest.raises(ValueError):
            add_vectors((1, 2), (1,))

    def test_sub_vectors_rejects_a_length_mismatch(self):
        with pytest.raises(ValueError):
            sub_vectors((1, 2), (1,))
        with pytest.raises(ValueError):
            sub_vectors((1,), (1, 2))

    def test_is_nonnegative(self):
        assert is_nonnegative((0, 1, 2))
        assert not is_nonnegative((0, -1))
        assert is_nonnegative(())


class TestConstruction:
    def test_basic_properties(self):
        prob = two_table_instance(steps=10)
        assert prob.n == 2
        assert prob.horizon == 9
        assert prob.total_arrivals() == (10, 20)

    def test_rejects_empty_costs(self):
        with pytest.raises(ValueError):
            ProblemInstance([], 1.0, [(1,)])

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            ProblemInstance([LinearCost(1.0)], -1.0, [(1,)])

    def test_rejects_empty_arrivals(self):
        with pytest.raises(ValueError):
            ProblemInstance([LinearCost(1.0)], 1.0, [])

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            ProblemInstance([LinearCost(1.0)], 1.0, [(1, 2)])

    def test_rejects_negative_arrivals(self):
        with pytest.raises(ValueError):
            ProblemInstance([LinearCost(1.0)], 1.0, [(-1,)])

    def test_rejects_fractional_arrivals(self):
        with pytest.raises(ValueError, match=r"t=1 .*\(2\.7,\)"):
            ProblemInstance([LinearCost(1.0, 1.0)], 5.0, [(1,), (2.7,)])

    def test_integral_floats_and_bools_convert(self):
        prob = ProblemInstance(
            [LinearCost(1.0), LinearCost(1.0)], 5.0, [(3.0, True), (0, 2)]
        )
        assert prob.arrivals == ((3, 1), (0, 2))
        assert all(type(x) is int for d in prob.arrivals for x in d)

    def test_validate_flag_checks_cost_functions(self):
        class Bad(LinearCost):
            def cost(self, k):
                return float(k * k)

        with pytest.raises(ValueError):
            check_cost_function(Bad(1.0))


class TestCostAndFullness:
    def test_refresh_cost_sums_components(self):
        prob = two_table_instance()
        # f1(2) = 5 + 0.2; f2(4) = 1.0
        assert prob.refresh_cost((2, 4)) == pytest.approx(6.2)

    def test_zero_state_never_full(self):
        prob = two_table_instance(limit=0.0)
        assert not prob.is_full((0, 0))

    def test_fullness_threshold(self):
        prob = two_table_instance(limit=6.2)
        assert not prob.is_full((2, 4))  # exactly at the limit
        assert prob.is_full((2, 5))


class TestArrivalStatistics:
    def test_future_arrivals(self):
        prob = two_table_instance(steps=4)  # arrivals at t = 0..3
        assert prob.future_arrivals(-1) == (4, 8)
        assert prob.future_arrivals(1) == (2, 4)
        assert prob.future_arrivals(3) == (0, 0)
        assert prob.future_arrivals(99) == (0, 0)

    def test_max_step_arrival(self):
        prob = ProblemInstance(
            [LinearCost(1.0)], 10.0, [(3,), (1,), (7,), (2,)]
        )
        assert prob.max_step_arrival(0) == 7

    def test_batch_bounds(self):
        prob = two_table_instance(limit=12.0)
        # table 0: max{b : 0.1b + 5 <= 12} = 70, plus m_0 = 1.
        # table 1: max{b : 0.25b <= 12} = 48, plus m_1 = 2.
        assert prob.batch_bounds() == (71, 50)

    def test_min_batch_rates_linear(self):
        prob = two_table_instance(limit=12.0)
        rates = prob.min_batch_rates()
        # Cheapest rate achieved at the biggest batch.
        assert rates[0] == pytest.approx((0.1 * 71 + 5) / 71)
        assert rates[1] == pytest.approx(0.25)

    def test_min_batch_rates_lower_bound_property(self):
        # Rate * k must never exceed f(k) for any feasible k.
        f = TabulatedCost([(5, 7.0), (10, 9.0), (50, 20.0)])
        prob = ProblemInstance([f], limit=15.0, arrivals=[(2,)] * 5)
        rate = prob.min_batch_rates()[0]
        for k in range(1, prob.batch_bounds()[0] + 1):
            assert rate * k <= f(k) + 1e-9


class TestInstanceSurgery:
    def test_truncated(self):
        prob = two_table_instance(steps=10)
        short = prob.truncated(4)
        assert short.horizon == 4
        assert short.total_arrivals() == (5, 10)
        with pytest.raises(ValueError):
            prob.truncated(99)

    def test_extended_periodic(self):
        prob = ProblemInstance(
            [LinearCost(1.0)], 10.0, [(1,), (2,), (3,)]
        )
        longer = prob.extended_periodic(7)
        assert longer.horizon == 7
        assert [a[0] for a in longer.arrivals] == [1, 2, 3, 1, 2, 3, 1, 2]
        with pytest.raises(ValueError):
            prob.extended_periodic(1)

    def test_repr_mentions_shape(self):
        text = repr(two_table_instance())
        assert "n=2" in text and "C=12.0" in text
