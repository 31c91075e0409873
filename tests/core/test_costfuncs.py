"""Unit tests for the cost-function model (Section 2 assumptions)."""

import pytest

from repro.core.costfuncs import (
    BlockIOCost,
    ConcaveCost,
    CostFunction,
    MAX_BATCH,
    LinearCost,
    StepCost,
    TabulatedCost,
    check_cost_function,
    fit_linear,
    max_batch_under,
)


class TestLinearCost:
    def test_zero_batch_is_free(self):
        f = LinearCost(slope=2.0, setup=3.0)
        assert f(0) == 0.0

    def test_affine_form(self):
        f = LinearCost(slope=2.0, setup=3.0)
        assert f(1) == 5.0
        assert f(10) == 23.0

    def test_setup_cost_property(self):
        assert LinearCost(slope=1.0, setup=7.0).setup == 7.0
        assert LinearCost(slope=1.0).setup == 0.0

    def test_monotone_and_subadditive(self):
        check_cost_function(LinearCost(slope=0.5, setup=2.0))

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            LinearCost(slope=1.0)(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinearCost(slope=-1.0)
        with pytest.raises(ValueError):
            LinearCost(slope=1.0, setup=-0.5)
        with pytest.raises(ValueError):
            LinearCost(slope=0.0, setup=0.0)

    def test_batch_limit_analytic(self):
        f = LinearCost(slope=2.0, setup=3.0)
        # f(k) <= 13 <=> k <= 5
        assert f.batch_limit(13.0) == 5
        assert f.batch_limit(12.99) == 4
        assert f.batch_limit(4.9) == 0  # even f(1) = 5 > 4.9

    def test_batch_limit_zero_slope(self):
        f = LinearCost(slope=0.0, setup=3.0)
        assert f.batch_limit(10.0) == MAX_BATCH

    def test_equality_and_hash(self):
        assert LinearCost(1.0, 2.0) == LinearCost(1.0, 2.0)
        assert LinearCost(1.0, 2.0) != LinearCost(1.0, 3.0)
        assert hash(LinearCost(1.0, 2.0)) == hash(LinearCost(1.0, 2.0))


#: One way to build each family, and a second set of parameters.
FAMILIES = [
    (lambda: LinearCost(0.5, 2.0), lambda: LinearCost(0.5, 2.5)),
    (lambda: ConcaveCost(0.5, 0.5), lambda: ConcaveCost(2.0, 0.5)),
    (lambda: BlockIOCost(2.0, 4, 0.5), lambda: BlockIOCost(2.0, 8, 0.5)),
    (lambda: StepCost(0.5, 2.0), lambda: StepCost(0.25, 2.0)),
    (
        lambda: TabulatedCost([(1, 2.5), (8, 6.0)]),
        lambda: TabulatedCost([(1, 2.5), (8, 6.5)]),
    ),
]


class TestValueEquality:
    """Equal means: same family, same parameters -- hence the same floats."""

    @pytest.mark.parametrize("make,other", FAMILIES)
    def test_equal_parameters_are_equal_and_hash_alike(self, make, other):
        f, g = make(), make()
        assert f is not g and f == g and hash(f) == hash(g)
        assert f != other() and other() != f
        assert len({f, g, other()}) == 2
        assert [f(k) for k in range(12)] == [g(k) for k in range(12)]

    def test_families_with_the_same_numbers_differ(self):
        functions = [make() for make, _ in FAMILIES]
        for i, f in enumerate(functions):
            for g in functions[i + 1:]:
                assert f != g
        # (0.5, 2.0) read as slope/setup, coeff/exponent... and eps/limit.
        assert LinearCost(0.5, 0.5) != ConcaveCost(0.5, 0.5)
        assert LinearCost(0.5, 2.0) != StepCost(0.5, 2.0)
        assert LinearCost(0.5, 2.0) != (0.5, 2.0)

    def test_a_subclass_is_another_family(self):
        class Doubled(LinearCost):
            def cost(self, k):
                return 2 * super().cost(k)

        assert Doubled(0.5, 2.0) != LinearCost(0.5, 2.0)
        assert LinearCost(0.5, 2.0) != Doubled(0.5, 2.0)
        assert Doubled(0.5, 2.0) == Doubled(0.5, 2.0)

    def test_a_family_that_does_not_say_is_equal_only_to_itself(self):
        class Flat(CostFunction):
            def cost(self, k):
                return 1.0

        f = Flat()
        assert f == f and f != Flat() and len({f, Flat(), f}) == 2


class TestConcaveCost:
    def test_form(self):
        f = ConcaveCost(coeff=3.0, exponent=0.5)
        assert f(4) == pytest.approx(6.0)

    def test_monotone_and_subadditive(self):
        check_cost_function(ConcaveCost(coeff=2.0, exponent=0.7))

    def test_exponent_one_is_proportional(self):
        f = ConcaveCost(coeff=2.0, exponent=1.0)
        assert f(5) == pytest.approx(10.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConcaveCost(coeff=0.0)
        with pytest.raises(ValueError):
            ConcaveCost(coeff=1.0, exponent=1.5)


class TestBlockIOCost:
    def test_staircase(self):
        f = BlockIOCost(io_cost=10.0, block_size=4)
        assert f(1) == 10.0
        assert f(4) == 10.0
        assert f(5) == 20.0

    def test_subadditive_but_not_concave(self):
        f = BlockIOCost(io_cost=10.0, block_size=4)
        check_cost_function(f)
        # Non-concavity: the jump at the block boundary.
        assert f(5) - f(4) > f(4) - f(3)

    def test_with_slope(self):
        f = BlockIOCost(io_cost=10.0, block_size=4, slope=1.0)
        assert f(3) == pytest.approx(13.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BlockIOCost(io_cost=0.0, block_size=4)
        with pytest.raises(ValueError):
            BlockIOCost(io_cost=1.0, block_size=0)


class TestStepCost:
    def test_paper_construction_values(self):
        # eps = 0.5, C = 10: knee at 4 modifications.
        f = StepCost(eps=0.5, limit=10.0)
        assert f(4) == pytest.approx(10.0)  # exactly C at the knee
        assert f(5) == pytest.approx(12.5)  # (1 + eps/2) * C beyond
        assert f(2) == pytest.approx(5.0)

    def test_monotone_and_subadditive(self):
        check_cost_function(StepCost(eps=0.5, limit=10.0), upto=30)

    def test_requires_integer_inverse_eps(self):
        with pytest.raises(ValueError):
            StepCost(eps=0.3, limit=10.0)


class TestTabulatedCost:
    def test_replays_samples_exactly(self):
        f = TabulatedCost([(10, 5.0), (20, 8.0), (40, 12.0)])
        assert f(10) == pytest.approx(5.0)
        assert f(20) == pytest.approx(8.0)

    def test_interpolates_between_samples(self):
        f = TabulatedCost([(10, 5.0), (20, 8.0)])
        assert f(15) == pytest.approx(6.5)

    def test_extrapolates_tail_slope(self):
        f = TabulatedCost([(10, 5.0), (20, 8.0)])
        assert f(30) == pytest.approx(11.0)

    def test_monotone_repair_of_noisy_samples(self):
        f = TabulatedCost([(10, 5.0), (20, 4.0), (30, 9.0)])
        assert f(20) == pytest.approx(5.0)  # repaired upward
        assert f.is_monotone(30)

    def test_zero_is_free(self):
        f = TabulatedCost([(10, 5.0), (20, 8.0)])
        assert f(0) == 0.0

    def test_single_sample_extrapolates_proportionally(self):
        f = TabulatedCost([(10, 5.0)])
        assert f(20) == pytest.approx(10.0)

    def test_rejects_empty_or_negative(self):
        with pytest.raises(ValueError):
            TabulatedCost([])
        with pytest.raises(ValueError):
            TabulatedCost([(-1, 2.0)])
        with pytest.raises(ValueError):
            TabulatedCost([(5, -2.0)])


class TestFitLinear:
    def test_exact_fit_recovers_parameters(self):
        truth = LinearCost(slope=1.5, setup=4.0)
        samples = [(k, truth(k)) for k in (5, 10, 20, 40)]
        fit = fit_linear(samples)
        assert fit.slope == pytest.approx(1.5)
        assert fit.setup == pytest.approx(4.0)

    def test_negative_setup_clamped_via_origin_refit(self):
        # Convex-ish samples would fit a negative intercept.
        samples = [(1, 0.5), (10, 11.0), (20, 24.0)]
        fit = fit_linear(samples)
        assert fit.setup == 0.0
        assert fit.slope > 0

    def test_requires_two_nonzero_samples(self):
        with pytest.raises(ValueError):
            fit_linear([(0, 0.0), (5, 2.0)])

    def test_degenerate_same_batch_size(self):
        fit = fit_linear([(10, 5.0), (10, 7.0)])
        assert fit.setup == 0.0
        assert fit.slope > 0


class TestMaxBatchUnder:
    def test_matches_bruteforce_on_block_cost(self):
        f = BlockIOCost(io_cost=3.0, block_size=5, slope=0.25)
        for budget in (0.5, 3.0, 7.0, 20.0, 100.0):
            brute = 0
            k = 1
            while f(k) <= budget and k < 1000:
                brute = k
                k += 1
            assert max_batch_under(f, budget, hi=2048) == brute

    def test_zero_budget(self):
        assert max_batch_under(LinearCost(slope=1.0), 0.0) == 0

    def test_negative_budget(self):
        assert max_batch_under(LinearCost(slope=1.0), -1.0) == 0

    def test_hi_cap_respected(self):
        f = LinearCost(slope=0.0, setup=1.0)
        assert max_batch_under(f, 5.0, hi=64) == 64


class TestCheckCostFunction:
    def test_accepts_valid(self):
        check_cost_function(LinearCost(slope=1.0, setup=2.0))

    def test_rejects_superadditive(self):
        class Quadratic(LinearCost):
            def cost(self, k):
                return float(k * k)

        with pytest.raises(ValueError, match="not subadditive"):
            check_cost_function(Quadratic(slope=1.0))

    def test_rejects_nonmonotone(self):
        class Dipping(LinearCost):
            def cost(self, k):
                return 10.0 - k if k < 5 else float(k)

        with pytest.raises(ValueError, match="not monotone"):
            check_cost_function(Dipping(slope=1.0))
