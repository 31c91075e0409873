"""Tests for the arrival-sequence generators."""

import pytest

from repro.workloads.arrivals import (
    FAST_STABLE,
    FAST_UNSTABLE,
    SLOW_STABLE,
    StreamParams,
    bursty_arrivals,
    periodic_arrivals,
    stochastic_arrivals,
    uniform_arrivals,
)


class TestUniform:
    def test_constant_rows(self):
        seq = uniform_arrivals((3, 1), 5)
        assert len(seq) == 5
        assert all(row == (3, 1) for row in seq)

    def test_guards(self):
        with pytest.raises(ValueError):
            uniform_arrivals((1,), 0)
        with pytest.raises(ValueError):
            uniform_arrivals((-1,), 5)


class TestStochastic:
    def test_deterministic_given_seed(self):
        a = stochastic_arrivals((SLOW_STABLE,), 50, seed=3)
        b = stochastic_arrivals((SLOW_STABLE,), 50, seed=3)
        assert a == b

    def test_rate_parameter_controls_activity(self):
        slow = stochastic_arrivals((SLOW_STABLE,), 2000, seed=4)
        fast = stochastic_arrivals((FAST_STABLE,), 2000, seed=4)
        active_slow = sum(1 for row in slow if row[0])
        active_fast = sum(1 for row in fast if row[0])
        # p = 0.5 vs p = 0.9 must be clearly separated.
        assert active_slow / 2000 == pytest.approx(0.5, abs=0.05)
        assert active_fast / 2000 == pytest.approx(0.9, abs=0.05)

    def test_sigma_controls_variance(self):
        stable = stochastic_arrivals((FAST_STABLE,), 3000, seed=5)
        unstable = stochastic_arrivals((FAST_UNSTABLE,), 3000, seed=5)

        def variance(seq):
            xs = [row[0] for row in seq]
            mean = sum(xs) / len(xs)
            return sum((x - mean) ** 2 for x in xs) / len(xs)

        assert variance(unstable) > 3 * variance(stable)

    def test_counts_positive_when_active(self):
        seq = stochastic_arrivals((FAST_STABLE,), 500, seed=6)
        assert all(row[0] >= 0 for row in seq)
        assert any(row[0] > 0 for row in seq)

    def test_scale_multiplies(self):
        plain = stochastic_arrivals((SLOW_STABLE,), 100, seed=7)
        scaled = stochastic_arrivals(
            (SLOW_STABLE,), 100, seed=7, scale=(80,)
        )
        assert all(s == (p[0] * 80,) for p, s in zip(plain, scaled))

    def test_sigma_zero_is_deterministic_count(self):
        params = StreamParams(p=1.0, mu=2.0, sigma=0.0)
        seq = stochastic_arrivals((params,), 20, seed=8)
        assert all(row == (2,) for row in seq)

    def test_scale_width_checked(self):
        with pytest.raises(ValueError):
            stochastic_arrivals((SLOW_STABLE,), 10, scale=(1, 2))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            StreamParams(p=1.5)
        with pytest.raises(ValueError):
            StreamParams(sigma=-1)


class TestPeriodic:
    def test_repeats_pattern(self):
        seq = periodic_arrivals([(1,), (2,), (3,)], 7)
        assert [row[0] for row in seq] == [1, 2, 3, 1, 2, 3, 1]

    def test_guards(self):
        with pytest.raises(ValueError):
            periodic_arrivals([], 5)
        with pytest.raises(ValueError):
            periodic_arrivals([(1,)], 0)


class TestBursty:
    def test_bursts_present(self):
        seq = bursty_arrivals((2,), 100, burst_every=10, burst_factor=5, seed=1)
        counts = {row[0] for row in seq}
        assert counts == {2, 10}
        burst_steps = sum(1 for row in seq if row[0] == 10)
        assert 5 <= burst_steps <= 15

    def test_guards(self):
        with pytest.raises(ValueError):
            bursty_arrivals((1,), 10, burst_every=0, burst_factor=2)
        with pytest.raises(ValueError):
            bursty_arrivals((1,), 10, burst_every=5, burst_factor=0)
