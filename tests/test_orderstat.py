"""Tests for the Omega recursion (Algorithm 4.8) and the conditional
reward probability of eqs. (4.7)-(4.10)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc

from repro.exceptions import NumericalError
from repro.numerics.orderstat import (
    OmegaCalculator,
    conditional_reward_probability,
    omega,
)


class TestBaseCases:
    def test_all_coefficients_below_threshold(self):
        assert omega([0.5, 0.1], [3, 2], threshold=1.0) == 1.0

    def test_all_coefficients_above_threshold(self):
        assert omega([5.0, 3.0], [1, 2], threshold=1.0) == 0.0

    def test_boundary_coefficient_counts_as_lesser(self):
        # c <= r belongs to the L set.
        assert omega([1.0], [4], threshold=1.0) == 1.0

    def test_empty_counts(self):
        # No intervals at all: vacuously bounded.
        assert omega([2.0, 0.0], [0, 0], threshold=1.0) == 1.0


class TestKnownValues:
    def test_single_uniform(self):
        # G = c * U with U uniform(0,1): Pr{cU <= r} = r / c.
        # Setup: one interval of coefficient c=2, one of coefficient 0
        # (so Y_1 ~ the first of two order-statistic spacings, which is
        # Beta(1, 1)-spacing; with n+1 = 2 intervals each spacing is
        # uniform-like). Pr{2 Y_1 <= 1} with Y_1 ~ Beta(1,1) spacing of 2
        # intervals = 1 - (1 - r/c)^1 = 0.5.
        value = omega([2.0, 0.0], [1, 1], threshold=1.0)
        assert value == pytest.approx(0.5)

    def test_spacing_distribution(self):
        # With m total intervals and one carrying coefficient c, the
        # spacing Y_1 ~ Beta(1, m-1): Pr{c Y_1 <= r} = 1 - (1 - r/c)^(m-1).
        c, r = 3.0, 1.0
        for m in (2, 3, 5, 8):
            counts = [1, m - 1]
            expected = 1.0 - (1.0 - r / c) ** (m - 1)
            assert omega([c, 0.0], counts, threshold=r) == pytest.approx(expected)

    def test_example_4_4_setup(self):
        # The worked example of the paper: rewards 5>3>1>0, impulses
        # 2>1>0, path with n=6, k=<1,2,2,2>, j=<4,2,0>, t=5, r=15.
        # r' = 1, c = <5,3,1,0>; the thesis shows the recursion tree but
        # not the final value, so we pin the derived quantities and check
        # the value lies in (0, 1) and equals the independent Monte Carlo
        # estimate.
        value = conditional_reward_probability(
            state_rewards=[5.0, 3.0, 1.0, 0.0],
            sojourn_counts=[1, 2, 2, 2],
            impulse_rewards=[2.0, 1.0, 0.0],
            impulse_counts=[4, 2, 0],
            time_bound=5.0,
            reward_bound=15.0,
        )
        assert 0.0 < value < 1.0
        assert value == pytest.approx(_monte_carlo([5, 3, 1, 0], [1, 2, 2, 2], 1.0), abs=0.01)

    def test_monte_carlo_agreement_generic(self):
        coefficients = [4.0, 2.5, 1.0, 0.0]
        counts = [2, 1, 3, 2]
        threshold = 1.8
        value = omega(coefficients, counts, threshold)
        estimate = _monte_carlo(coefficients, counts, threshold)
        assert value == pytest.approx(estimate, abs=0.01)


def _monte_carlo(coefficients, counts, threshold, samples=200_000, seed=7):
    """Estimate Pr{sum_l c_l * L_l <= r} with L_l Dirichlet spacings."""
    rng = np.random.default_rng(seed)
    total = sum(counts)
    # n+1 = total intervals; spacings of uniform order statistics over
    # (0,1) are Dirichlet(1,...,1).
    spacings = rng.dirichlet(np.ones(total), size=samples)
    weights = np.repeat(np.asarray(coefficients, dtype=float), counts)
    values = spacings.dot(weights)
    return float(np.mean(values <= threshold))


class TestValidation:
    def test_duplicate_coefficients_rejected(self):
        with pytest.raises(NumericalError):
            OmegaCalculator([1.0, 1.0], threshold=0.5)

    def test_count_length_mismatch_rejected(self):
        with pytest.raises(NumericalError):
            omega([1.0, 0.0], [1], threshold=0.5)

    def test_negative_counts_rejected(self):
        with pytest.raises(NumericalError):
            omega([1.0, 0.0], [-1, 2], threshold=0.5)

    def test_nonincreasing_rewards_rejected(self):
        with pytest.raises(NumericalError):
            conditional_reward_probability(
                [1.0, 2.0], [1, 1], [0.0], [1], time_bound=1.0, reward_bound=1.0
            )

    def test_nonpositive_time_rejected(self):
        with pytest.raises(NumericalError):
            conditional_reward_probability(
                [1.0, 0.0], [1, 1], [0.0], [1], time_bound=0.0, reward_bound=1.0
            )


class TestCalculatorBehaviour:
    def test_memoization_shares_work(self):
        calculator = OmegaCalculator([3.0, 1.0, 0.0], threshold=1.5)
        calculator.value([3, 2, 2])
        first = calculator.evaluations
        calculator.value([3, 2, 2])
        assert calculator.evaluations == first  # fully cached
        calculator.value([3, 2, 3])  # extends the lattice a bit
        assert calculator.evaluations > first

    def test_deep_counts_do_not_overflow_stack(self):
        # Total count ~3000 would break naive recursion.  The time share
        # of the reward-2 group is Beta(1500, 1500) distributed, so Omega
        # is its CDF at 1/2.
        value = omega([2.0, 0.0], [1500, 1500], threshold=1.0)
        assert value == pytest.approx(betainc(1500, 1500, 0.5), abs=1e-12)

    def test_value_in_unit_interval(self):
        calculator = OmegaCalculator([4.0, 2.0, 0.5, 0.0], threshold=1.2)
        for counts in ([1, 1, 1, 1], [5, 0, 0, 1], [0, 3, 3, 0], [2, 2, 2, 2]):
            assert 0.0 <= calculator.value(counts) <= 1.0


class TestValueMany:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_bitwise(self, data):
        size = data.draw(st.integers(1, 4))
        coeffs = sorted(
            data.draw(
                st.lists(
                    st.floats(0.0, 10.0, allow_nan=False),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            ),
            reverse=True,
        )
        threshold = data.draw(st.floats(-1.0, 11.0, allow_nan=False))
        matrix = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 12), min_size=size, max_size=size),
                    min_size=1,
                    max_size=12,
                )
            ),
            dtype=np.int64,
        )
        scalar = OmegaCalculator(coeffs, threshold)
        batched = OmegaCalculator(coeffs, threshold)
        expected = np.array([scalar.value(row) for row in matrix])
        actual = batched.value_many(matrix)
        # The generation-synchronous batch sweep performs the identical
        # arithmetic per node, so agreement is exact, not approximate.
        assert np.array_equal(expected, actual)
        assert scalar.evaluations == batched.evaluations

    def test_batch_then_scalar_share_memo(self):
        calculator = OmegaCalculator([3.0, 1.0, 0.0], threshold=1.5)
        calculator.value_many([[3, 2, 2], [1, 4, 0]])
        first = calculator.evaluations
        assert calculator.value([3, 2, 2]) == calculator.value_many(
            [[3, 2, 2]]
        )[0]
        assert calculator.evaluations == first  # fully cached either way

    def test_duplicate_rows_collapse(self):
        calculator = OmegaCalculator([2.0, 0.0], threshold=1.0)
        values = calculator.value_many([[2, 3]] * 5)
        assert len(set(values.tolist())) == 1

    def test_deep_batch_does_not_recurse(self):
        calculator = OmegaCalculator([2.0, 0.0], threshold=1.0)
        values = calculator.value_many([[1500, 1500], [1000, 2000]])
        expected = [betainc(1500, 1500, 0.5), betainc(1000, 2000, 0.5)]
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)

    def test_validation(self):
        calculator = OmegaCalculator([2.0, 0.0], threshold=1.0)
        with pytest.raises(NumericalError):
            calculator.value_many([1, 2])  # not 2-D
        with pytest.raises(NumericalError):
            calculator.value_many([[1, 2, 3]])  # wrong width
        with pytest.raises(NumericalError):
            calculator.value_many([[1, -2]])  # negative count

    def test_non_2d_error_names_the_offending_shape(self):
        calculator = OmegaCalculator([2.0, 0.0], threshold=1.0)
        with pytest.raises(NumericalError, match=r"got shape \(2,\)"):
            calculator.value_many([1, 2])
        with pytest.raises(NumericalError, match=r"got shape \(1, 1, 2\)"):
            calculator.value_many([[[1, 2]]])


class TestConditionalProbability:
    def test_impulses_alone_exceed_bound(self):
        value = conditional_reward_probability(
            [2.0, 0.0], [1, 1], [5.0, 0.0], [3, 0], time_bound=1.0, reward_bound=10.0
        )
        assert value == 0.0

    def test_certain_when_max_rate_fits(self):
        # Max possible reward = r_1 * t = 2; bound 3 => certain.
        value = conditional_reward_probability(
            [2.0, 0.0], [1, 1], [0.0], [1], time_bound=1.0, reward_bound=3.0
        )
        assert value == 1.0

    def test_single_reward_level_deterministic(self):
        # All states earn rate 3: Y(t) = 3t exactly.
        high = conditional_reward_probability(
            [3.0], [4], [0.0], [3], time_bound=2.0, reward_bound=6.0
        )
        low = conditional_reward_probability(
            [3.0], [4], [0.0], [3], time_bound=2.0, reward_bound=5.9
        )
        assert high == 1.0
        assert low == 0.0

    def test_impulses_shift_threshold(self):
        base = conditional_reward_probability(
            [2.0, 0.0], [2, 2], [1.0, 0.0], [0, 3], time_bound=4.0, reward_bound=4.0
        )
        with_impulses = conditional_reward_probability(
            [2.0, 0.0], [2, 2], [1.0, 0.0], [3, 0], time_bound=4.0, reward_bound=4.0
        )
        assert with_impulses < base


class TestMonotonicityProperties:
    @given(
        threshold_a=st.floats(min_value=0.0, max_value=5.0),
        threshold_b=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_threshold(self, threshold_a, threshold_b):
        lo, hi = sorted((threshold_a, threshold_b))
        coefficients = [4.0, 2.0, 1.0, 0.0]
        counts = [1, 2, 1, 2]
        assert omega(coefficients, counts, lo) <= omega(coefficients, counts, hi) + 1e-12

    @given(extra=st.integers(min_value=0, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_more_high_reward_intervals_lower_probability(self, extra):
        coefficients = [4.0, 0.0]
        base = omega(coefficients, [1, 3], threshold=1.0)
        harder = omega(coefficients, [1 + extra, 3], threshold=1.0)
        assert harder <= base + 1e-12
