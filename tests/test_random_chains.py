"""Property tests on random chains against independent linear algebra.

The CTMC analyses are validated against ``scipy.linalg.expm`` (matrix
exponential — a completely different algorithm than uniformization) and
against the defining balance equations, over hypothesis-generated
random chains.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from repro.ctmc.chain import CTMC
from repro.ctmc.steady import steady_state_distribution, steady_state_matrix
from repro.ctmc.transient import transient_distribution
from repro.dtmc.chain import DTMC


def random_ctmc(seed: int, n: int, density: float, max_rate: float) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rates[i][j] = float(rng.uniform(0.05, max_rate))
    return CTMC(rates)


class TestTransientAgainstExpm:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 6),
        t=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_matrix_exponential(self, seed, n, t):
        chain = random_ctmc(seed, n, density=0.5, max_rate=3.0)
        initial = np.zeros(n)
        initial[0] = 1.0
        ours = transient_distribution(chain, initial, t)
        expm = initial @ scipy.linalg.expm(chain.generator().toarray() * t)
        assert ours == pytest.approx(expm, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_chapman_kolmogorov(self, seed):
        """p(s + t) = p(s) then evolve t more."""
        chain = random_ctmc(seed, 4, density=0.6, max_rate=2.0)
        initial = np.full(4, 0.25)
        via_midpoint = transient_distribution(
            chain, transient_distribution(chain, initial, 0.7), 0.5
        )
        direct = transient_distribution(chain, initial, 1.2)
        assert via_midpoint == pytest.approx(direct, abs=1e-9)


class TestSteadyStateProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_global_balance(self, seed, n):
        chain = random_ctmc(seed, n, density=0.7, max_rate=3.0)
        initial = np.zeros(n)
        initial[0] = 1.0
        steady = steady_state_distribution(chain, initial)
        assert steady.sum() == pytest.approx(1.0, abs=1e-9)
        # pi is invariant under further evolution.
        evolved = transient_distribution(chain, steady, 3.0)
        assert evolved == pytest.approx(steady, abs=1e-8)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    # Drains at rate 1.1e-3 although its slowest rate is 0.13: a horizon
    # scaled by the slowest rate left 1.3 % of the mass in transit.
    @example(seed=1004, n=5)
    def test_matrix_rows_match_per_start_limits(self, seed, n):
        chain = random_ctmc(seed, n, density=0.5, max_rate=2.0)
        matrix = steady_state_matrix(chain)
        # Every row converges like exp(-gap * t), the gap being the
        # smallest nonzero |Re lambda| of the generator, so 40 gaps
        # leave e^-40 of the mass in transit however slow the chain.
        generator = chain.generator().toarray()
        decay = np.abs(np.linalg.eigvals(generator).real)
        decay = decay[decay > 1e-9 * max(1.0, np.abs(generator).max())]
        horizon = 40.0 / decay.min() if decay.size else 1.0
        limits = scipy.linalg.expm(generator * horizon)
        for start in range(n):
            assert matrix[start] == pytest.approx(limits[start], abs=1e-5)


class TestEmbeddedAndUniformized:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_derived_chains_are_stochastic(self, seed, n):
        chain = random_ctmc(seed, n, density=0.5, max_rate=3.0)
        for derived in (chain.embedded_dtmc(), chain.uniformized_dtmc()):
            sums = np.asarray(derived.matrix.sum(axis=1)).ravel()
            assert sums == pytest.approx(np.ones(n), abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_uniformization_rate_invariance(self, seed):
        """Transient results must not depend on the chosen Lambda."""
        chain = random_ctmc(seed, 4, density=0.6, max_rate=2.0)
        initial = np.array([1.0, 0.0, 0.0, 0.0])
        base = transient_distribution(chain, initial, 1.0)
        inflated = transient_distribution(
            chain, initial, 1.0, uniformization_rate=25.0
        )
        assert inflated == pytest.approx(base, abs=1e-9)


@st.composite
def small_reward_mrm(draw):
    """A random MRM with <= 4 states, moderate rates, integer rewards."""
    from repro.mrm.model import MRM

    n = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.6:
                rates[i][j] = float(rng.integers(1, 4)) / 4.0
    if rates[0].sum() == 0.0:
        rates[0][1 % n] = 1.0
    rewards = [float(rng.integers(0, 4)) for _ in range(n)]
    impulses = {}
    for i in range(n):
        for j in range(n):
            if i != j and rates[i][j] > 0 and rng.random() < 0.4:
                impulses[(i, j)] = float(rng.integers(1, 3))
    return MRM(CTMC(rates), state_rewards=rewards, impulse_rewards=impulses)


class TestBatchedEnginesMatchPerStateLoop:
    """The batched all-states P2 evaluation must reproduce the per-state
    loop bit-for-bit (well within 1e-10) for both engines: the batched
    paths engine runs the same searches against one shared context, and
    the batched discretization engine runs the adjoint of the forward
    recursion."""

    @given(model=small_reward_mrm(), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_paths_engine_batched_equals_loop(self, model, data):
        from repro.check.paths_engine import (
            joint_distribution,
            joint_distribution_all,
        )

        n = model.num_states
        psi = {data.draw(st.integers(0, n - 1))}
        t = data.draw(st.sampled_from([0.5, 1.0]))
        r = data.draw(st.sampled_from([1.0, 3.0, 8.0]))
        strategy = data.draw(st.sampled_from(["paths", "merged"]))
        kwargs = dict(
            psi_states=psi,
            time_bound=t,
            reward_bound=r,
            truncation_probability=1e-8,
            strategy=strategy,
        )
        batched = joint_distribution_all(model, range(n), **kwargs)
        for state in range(n):
            single = joint_distribution(model, state, **kwargs)
            assert batched[state].probability == pytest.approx(
                single.probability, abs=1e-10
            )
            assert batched[state].error_bound == pytest.approx(
                single.error_bound, abs=1e-10
            )
            assert batched[state].paths_generated == single.paths_generated
            assert batched[state].paths_stored == single.paths_stored

    @given(model=small_reward_mrm(), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_discretization_batched_equals_loop(self, model, data):
        from repro.check.discretization import (
            discretized_joint_distribution,
            discretized_joint_distributions,
        )

        n = model.num_states
        psi = {data.draw(st.integers(0, n - 1))}
        t = data.draw(st.sampled_from([0.5, 1.0]))
        r = data.draw(st.sampled_from([2.0, 6.0]))
        batched = discretized_joint_distributions(model, psi, t, r, step=1 / 32)
        for state in range(n):
            single = discretized_joint_distribution(
                model, state, psi, t, r, step=1 / 32
            )
            assert batched.probabilities[state] == pytest.approx(
                single.probability, abs=1e-10
            )
            view = batched.result_for(state)
            assert view.time_steps == single.time_steps
            assert view.reward_cells == single.reward_cells

    @given(model=small_reward_mrm(), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_satisfy_until_matches_manual_loop(self, model, data):
        """End to end: the batched satisfy_until equals per-state
        until_probability for the pending states."""
        from repro.check.until import satisfy_until, until_probability
        from repro.logic.ast import Comparison
        from repro.numerics.intervals import Interval

        n = model.num_states
        psi = {data.draw(st.integers(0, n - 1))}
        phi = set(range(n)) - {data.draw(st.integers(0, n - 1))}
        time_bound = Interval.upto(0.5)
        reward_bound = Interval.upto(4.0)
        result = satisfy_until(
            model, Comparison.GE, 0.5, phi, psi, time_bound, reward_bound
        )
        for state in sorted(phi - psi):
            single = until_probability(
                model, state, phi, psi, time_bound, reward_bound
            )
            assert result.values[state] == pytest.approx(
                single.probability, abs=1e-10
            )
            assert result.error_bound_of(state) == pytest.approx(
                single.error_bound, abs=1e-10
            )


class TestParserFuzz:
    @given(text=st.text(min_size=0, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_never_crashes_with_foreign_exception(self, text):
        """Arbitrary input either parses or raises a library error."""
        from repro.exceptions import ReproError
        from repro.logic.parser import parse_formula

        try:
            parse_formula(text)
        except ReproError:
            pass  # expected for almost all random strings
