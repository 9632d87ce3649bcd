"""Property tests: the independent P2 engines agree on random models.

Random small MRMs with integer rewards are generated; the paths sweep,
the merged sweep and the discretization engine must agree
on ``Pr{Y(t) <= r, X(t) |= Psi}`` within their analysis errors.  This is
the strongest correctness argument available (the paper's Section 5.3.3
applies it to a single model; here hypothesis sweeps the model space).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check.paths_engine import (
    joint_distribution,
    joint_distribution_from_context,
    prepare_path_engine,
)
from repro.check.discretization import discretized_joint_distribution
from repro.ctmc.chain import CTMC
from repro.mrm.model import MRM
from tests.paths_oracle import merged_dp_result


@st.composite
def small_mrm(draw):
    """A random MRM with <= 4 states, moderate rates, integer rewards."""
    n = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.6:
                rates[i][j] = float(rng.integers(1, 4)) / 4.0
    # Ensure at least one transition out of state 0 so runs are non-trivial.
    if rates[0].sum() == 0.0:
        rates[0][(1) % n] = 1.0
    rewards = [float(rng.integers(0, 4)) for _ in range(n)]
    impulses = {}
    for i in range(n):
        for j in range(n):
            if i != j and rates[i][j] > 0 and rng.random() < 0.4:
                impulses[(i, j)] = float(rng.integers(1, 3))
    chain = CTMC(rates)
    return MRM(chain, state_rewards=rewards, impulse_rewards=impulses)


class TestEngineAgreement:
    @given(model=small_mrm(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_paths_vs_merged(self, model, data):
        n = model.num_states
        psi = {data.draw(st.integers(0, n - 1))}
        t = data.draw(st.sampled_from([0.5, 1.0]))
        r = data.draw(st.sampled_from([1.0, 3.0, 8.0]))
        kwargs = dict(
            initial_state=0,
            psi_states=psi,
            time_bound=t,
            reward_bound=r,
            truncation_probability=1e-8,
        )
        paths = joint_distribution(model, strategy="paths", **kwargs)
        merged = joint_distribution(model, strategy="merged", **kwargs)
        tolerance = paths.error_bound + merged.error_bound + 1e-9
        assert abs(paths.probability - merged.probability) <= tolerance

    @given(model=small_mrm(), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_uniformization_vs_discretization(self, model, data):
        n = model.num_states
        psi = {data.draw(st.integers(0, n - 1))}
        t = data.draw(st.sampled_from([0.5, 1.0]))
        r = data.draw(st.sampled_from([2.0, 6.0]))
        uniform = joint_distribution(
            model, 0, psi, t, r, truncation_probability=1e-9, strategy="merged"
        )
        disc = discretized_joint_distribution(
            model, 0, psi, t, r, step=1 / 128
        )
        # First-order discretization: allow O(d * total rate) slack.
        slack = 0.05 + uniform.error_bound
        assert abs(uniform.probability - disc.probability) <= slack

    @given(model=small_mrm(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_columnar_matches_legacy_merged(self, model, data):
        """The columnar merged sweep is the same recursion as the
        dict-frontier DP oracle, so agreement is near-exact (1e-12, the
        slack covering merge-order-dependent float summation) and the
        search statistics must match exactly."""
        n = model.num_states
        psi = {data.draw(st.integers(0, n - 1))}
        t = data.draw(st.sampled_from([0.5, 1.0]))
        r = data.draw(st.sampled_from([1.0, 3.0, 8.0]))
        mode = data.draw(st.sampled_from(["safe", "paper"]))
        context = prepare_path_engine(
            model,
            psi_states=psi,
            time_bound=t,
            reward_bound=r,
            truncation_probability=1e-8,
            truncation=mode,
            strategy="merged",
        )
        legacy = merged_dp_result(context, 0)
        columnar = joint_distribution_from_context(context, 0)
        assert abs(columnar.probability - legacy.probability) <= 1e-12
        assert abs(columnar.error_bound - legacy.error_bound) <= 1e-12
        assert columnar.paths_generated == legacy.paths_generated
        assert columnar.paths_stored == legacy.paths_stored
        assert columnar.classes == legacy.classes
        assert columnar.max_depth == legacy.max_depth

    @given(model=small_mrm(), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_probability_bounds(self, model, data):
        n = model.num_states
        psi = {data.draw(st.integers(0, n - 1))}
        result = joint_distribution(
            model, 0, psi, 1.0, 5.0, truncation_probability=1e-7
        )
        assert -1e-12 <= result.probability <= 1.0 + 1e-12
        assert 0.0 <= result.error_bound <= 1.0 + 1e-12
