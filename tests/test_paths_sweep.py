"""The columnar sweep against its dict-and-tuple oracles.

Strategy ``"paths"`` must generate exactly Algorithm 4.7's path set with
its per-path truncation test, and strategy ``"merged"`` exactly the
frontiers of the breadth-first merged DP; only the traversal (and so the
summation) order may differ from the oracles in :mod:`tests.paths_oracle`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check import paths_engine
from repro.check.paths_engine import (
    _class_packing,
    joint_distribution_from_context,
    prepare_path_engine,
)
from repro.ctmc.chain import CTMC
from repro.mrm.model import MRM
from tests.paths_oracle import dfs_result, merged_dp_result


def assert_matches_oracle(context, states, oracle_result=dfs_result):
    for state in states:
        sweep = joint_distribution_from_context(context, state)
        oracle = oracle_result(context, state)
        assert sweep.paths_generated == oracle.paths_generated
        assert sweep.paths_stored == oracle.paths_stored
        assert sweep.max_depth == oracle.max_depth
        assert sweep.classes == oracle.classes
        assert sweep.probability == pytest.approx(oracle.probability, abs=1e-12)
        assert sweep.error_bound == pytest.approx(oracle.error_bound, abs=1e-12)


@st.composite
def absorbing_query(draw):
    """A small MRM made absorbing in its Psi- and dead states, plus a query."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    levels = [0.0, 2.0, 5.0][: draw(st.integers(1, 3))]
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.6:
                rates[i][j] = float(rng.integers(1, 5)) / 4.0
    rewards = [float(rng.choice(levels)) for _ in range(n)]
    impulses = {
        (i, j): float(rng.integers(1, 4))
        for i in range(n)
        for j in range(n)
        if rates[i][j] > 0 and rng.random() < 0.4
    }
    psi = set(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)))
    dead = set(draw(st.sets(st.integers(0, n - 1), max_size=2))) - psi
    model = MRM(CTMC(rates), state_rewards=rewards, impulse_rewards=impulses)
    query = dict(
        psi_states=psi,
        dead_states=dead,
        time_bound=draw(st.sampled_from([1.0, 2.0, 4.0])),
        reward_bound=draw(st.sampled_from([0.5, 2.0, 6.0])),
        truncation_probability=draw(st.sampled_from([1e-4, 1e-6])),
        depth_limit=draw(st.sampled_from([None, None, 2, 5])),
        truncation=draw(st.sampled_from(["paper", "safe"])),
    )
    return model.make_absorbing(psi | dead), query


def wide_model():
    """Seven distinct state rewards and a distinct impulse per edge: far
    more count fields than two packed words hold, so the sweep keys its
    rows by ClassTable id instead."""
    n = 7
    rates = np.zeros((n, n))
    impulses = {}
    for i in range(n):
        for j in ((i + 1) % n, (i + 2) % n, (i + 4) % n):
            rates[i][j] = 0.5 + 0.25 * ((i + j) % 3)
            impulses[(i, j)] = 1.0 + len(impulses)
    return MRM(
        CTMC(rates),
        state_rewards=[float(i) for i in range(n)],
        impulse_rewards=impulses,
    )


WIDE_QUERY = dict(
    psi_states={6, 3},
    time_bound=1.0,
    reward_bound=12.0,
    truncation_probability=1e-6,
)


def tmr3_query(tmr3, strategy):
    sup = tmr3.states_with_label("Sup")
    failed = tmr3.states_with_label("failed")
    dead = set(range(tmr3.num_states)) - sup - failed
    context = prepare_path_engine(
        tmr3.make_absorbing(dead | failed),
        failed,
        time_bound=100.0,
        reward_bound=3000.0,
        truncation_probability=1e-11,
        dead_states=dead,
        truncation="paper",
        strategy=strategy,
    )
    return context, sorted(sup)


class TestSweepMatchesDfs:
    @given(case=absorbing_query())
    @settings(max_examples=60, deadline=None)
    def test_random_absorbing_models(self, case):
        model, query = case
        context = prepare_path_engine(model, strategy="paths", **query)
        assert_matches_oracle(context, range(model.num_states))

    @pytest.mark.parametrize("truncation", ["paper", "safe"])
    def test_model_too_wide_to_pack(self, truncation):
        model = wide_model()
        context = prepare_path_engine(model, truncation=truncation, **WIDE_QUERY)
        assert _class_packing(context) is None
        assert_matches_oracle(context, range(model.num_states))

    def test_blocks_split_deep_frontiers(self, monkeypatch, tmr3):
        # Tiny blocks force the deepest-first block stack through many
        # splits; the path set and counts must not depend on block size.
        context, states = tmr3_query(tmr3, "paths")
        monkeypatch.setattr(paths_engine, "PATHS_BLOCK_ROWS", 7)
        assert_matches_oracle(context, states)


class TestMergedSweepMatchesDp:
    @given(case=absorbing_query())
    @settings(max_examples=60, deadline=None)
    def test_random_absorbing_models(self, case):
        model, query = case
        context = prepare_path_engine(model, strategy="merged", **query)
        assert_matches_oracle(context, range(model.num_states), merged_dp_result)

    @pytest.mark.parametrize("depth_limit", [None, 3])
    @pytest.mark.parametrize("truncation", ["paper", "safe"])
    def test_model_too_wide_to_pack(self, truncation, depth_limit):
        model = wide_model()
        context = prepare_path_engine(
            model,
            strategy="merged",
            truncation=truncation,
            depth_limit=depth_limit,
            **WIDE_QUERY,
        )
        # A depth limit shortens the Poisson table, and with it the
        # count fields, far enough for the packed keys.
        assert (_class_packing(context) is None) == (depth_limit is None)
        assert_matches_oracle(context, range(model.num_states), merged_dp_result)

    def test_tmr3_paper_truncation(self, tmr3):
        context, states = tmr3_query(tmr3, "merged")
        assert_matches_oracle(context, states, merged_dp_result)

    @pytest.mark.parametrize("wide", [False, True])
    def test_never_splits_a_depth(self, monkeypatch, tmr3, wide):
        # The merge sums a whole depth before its truncation test, so the
        # block size must not reach it: one-row blocks change nothing.
        if wide:
            model = wide_model()
            context = prepare_path_engine(model, strategy="merged", **WIDE_QUERY)
            states = range(model.num_states)
        else:
            context, states = tmr3_query(tmr3, "merged")
        expected = [
            paths_engine._run_paths_sweep(state, context) for state in states
        ]
        monkeypatch.setattr(paths_engine, "PATHS_BLOCK_ROWS", 1)
        for state, before in zip(states, expected):
            after = paths_engine._run_paths_sweep(state, context)
            for old, new in zip(before, after):
                if isinstance(old, np.ndarray):
                    assert old.dtype == new.dtype
                    assert old.tobytes() == new.tobytes()
                else:
                    assert old == new
