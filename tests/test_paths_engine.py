"""Tests for the DFPG path engine internals (Sections 4.4.2/4.6)."""

import math

import numpy as np
import pytest

from repro.check.paths_engine import (
    ClassTable,
    PathEngineContext,
    _max_useful_depth,
    _poisson_heads,
    _poisson_max_from,
    _run_paths_sweep,
    joint_distribution,
    joint_distribution_from_context,
    prepare_path_engine,
)
from repro.ctmc.chain import CTMC
from repro.exceptions import CheckError
from repro.mrm.model import MRM
from repro.numerics.orderstat import OmegaRegistry
from repro.numerics.poisson import poisson_pmf
from tests.paths_oracle import merged_dp_result, run_merged_dp, successor_lists


def reward_free_two_state(lam=1.0, mu=2.0):
    chain = CTMC([[0.0, lam], [mu, 0.0]], labels={0: {"a"}, 1: {"b"}})
    return MRM(chain, state_rewards=[0.0, 0.0])


class TestPoissonTables:
    def test_heads_are_cumulative(self):
        heads = _poisson_heads(3.0, 10)
        for n in range(11):
            expected = sum(poisson_pmf(3.0, i) for i in range(n))
            assert heads[n] == pytest.approx(expected, rel=1e-12)

    def test_maxpois_is_suffix_max(self):
        table = _poisson_max_from(5.0, 20)
        pmf = [poisson_pmf(5.0, n) for n in range(40)]
        for n in range(20):
            assert table[n] == pytest.approx(max(pmf[n:]), rel=1e-9)

    def test_maxpois_covers_mode_beyond_depth(self):
        # Depth below the mode: the max must still be the mode value.
        table = _poisson_max_from(30.0, 3)
        assert table[0] == pytest.approx(poisson_pmf(30.0, 30), rel=1e-9)

    def test_max_useful_depth_bounds_weight(self):
        for lam_t, w in ((2.0, 1e-8), (25.0, 1e-11), (0.5, 1e-4)):
            depth = _max_useful_depth(lam_t, w)
            assert poisson_pmf(lam_t, depth) < w
            # The bound is not absurdly loose: some earlier index passes.
            assert any(poisson_pmf(lam_t, n) >= w for n in range(depth))


class TestJointDistributionBasics:
    def test_transient_probability_recovered_with_big_reward(self):
        """With r effectively unbounded the engine computes Pr{X(t) |= Psi}.

        Both states of this chain are live, so the per-path DFS grows as
        2^depth — the merged DP collapses it to two classes per depth
        and allows a tight truncation cheaply.
        """
        lam, mu, t = 1.0, 2.0, 0.8
        model = reward_free_two_state(lam, mu)
        result = joint_distribution(
            model, 0, {1}, time_bound=t, reward_bound=1e12,
            truncation_probability=1e-13, strategy="merged",
        )
        expected = lam / (lam + mu) * (1.0 - math.exp(-(lam + mu) * t))
        assert result.probability == pytest.approx(expected, abs=1e-9)

    def test_zero_reward_bound_with_zero_rewards_is_transient(self):
        model = reward_free_two_state()
        a = joint_distribution(
            model, 0, {1}, 0.5, 0.0,
            truncation_probability=1e-12, strategy="merged",
        )
        b = joint_distribution(
            model, 0, {1}, 0.5, 1e9,
            truncation_probability=1e-12, strategy="merged",
        )
        assert a.probability == pytest.approx(b.probability, abs=1e-10)

    def test_reward_bound_zero_with_positive_rewards(self):
        chain = CTMC([[0.0, 1.0], [0.0, 0.0]], labels={0: {"a"}, 1: {"b"}})
        model = MRM(chain, state_rewards=[5.0, 0.0])
        result = joint_distribution(model, 0, {1}, 1.0, 0.0, truncation_probability=1e-12)
        # Any sojourn in state 0 accumulates reward > 0 almost surely.
        assert result.probability == pytest.approx(0.0, abs=1e-12)

    def test_psi_start_state_total_probability(self):
        model = reward_free_two_state()
        result = joint_distribution(
            model, 0, {0, 1}, 1.0, 1e9,
            truncation_probability=1e-12, strategy="merged",
        )
        assert result.probability == pytest.approx(1.0, abs=1e-9)

    def test_dead_initial_state(self):
        model = reward_free_two_state()
        result = joint_distribution(
            model, 0, {1}, 1.0, 1e9, truncation_probability=1e-10,
            dead_states={0},
        )
        assert result.probability == 0.0
        assert result.paths_generated == 0

    def test_impulse_rewards_consume_budget(self):
        chain = CTMC([[0.0, 1.0], [0.0, 0.0]], labels={0: {"a"}, 1: {"b"}})
        with_impulse = MRM(chain, impulse_rewards={(0, 1): 3.0})
        free = MRM(chain)
        t = 1.0
        jump = 1.0 - math.exp(-t)
        # Budget below the impulse: the jump is never allowed.
        blocked = joint_distribution(
            with_impulse, 0, {1}, t, 2.9, truncation_probability=1e-10
        )
        assert blocked.probability == pytest.approx(0.0, abs=1e-12)
        # Budget above: same as no impulse at all.
        allowed = joint_distribution(
            with_impulse, 0, {1}, t, 3.1, truncation_probability=1e-10
        )
        unconstrained = joint_distribution(
            free, 0, {1}, t, 1e9, truncation_probability=1e-10
        )
        assert allowed.probability == pytest.approx(
            unconstrained.probability, abs=1e-9
        )
        assert unconstrained.probability == pytest.approx(jump, abs=1e-9)


class TestTruncationModes:
    def test_paper_mode_degenerates_when_root_below_w(self, wavelan):
        """exp(-Lambda t) < w discards everything under Algorithm 4.7."""
        transformed = wavelan.make_absorbing({0, 1, 3, 4})
        result = joint_distribution(
            transformed, 2, {3, 4}, time_bound=2.0, reward_bound=2000.0,
            truncation_probability=1e-8, dead_states={0, 1},
            truncation="paper",
        )
        assert result.probability == 0.0
        assert result.error_bound == 1.0

    def test_safe_mode_survives_same_setup(self, wavelan):
        transformed = wavelan.make_absorbing({0, 1, 3, 4})
        result = joint_distribution(
            transformed, 2, {3, 4}, time_bound=2.0, reward_bound=2000.0,
            truncation_probability=1e-8, dead_states={0, 1},
            truncation="safe",
        )
        assert result.probability == pytest.approx(0.15789, abs=1e-3)

    def test_error_bound_shrinks_with_w(self):
        model = reward_free_two_state()
        errors = []
        for w in (1e-3, 1e-5, 1e-7):
            result = joint_distribution(
                model, 0, {1}, 1.0, 1e9, truncation_probability=w
            )
            errors.append(result.error_bound)
        assert all(a >= b - 1e-15 for a, b in zip(errors, errors[1:]))

    def test_estimate_plus_error_brackets_truth(self):
        lam, mu, t = 1.0, 2.0, 2.0
        model = reward_free_two_state(lam, mu)
        expected = lam / (lam + mu) * (1.0 - math.exp(-(lam + mu) * t))
        for w in (1e-3, 1e-5, 1e-6):
            result = joint_distribution(
                model, 0, {1}, t, 1e9, truncation_probability=w
            )
            assert result.probability <= expected + 1e-12
            assert result.probability + result.error_bound >= expected - 1e-9


class TestDepthTruncation:
    def test_depth_limit_caps_paths(self):
        model = reward_free_two_state()
        limited = joint_distribution(
            model, 0, {1}, 1.0, 1e9,
            truncation_probability=0.0, depth_limit=3,
        )
        assert limited.max_depth <= 3
        # Depth-3 expansion of eq. (4.3) by hand: sum over n <= 3 of
        # poisson(n) * Pr{step-n state is 1}.
        process = model.uniformize()
        matrix = process.dtmc.matrix.toarray()
        distribution = np.array([1.0, 0.0])
        expected = 0.0
        for n in range(4):
            expected += poisson_pmf(process.rate * 1.0, n) * distribution[1]
            distribution = distribution @ matrix
        assert limited.probability == pytest.approx(expected, abs=1e-12)

    def test_depth_truncation_converges_to_path_truncation(self):
        # Pure depth truncation enumerates every path up to N — pair it
        # with the merged DP so the class count stays linear in N.
        model = reward_free_two_state()
        reference = joint_distribution(
            model, 0, {1}, 1.0, 1e9,
            truncation_probability=1e-12, strategy="merged",
        )
        deep = joint_distribution(
            model, 0, {1}, 1.0, 1e9,
            truncation_probability=0.0, depth_limit=40, strategy="merged",
        )
        assert deep.probability == pytest.approx(reference.probability, abs=1e-10)

    def test_zero_w_without_depth_limit_rejected(self):
        model = reward_free_two_state()
        with pytest.raises(CheckError):
            joint_distribution(model, 0, {1}, 1.0, 1.0, truncation_probability=0.0)


class TestValidation:
    def test_bad_time_bound(self):
        model = reward_free_two_state()
        with pytest.raises(CheckError):
            joint_distribution(model, 0, {1}, 0.0, 1.0)

    def test_bad_reward_bound(self):
        model = reward_free_two_state()
        with pytest.raises(CheckError):
            joint_distribution(model, 0, {1}, 1.0, -1.0)

    def test_bad_initial_state(self):
        model = reward_free_two_state()
        with pytest.raises(CheckError):
            joint_distribution(model, 9, {1}, 1.0, 1.0)

    def test_bad_strategy(self):
        model = reward_free_two_state()
        with pytest.raises(CheckError):
            joint_distribution(model, 0, {1}, 1.0, 1.0, strategy="bfs")

    def test_bad_truncation_mode(self):
        model = reward_free_two_state()
        with pytest.raises(CheckError):
            joint_distribution(model, 0, {1}, 1.0, 1.0, truncation="loose")


class TestLargeLambdaT:
    """Regression tests for the exp(-lam_t) underflow (lam_t > ~745).

    The tables are now built in log space, so Lambda * t in the
    hundreds must yield finite, non-degenerate results instead of a
    silent probability 0 with error bound 1.
    """

    def test_heads_finite_and_nondegenerate_at_800(self):
        heads = _poisson_heads(800.0, 900)
        assert np.all(np.isfinite(heads))
        # Mass below the mode is about one half, not zero.
        assert 0.3 < heads[800] < 0.7
        assert heads[900] > 0.99

    def test_maxpois_peak_at_distant_mode(self):
        table = _poisson_max_from(800.0, 10)
        # Max over n >= 0 is the mode value ~ 1/sqrt(2*pi*lam_t).
        expected = 1.0 / math.sqrt(2.0 * math.pi * 800.0)
        assert table[0] == pytest.approx(expected, rel=1e-2)
        assert table[0] > 0.0

    def test_max_useful_depth_large_lambda(self):
        depth = _max_useful_depth(800.0, 1e-8)
        assert 800 < depth < 1200

    def test_joint_distribution_nondegenerate_above_800(self):
        """lam_t = 801: the engine must return ~P(X(t)=1) = 0.5 with a
        small error bound, not (0, 1)."""
        chain = CTMC([[0.0, 1.0], [1.0, 0.0]], labels={1: {"b"}})
        model = MRM(chain, state_rewards=[1.0, 1.0])
        t = 801.0
        result = joint_distribution(
            model,
            0,
            {1},
            time_bound=t,
            reward_bound=2.0 * t,
            truncation_probability=1e-10,
            strategy="merged",
            truncation="safe",
        )
        exact = (1.0 - math.exp(-2.0 * t)) / 2.0
        assert result.error_bound < 1e-6
        assert result.probability == pytest.approx(exact, abs=1e-6)

    def test_unrepresentable_raises_numerical_error(self):
        """A depth limit that caps the table below any representable
        Poisson weight must fail loudly, not return zeros."""
        from repro.exceptions import NumericalError

        model = reward_free_two_state()
        with pytest.raises(NumericalError):
            joint_distribution(
                model,
                0,
                {1},
                time_bound=5000.0,
                reward_bound=1e9,
                depth_limit=10,
            )


class TestClassTable:
    def test_interning_is_idempotent(self):
        from repro.check.paths_engine import ClassTable

        table = ClassTable(num_levels=2, num_impulses=1)
        first = table.intern([1, 0], [0])
        second = table.intern([1, 0], [0])
        other = table.intern([0, 1], [0])
        assert first == second
        assert first != other
        assert len(table) == 2
        assert table.k_rows(np.array([first, other])).tolist() == [[1, 0], [0, 1]]

    def test_root_class(self):
        from repro.check.paths_engine import ClassTable

        table = ClassTable(num_levels=3, num_impulses=2)
        root = table.root(1)
        assert table.k_rows(np.array([root])).tolist() == [[0, 1, 0]]
        assert table.j_rows(np.array([root])).tolist() == [[0, 0]]

    def test_children_increment_counts(self):
        from repro.check.paths_engine import ClassTable

        table = ClassTable(num_levels=2, num_impulses=2)
        root = table.root(0)
        # move = level * J + impulse
        moves = np.array([0 * 2 + 1, 1 * 2 + 0])
        parents = np.array([root, root])
        children = table.children(parents, moves)
        assert table.k_rows(children).tolist() == [[2, 0], [1, 1]]
        assert table.j_rows(children).tolist() == [[0, 1], [1, 0]]
        # Memoized second derivation returns the same ids.
        assert np.array_equal(table.children(parents, moves), children)

    def test_shape_validation(self):
        from repro.check.paths_engine import ClassTable

        table = ClassTable(num_levels=2, num_impulses=1)
        with pytest.raises(CheckError):
            table.intern([1, 0, 0], [0])


class TestMergedOutOfTableTruncation:
    PMF = np.array([0.5, 0.3, 0.1])
    HEADS = np.array([0.0, 0.5, 0.8, 0.9])

    def ping_pong_context(self):
        # Two states swapping forever with probability 1: the chain never
        # dies on its own; only the out-of-table truncation can stop it.
        return PathEngineContext(
            psi=frozenset({0, 1}),
            dead=frozenset(),
            state_level=[0, 0],
            reward_levels=[0.0],
            impulse_levels=[0.0],
            time_bound=1.0,
            reward_bound=1.0,
            rate=1.0,
            lam_t=1.0,
            w=1e-30,
            depth_limit=None,
            strategy="merged",
            truncation="paper",
            pmf=self.PMF,
            heads=self.HEADS,
            maxpois=None,
            num_states=2,
            calculators=OmegaRegistry.for_reward_levels([0.0]),
            succ_indptr=np.array([0, 1, 2]),
            succ_targets=np.array([1, 0]),
            succ_probs=np.array([1.0, 1.0]),
            succ_moves=np.array([0, 0]),
            psi_mask=np.array([True, True]),
            class_table=ClassTable(1, 1),
        )

    def test_mass_beyond_poisson_table_is_truncated(self):
        """Regression: frontiers past the pmf table must be truncated
        (weight 0.0, like the DFS), not kept alive with the stale last
        table entry — that leaked their mass out of the error bound."""
        context = self.ping_pong_context()
        k_rows, j_rows, masses, error_bound, generated, stored, max_depth = (
            _run_paths_sweep(0, context)
        )
        assert max_depth == 2
        assert generated == 3
        assert stored == 3
        assert k_rows.tolist() == [[1], [2], [3]]
        assert j_rows.tolist() == [[0], [1], [2]]
        assert masses.tolist() == [0.5, 0.3, 0.1]
        assert error_bound == pytest.approx(1.0 - 0.9)
        # The dict-DP oracle follows the same convention.
        aggregated, oracle_bound, *counts = run_merged_dp(
            initial_state=0,
            psi=context.psi,
            dead=context.dead,
            successors=successor_lists(context),
            state_level=context.state_level,
            num_levels=1,
            num_impulses=1,
            w=context.w,
            depth_limit=None,
            pmf=self.PMF,
            heads=self.HEADS,
            maxpois=None,
        )
        assert counts == [3, 3, 2]
        assert aggregated == {
            ((1,), (0,)): 0.5,
            ((2,), (1,)): 0.3,
            ((3,), (2,)): 0.1,
        }
        assert oracle_bound == error_bound


class TestColumnarEngine:
    def small_model(self):
        chain = CTMC(
            [[0.0, 1.0, 0.5], [0.25, 0.0, 1.0], [0.5, 0.5, 0.0]],
            labels={0: {"a"}, 1: {"b"}, 2: {"c"}},
        )
        return MRM(
            chain,
            state_rewards=[2.0, 1.0, 0.0],
            impulse_rewards={(0, 1): 1.0, (2, 0): 0.5},
        )

    def test_csr_matches_per_edge_reference(self):
        # The CSR arrays are read straight off the uniformized matrix;
        # compare with a per-edge walk over the model's own accessors.
        model = self.small_model()
        dead = {1}
        context = prepare_path_engine(
            model, {2}, 2.0, 3.0, dead_states=dead, strategy="merged"
        )
        process = model.uniformize()
        matrix = process.dtmc.matrix
        impulse_index = {v: i for i, v in enumerate(model.distinct_impulse_rewards())}
        expected = []
        for state in range(model.num_states):
            row = []
            for pos in range(matrix.indptr[state], matrix.indptr[state + 1]):
                target = int(matrix.indices[pos])
                probability = float(matrix.data[pos])
                if probability > 0.0 and target not in dead:
                    impulse = process.impulse_reward(state, target)
                    row.append((target, probability, impulse_index[impulse]))
            expected.append(row)
        assert successor_lists(context) == expected
        levels = context.state_level
        num_impulses = len(context.impulse_levels)
        for pos, target in enumerate(context.succ_targets.tolist()):
            assert context.succ_moves[pos] // num_impulses == levels[target]

    def test_columnar_matches_legacy_dict(self):
        model = self.small_model()
        context = prepare_path_engine(
            model,
            psi_states={2},
            time_bound=2.0,
            reward_bound=3.0,
            truncation_probability=1e-9,
            strategy="merged",
        )
        columnar = joint_distribution_from_context(context, 0)
        legacy = merged_dp_result(context, 0)
        assert columnar.probability == pytest.approx(
            legacy.probability, abs=1e-12
        )
        assert columnar.error_bound == pytest.approx(
            legacy.error_bound, abs=1e-12
        )
        assert columnar.paths_generated == legacy.paths_generated
        assert columnar.paths_stored == legacy.paths_stored
        assert columnar.classes == legacy.classes
        assert columnar.max_depth == legacy.max_depth

    def test_interned_fallback_matches_packed(self, monkeypatch):
        """When the (k, j) fields do not fit two packed words the sweep
        falls back to ClassTable interning; force that path and check it
        agrees with both the packed sweep and the dict-DP oracle."""
        from repro.check import paths_engine

        model = self.small_model()
        kwargs = dict(
            initial_state=1,
            psi_states={0, 2},
            time_bound=2.0,
            reward_bound=4.0,
            truncation_probability=1e-9,
        )
        packed = joint_distribution(model, strategy="merged", **kwargs)
        monkeypatch.setattr(paths_engine, "_class_packing", lambda context: None)
        interned = joint_distribution(model, strategy="merged", **kwargs)
        initial = kwargs.pop("initial_state")
        context = prepare_path_engine(model, strategy="merged", **kwargs)
        legacy = merged_dp_result(context, initial)
        assert interned.probability == pytest.approx(
            packed.probability, abs=1e-12
        )
        assert interned.probability == pytest.approx(
            legacy.probability, abs=1e-12
        )
        assert interned.error_bound == pytest.approx(packed.error_bound, abs=1e-12)
        assert interned.paths_generated == packed.paths_generated
        assert interned.classes == packed.classes


class TestParallelFanOut:
    @pytest.fixture(autouse=True)
    def _multicore(self, monkeypatch):
        # The worker clamp would silently serialize workers=2 on a
        # single-core runner; pretend the box has cores so these tests
        # genuinely exercise the pool.
        from repro.check import pool

        monkeypatch.setattr(pool, "_cpu_count", lambda: 4)
        yield
        pool.reset_default_pool()

    def test_workers_match_serial_bitwise(self):
        from repro.check.paths_engine import joint_distribution_all
        from repro.models import build_tmr

        model = build_tmr(3)
        states = list(range(model.num_states - 1))
        for strategy in ("paths", "merged"):
            kwargs = dict(
                psi_states={model.num_states - 1},
                time_bound=4.0,
                reward_bound=20.0,
                truncation_probability=1e-7,
                strategy=strategy,
            )
            serial = joint_distribution_all(model, states, **kwargs)
            parallel = joint_distribution_all(model, states, workers=2, **kwargs)
            assert set(serial) == set(parallel)
            for state in serial:
                assert parallel[state].probability == serial[state].probability
                assert parallel[state].error_bound == serial[state].error_bound
                assert (
                    parallel[state].paths_generated
                    == serial[state].paths_generated
                )
                assert parallel[state].max_depth == serial[state].max_depth

    def test_workers_match_serial_until_probabilities(self):
        from repro.check.until import until_probabilities
        from repro.models import build_tmr
        from repro.numerics.intervals import Interval

        model = build_tmr(3)
        sup = model.states_with_label("Sup")
        failed = model.states_with_label("failed")
        bounds = (Interval.upto(4.0), Interval.upto(30.0))
        for engine, opts in (
            ("uniformization", dict(truncation_probability=1e-7)),
            ("discretization", dict(discretization_step=0.25)),
        ):
            serial, _, _ = until_probabilities(
                model, sup | failed, failed, *bounds, engine=engine, **opts
            )
            parallel, _, _ = until_probabilities(
                model,
                sup | failed,
                failed,
                *bounds,
                engine=engine,
                workers=2,
                **opts,
            )
            assert np.array_equal(np.asarray(serial), np.asarray(parallel))
