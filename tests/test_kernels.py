"""Bitwise equivalence and fallback behaviour of the kernel backends.

The compiled kernels (:mod:`repro.kernels`) must reproduce the NumPy
reference paths *bitwise* — not approximately.  These tests compare
raw float equality between backends at two levels: the standalone
kernels against hand-built lexsort references, and whole engine runs
end to end.  On machines without numba the ``"python"`` backend (the
same loops, un-jitted) exercises every dispatch path; when numba is
importable the jitted set is tested as well.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.check.checker import CheckOptions, ModelChecker
from repro.check.paths_engine import joint_distribution_all
from repro.ctmc.chain import CTMC
from repro.exceptions import CheckError
from repro.mrm.model import MRM
from repro.obs import Collector, use_collector

#: Non-default backends whose kernel sets can be built here.
BACKENDS = ["python"] + (["numba"] if kernels.numba_available() else [])


def random_mrm(seed: int) -> MRM:
    """A random MRM with impulse rewards, 2-5 states."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.6:
                rates[i][j] = float(rng.integers(1, 5)) / 2.0
    if rates[0].sum() == 0.0:
        rates[0][1 % n] = 1.0
    rewards = [float(rng.integers(0, 4)) for _ in range(n)]
    impulses = {}
    for i in range(n):
        for j in range(n):
            if i != j and rates[i][j] > 0 and rng.random() < 0.4:
                impulses[(i, j)] = float(rng.integers(1, 3))
    return MRM(CTMC(rates), state_rewards=rewards, impulse_rewards=impulses)


def fixed_model() -> MRM:
    """A small deterministic model for the non-property tests."""
    rates = [
        [0.0, 2.0, 0.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 2.0, 0.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
    ]
    chain = CTMC(
        rates, labels={0: {"a"}, 1: {"a"}, 2: {"a"}, 3: {"goal"}}
    )
    return MRM(
        chain,
        state_rewards=[1.0, 2.0, 0.0, 3.0],
        impulse_rewards={(0, 1): 1.0, (2, 3): 2.0},
    )


class TestStandaloneKernels:
    """The loop kernels against hand-built NumPy lexsort references."""

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_expand_merge_matches_lexsort_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_states = int(rng.integers(2, 7))
        num_moves = int(rng.integers(1, 5))
        degrees = rng.integers(0, 5, size=num_states)
        indptr = np.zeros(num_states + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(degrees)
        num_edges = int(indptr[-1])
        targets = rng.integers(0, num_states, size=num_edges).astype(np.int64)
        probs = rng.random(num_edges)
        moves = rng.integers(0, num_moves, size=num_edges).astype(np.int64)
        move_lo = rng.integers(0, 1 << 20, size=num_moves).astype(np.int64)
        move_hi = rng.integers(0, 1 << 10, size=num_moves).astype(np.int64)

        frontier = int(rng.integers(1, 40))
        states = rng.integers(0, num_states, size=frontier).astype(np.int64)
        class_lo = rng.integers(0, 1 << 40, size=frontier).astype(np.int64)
        class_hi = rng.integers(0, 1 << 20, size=frontier).astype(np.int64)
        mass = rng.random(frontier)
        total = int(degrees[states].sum())
        if total == 0:
            return

        # NumPy reference: vectorized expansion, lexsort, reduceat.
        reps = degrees[states]
        parents = np.repeat(np.arange(frontier), reps)
        edges = np.concatenate(
            [np.arange(indptr[s], indptr[s + 1]) for s in states]
        ).astype(np.int64)
        ref_states = targets[edges]
        ref_lo = class_lo[parents] + move_lo[moves[edges]]
        ref_hi = class_hi[parents] + move_hi[moves[edges]]
        ref_mass = mass[parents] * probs[edges]
        order = np.lexsort((ref_states, ref_lo, ref_hi))
        s_states, s_lo, s_hi = ref_states[order], ref_lo[order], ref_hi[order]
        s_mass = ref_mass[order]
        boundary = np.empty(total, dtype=bool)
        boundary[0] = True
        boundary[1:] = (
            (s_states[1:] != s_states[:-1])
            | (s_lo[1:] != s_lo[:-1])
            | (s_hi[1:] != s_hi[:-1])
        )
        starts = np.flatnonzero(boundary)
        ref_merged = np.add.reduceat(s_mass, starts)

        for backend in BACKENDS:
            kernel = kernels.kernel_set(backend)
            g_states, g_lo, g_hi, sorted_mass, group_starts = kernel.expand_merge(
                states, class_lo, class_hi, mass, indptr,
                targets, probs, moves, move_lo, move_hi, total,
            )
            np.testing.assert_array_equal(g_states, s_states[starts])
            np.testing.assert_array_equal(g_lo, s_lo[starts])
            np.testing.assert_array_equal(g_hi, s_hi[starts])
            np.testing.assert_array_equal(sorted_mass, s_mass)
            np.testing.assert_array_equal(group_starts, starts)
            merged = np.add.reduceat(sorted_mass, group_starts)
            np.testing.assert_array_equal(merged, ref_merged)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_group_pairs_matches_lexsort_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        # Few distinct values force duplicate (lo, hi) groups.
        lo = rng.integers(0, 6, size=n).astype(np.int64)
        hi = rng.integers(0, 3, size=n).astype(np.int64)
        mass = rng.random(n)

        order = np.lexsort((lo, hi))
        s_lo, s_hi, s_mass = lo[order], hi[order], mass[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = (s_lo[1:] != s_lo[:-1]) | (s_hi[1:] != s_hi[:-1])
        starts = np.flatnonzero(boundary)
        ref_merged = np.add.reduceat(s_mass, starts)

        for backend in BACKENDS:
            kernel = kernels.kernel_set(backend)
            g_lo, g_hi, sorted_mass, group_starts = kernel.group_pairs(lo, hi, mass)
            np.testing.assert_array_equal(g_lo, s_lo[starts])
            np.testing.assert_array_equal(g_hi, s_hi[starts])
            np.testing.assert_array_equal(sorted_mass, s_mass)
            np.testing.assert_array_equal(group_starts, starts)
            np.testing.assert_array_equal(
                np.add.reduceat(sorted_mass, group_starts), ref_merged
            )


class TestEngineEquivalence:
    """Whole engine runs are bitwise identical across backends."""

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_merged_engine_matches_numpy(self, seed, data):
        model = random_mrm(seed)
        n = model.num_states
        psi = {data.draw(st.integers(0, n - 1))}
        kwargs = dict(
            psi_states=psi,
            time_bound=data.draw(st.sampled_from([0.5, 1.5])),
            reward_bound=data.draw(st.sampled_from([2.0, 6.0])),
            truncation_probability=1e-8,
            strategy="merged",
        )
        reference = joint_distribution_all(model, range(n), kernels="numpy", **kwargs)
        for backend in BACKENDS:
            results = joint_distribution_all(model, range(n), kernels=backend, **kwargs)
            for state in range(n):
                assert results[state].probability == reference[state].probability
                assert results[state].error_bound == reference[state].error_bound
                assert results[state].paths_generated == reference[state].paths_generated
                assert results[state].max_depth == reference[state].max_depth

    def test_checker_end_to_end_matches_numpy(self):
        model = fixed_model()
        formula = "P(>0.1) [a U[0,2][0,20] goal]"
        reference = ModelChecker(model, CheckOptions(kernels="numpy")).check(formula)
        for backend in BACKENDS:
            result = ModelChecker(model, CheckOptions(kernels=backend)).check(formula)
            assert result.states == reference.states
            np.testing.assert_array_equal(
                result.probabilities, reference.probabilities
            )

    def test_backend_recorded_in_report(self):
        model = fixed_model()
        checker = ModelChecker(model, CheckOptions(kernels="python"))
        result = checker.check("P(>0.1) [a U[0,2][0,20] goal]")
        events = [
            e for e in result.report.events if e["event"] == "kernels.backend"
        ]
        assert events and events[0]["backend"] == "python"


class TestDispatchAndFallback:
    @pytest.fixture(autouse=True)
    def _fresh_kernel_cache(self):
        # Poisoning tests must not inherit (or leave behind) a cached
        # set or a remembered numba failure.
        kernels.reset_kernel_cache()
        yield
        kernels.reset_kernel_cache()

    def test_options_reject_unknown_backend(self):
        with pytest.raises(CheckError, match="fortran"):
            CheckOptions(kernels="fortran")
        with pytest.raises(CheckError, match="fortran"):
            kernels.resolve_backend("fortran")

    def test_auto_resolves_and_degrades_with_event(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numba", None)
        collector = Collector()
        with use_collector(collector):
            assert kernels.resolve_backend("auto") == "numpy"
        events = collector.events_named("kernels.fallback")
        assert events and events[0]["backend"] == "numpy"

    def test_auto_engine_results_equal_numpy_when_degraded(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numba", None)
        model = fixed_model()
        kwargs = dict(
            psi_states={3},
            time_bound=1.0,
            reward_bound=6.0,
            truncation_probability=1e-8,
            strategy="merged",
        )
        reference = joint_distribution_all(model, range(4), kernels="numpy", **kwargs)
        degraded = joint_distribution_all(model, range(4), kernels="auto", **kwargs)
        for state in range(4):
            assert degraded[state].probability == reference[state].probability
            assert degraded[state].error_bound == reference[state].error_bound

    def test_explicit_numba_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numba", None)
        with pytest.raises(CheckError, match="numba"):
            kernels.kernel_set("numba")
        # The failure is sticky: the retry fails fast without importing.
        with pytest.raises(CheckError, match="numba"):
            kernels.kernel_set("numba")

    def test_active_kernels_never_raises(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numba", None)
        collector = Collector()
        with use_collector(collector):
            assert kernels.active_kernels("numba") is None
        assert collector.events_named("kernels.fallback")

    @pytest.mark.skipif(
        not kernels.numba_available(), reason="numba not installed"
    )
    def test_numba_compile_event_and_cache(self):
        collector = Collector()
        with use_collector(collector):
            first = kernels.kernel_set("numba")
        events = collector.events_named("kernels.compiled")
        assert events and events[0]["compile_seconds"] > 0.0
        # Cached: the second request returns the same set, no re-event.
        with use_collector(Collector()) as second_collector:
            assert kernels.kernel_set("numba") is first
            assert not second_collector.events_named("kernels.compiled")
