"""Tests for the cross-formula engine cache and model fingerprints."""

import gc

import numpy as np
import pytest

from repro.check.checker import CheckOptions, ModelChecker
from repro.check.engine_cache import EngineCache, default_engine_cache
from repro.ctmc.chain import CTMC
from repro.mrm.model import MRM
from repro.models import build_tmr
from repro.numerics.orderstat import OmegaCalculator, OmegaRegistry


def two_state(lam=1.0, mu=2.0, rewards=(3.0, 1.0), impulse=0.5):
    chain = CTMC([[0.0, lam], [mu, 0.0]], labels={0: {"up"}, 1: {"down"}})
    return MRM(
        chain,
        state_rewards=list(rewards),
        impulse_rewards={(0, 1): impulse},
    )


class TestEngineCache:
    def test_get_or_build_builds_once(self):
        cache = EngineCache()
        builds = []
        for _ in range(3):
            value = cache.get_or_build("key", lambda: builds.append(1) or "v")
        assert value == "v"
        assert len(builds) == 1
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 2
        assert stats.entries == 1

    def test_lru_eviction(self):
        cache = EngineCache(max_entries=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)  # refresh "a"
        cache.get_or_build("c", lambda: 3)  # evicts "b"
        rebuilt = []
        cache.get_or_build("b", lambda: rebuilt.append(1) or 2)
        assert rebuilt  # "b" was evicted and rebuilt
        assert cache.stats.evictions >= 1

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineCache(max_entries=0)

    def test_clear_resets(self):
        cache = EngineCache()
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == type(cache.stats)(0, 0, 0, 0)

    def test_calculators_registry_is_shared(self):
        cache = EngineCache()
        first = cache.calculators_for([2.0, 1.0, 0.0])
        second = cache.calculators_for((2.0, 1.0, 0.0))
        assert first is second
        assert isinstance(first, OmegaRegistry)
        assert cache.calculators_for([2.0, 1.0]) is not first

    def test_registry_memos_live_in_the_registry(self):
        # Memos are owned by the registry object, not looked up by its
        # id(): a registry built after another was freed (and its id
        # possibly reused) starts empty and answers for itself.
        expected = OmegaCalculator([2.0, 0.0], 1.0).value_many([[3, 4]])
        for _ in range(3):
            cache = EngineCache()
            registry = cache.calculators_for([2.0, 0.0])
            values, evaluated = registry.evaluate([[3, 4]], [1.0])
            assert evaluated > 0
            assert np.array_equal(values, expected)
            del cache, registry
            gc.collect()

    def test_default_cache_is_process_wide(self):
        assert default_engine_cache() is default_engine_cache()


class TestFingerprint:
    def test_stable_and_equal_for_equal_models(self):
        a, b = two_state(), two_state()
        assert a is not b
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() == a.fingerprint()

    @pytest.mark.parametrize(
        "variant",
        [
            dict(lam=1.5),
            dict(rewards=(3.0, 2.0)),
            dict(impulse=0.25),
        ],
    )
    def test_sensitive_to_content(self, variant):
        assert two_state().fingerprint() != two_state(**variant).fingerprint()

    def test_sensitive_to_labels(self):
        chain_a = CTMC([[0.0, 1.0], [2.0, 0.0]], labels={0: {"up"}})
        chain_b = CTMC([[0.0, 1.0], [2.0, 0.0]], labels={0: {"down"}})
        a = MRM(chain_a, state_rewards=[1.0, 0.0])
        b = MRM(chain_b, state_rewards=[1.0, 0.0])
        assert a.fingerprint() != b.fingerprint()


class TestCheckerIntegration:
    FORMULAS = [
        "P(>=0) [up U[0,2][0,4] down]",
        "P(>=0.1) [up U[0,2][0,4] down]",  # same path operator, new checker
    ]

    def test_explicit_cache_is_used_even_when_empty(self):
        # Regression: an empty EngineCache is falsy (it has __len__), so
        # ``engine_cache or default_engine_cache()`` silently dropped it.
        cache = EngineCache()
        checker = ModelChecker(two_state(), engine_cache=cache)
        assert checker.engine_cache is cache
        checker.check(self.FORMULAS[0])
        assert len(cache) > 0

    def test_cache_shared_across_checkers(self):
        cache = EngineCache()
        options = CheckOptions(path_strategy="merged")
        first = ModelChecker(two_state(), options, engine_cache=cache)
        first_result = first.check(self.FORMULAS[0])
        after_first = cache.stats
        second = ModelChecker(two_state(), options, engine_cache=cache)
        second_result = second.check(self.FORMULAS[1])
        after_second = cache.stats
        # The second checker re-derives the same transformed model, so
        # every engine artifact is a cache hit and nothing new is built.
        assert after_second.misses == after_first.misses
        assert after_second.hits > after_first.hits
        assert first_result.probabilities == second_result.probabilities

    def test_cached_results_match_uncached(self):
        model = build_tmr(3)
        formula = "P(>=0) [(Sup || failed) U[0,10][0,100] failed]"
        for strategy in ("paths", "merged"):
            options = CheckOptions(path_strategy=strategy)
            cold = ModelChecker(model, options, engine_cache=EngineCache())
            shared = EngineCache()
            warm_once = ModelChecker(model, options, engine_cache=shared)
            warm_once.check(formula)
            warm = ModelChecker(model, options, engine_cache=shared)
            cold_values = cold.check(formula).probabilities
            warm_values = warm.check(formula).probabilities
            assert cold_values == warm_values

    def test_discretization_grid_cached(self):
        cache = EngineCache()
        options = CheckOptions(
            until_engine="discretization", discretization_step=0.125
        )
        formula = "P(>=0) [up U[0,1][0,4] down]"
        ModelChecker(two_state(), options, engine_cache=cache).check(formula)
        misses = cache.stats.misses
        ModelChecker(two_state(), options, engine_cache=cache).check(formula)
        assert cache.stats.misses == misses
        assert any(
            isinstance(key, tuple) and key and key[0] == "disc-grid"
            for key in cache._entries
        )


class TestThreadSafety:
    """The cache under concurrency: the daemon hammers one shared
    instance from its executor threads, so builds must be single-flight
    and lookups race-free."""

    def test_single_flight_concurrent_builders(self):
        import threading
        import time

        cache = EngineCache()
        builds = []
        started = threading.Event()
        release = threading.Event()
        results = {}

        def builder():
            builds.append(threading.get_ident())
            started.set()
            release.wait(10.0)
            return object()

        def work(index):
            results[index] = cache.get_or_build("key", builder)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(8)
        ]
        threads[0].start()
        assert started.wait(10.0)
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.05)  # let the waiters reach the build latch
        release.set()
        for thread in threads:
            thread.join(10.0)
        assert len(builds) == 1  # exactly one build despite 8 callers
        assert len({id(v) for v in results.values()}) == 1
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 7

    def test_failed_build_releases_the_latch(self):
        cache = EngineCache()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return "ok"

        with pytest.raises(RuntimeError):
            cache.get_or_build("key", flaky)
        # The failed owner released its latch; the next caller builds.
        assert cache.get_or_build("key", flaky) == "ok"
        assert len(calls) == 2

    def test_waiter_takes_over_after_failed_build(self):
        import threading
        import time

        cache = EngineCache()
        owner_entered = threading.Event()
        owner_release = threading.Event()
        outcome = {}

        def failing():
            owner_entered.set()
            owner_release.wait(10.0)
            raise RuntimeError("owner build failed")

        def first():
            try:
                cache.get_or_build("key", failing)
            except RuntimeError as error:
                outcome["first"] = error

        def second():
            outcome["second"] = cache.get_or_build("key", lambda: "rescued")

        owner = threading.Thread(target=first)
        owner.start()
        assert owner_entered.wait(10.0)
        waiter = threading.Thread(target=second)
        waiter.start()
        time.sleep(0.05)  # waiter blocks on the owner's latch
        owner_release.set()
        owner.join(10.0)
        waiter.join(10.0)
        assert isinstance(outcome["first"], RuntimeError)
        assert outcome["second"] == "rescued"

    def test_concurrent_checkers_share_one_cache(self):
        """Multi-threaded ModelChecker regression: distinct checkers on
        one shared cache, in parallel, stay correct and share builds."""
        import threading

        formulas = [
            "P(>=0) [up U[0,2][0,4] down]",
            "P(>=0.1) [up U[0,2][0,4] down]",
            "P(>=0) [up U[0,1][0,3] down]",
            "P(>=0.2) [up U[0,3][0,5] down]",
        ]
        serial = {
            f: ModelChecker(two_state(), engine_cache=EngineCache())
            .check(f)
            .probabilities
            for f in formulas
        }
        shared = EngineCache()
        results = {}
        errors = []
        barrier = threading.Barrier(len(formulas))

        def work(formula):
            try:
                barrier.wait(10.0)
                checker = ModelChecker(two_state(), engine_cache=shared)
                results[formula] = checker.check(formula).probabilities
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(f,)) for f in formulas
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert results == serial
        # The path-engine context was built once and shared, not per
        # thread: every thread past the first hit the cache.
        assert shared.stats.entries >= 1
