"""Failure-injection tests: malformed inputs must fail loudly and typed.

Errors should never pass silently — every constructor and engine is fed
hostile inputs (NaN/inf, wrong shapes, inconsistent structures) and must
raise the documented exception type, never produce numbers.

The second half injects *runtime* faults — engines stubbed to raise
``MemoryError``, stubbed to outlive a deadline, pool workers killed
mid-shard — and asserts the guarded checker survives them exactly as
documented: the cascade steps through its tiers in order, the answer's
``trust`` says ``"degraded"``, the numbers match the surviving engine's
direct run, and a dying fork worker is recovered serially with bitwise
identical results instead of hanging the parent.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import paths_engine
from repro.check.checker import CheckOptions, ModelChecker
from repro.ctmc.chain import CTMC
from repro.dtmc.chain import DTMC
from repro.exceptions import (
    CheckError,
    FormulaError,
    LabelingError,
    ModelError,
    NumericalError,
    ReproError,
    RewardError,
    WorkerError,
)
from repro.mrm.model import MRM
from repro.numerics.intervals import Interval

NAN = float("nan")
INF = float("inf")


class TestNonFiniteInputs:
    def test_nan_probability_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            DTMC([[NAN, 1.0], [0.0, 1.0]])

    def test_inf_probability_rejected(self):
        with pytest.raises(ModelError):
            DTMC([[INF, 0.0], [0.0, 1.0]])

    def test_nan_rate_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            CTMC([[0.0, NAN], [1.0, 0.0]])

    def test_inf_rate_rejected(self):
        with pytest.raises(ModelError):
            CTMC([[0.0, INF], [1.0, 0.0]])

    def test_nan_state_reward_rejected(self):
        chain = CTMC([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RewardError, match="finite"):
            MRM(chain, state_rewards=[NAN, 0.0])

    def test_inf_impulse_rejected(self):
        chain = CTMC([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RewardError):
            MRM(chain, impulse_rewards={(0, 1): INF})

    def test_nan_impulse_matrix_rejected(self):
        chain = CTMC([[0.0, 1.0], [1.0, 0.0]])
        impulses = sp.csr_matrix(np.array([[0.0, NAN], [0.0, 0.0]]))
        with pytest.raises(RewardError):
            MRM(chain, impulse_rewards=impulses)


class TestStructuralMismatches:
    def test_rewards_wrong_length(self):
        chain = CTMC([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RewardError):
            MRM(chain, state_rewards=[1.0])

    def test_labels_on_ghost_states(self):
        with pytest.raises(LabelingError):
            CTMC([[0.0]], labels={1: {"a"}})

    def test_ragged_matrix(self):
        with pytest.raises(Exception):
            CTMC([[0.0, 1.0], [1.0]])

    def test_empty_state_space(self):
        # A 0x0 chain is degenerate; scipy may allow the matrix but any
        # downstream use must not crash with an unintelligible error.
        matrix = sp.csr_matrix((0, 0))
        chain = CTMC(matrix)
        assert chain.num_states == 0


class TestEngineGuards:
    def test_until_rejects_all_bad_bounds(self, wavelan):
        from repro.check.until import until_probability

        cases = [
            dict(time_bound=Interval(1.0, 2.0), reward_bound=Interval.upto(1.0)),
            dict(time_bound=Interval.upto(1.0), reward_bound=Interval(1.0, 2.0)),
            dict(time_bound=Interval.unbounded(), reward_bound=Interval.upto(1.0)),
        ]
        for bounds in cases:
            with pytest.raises(CheckError):
                until_probability(wavelan, 2, {2}, {3}, **bounds)

    def test_discretization_guards(self, wavelan):
        from repro.check.discretization import discretized_joint_distribution

        # WaveLAN rewards are integers but the impulses are not
        # d-integral at d = 0.0625 -- must be detected, not silently
        # rounded.
        with pytest.raises(NumericalError):
            discretized_joint_distribution(
                wavelan, 2, {3}, 1.0, 100.0, step=0.0625
            )

    def test_paths_engine_rejects_empty_truncation(self, wavelan):
        from repro.check.paths_engine import joint_distribution

        with pytest.raises(CheckError):
            joint_distribution(
                wavelan, 2, {3}, 1.0, 10.0, truncation_probability=0.0
            )

    def test_checker_surfaces_formula_errors(self, wavelan):
        from repro.check.checker import ModelChecker

        checker = ModelChecker(wavelan)
        with pytest.raises(FormulaError):
            checker.check("P(>0.5) [busy U[5,1] idle]")

    def test_every_error_is_a_repro_error(self):
        for exc in (ModelError, RewardError, LabelingError, CheckError,
                    NumericalError, FormulaError):
            assert issubclass(exc, ReproError)


class TestNumericalEdges:
    def test_omega_with_extreme_threshold(self):
        from repro.numerics.orderstat import omega

        assert omega([1.0, 0.0], [5, 5], threshold=1e308) == 1.0
        assert omega([1.0, 0.5], [5, 5], threshold=0.0) == 0.0

    def test_interval_huge_values(self):
        window = Interval.k_transition(
            Interval.upto(1e300), Interval.upto(1e300), rate=1.0, impulse=0.0
        )
        assert window.upper == 1e300

    def test_poisson_zero_everything(self):
        from repro.numerics.poisson import poisson_pmf, poisson_tail_from

        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_tail_from(0.0, 5) == 0.0

    def test_transient_of_absorbing_only_chain(self):
        from repro.ctmc.transient import transient_distribution

        chain = CTMC([[0.0, 0.0], [0.0, 0.0]])
        result = transient_distribution(chain, [0.5, 0.5], 10.0)
        assert result == pytest.approx([0.5, 0.5])


# ----------------------------------------------------------------------
# Runtime fault injection: the degradation cascade and the fork pool.
# ----------------------------------------------------------------------

WAVELAN_P2 = "P(>0.5) [TT U[0,0.5][0,50] busy]"

class _inject_engine_faults:
    """Make the path-engine sweep raise for selected strategies.

    Both strategies run through one sweep, so the fault keys on the
    context's strategy.  A context manager rather than the
    ``monkeypatch`` fixture so hypothesis can enter/exit it once per
    drawn example.
    """

    def __init__(self, failing, error=MemoryError):
        self._failing = set(failing)
        self._error = error
        self._original = None

    def __enter__(self):
        original = self._original = paths_engine._run_paths_sweep

        def stub(initial_state, context):
            if context.strategy in self._failing:
                raise self._error(f"injected fault in {context.strategy}")
            return original(initial_state, context)

        paths_engine._run_paths_sweep = stub
        return self

    def __exit__(self, *exc_info):
        paths_engine._run_paths_sweep = self._original
        return False


class TestDegradationCascade:
    def test_injected_oom_steps_down_one_tier(self, wavelan):
        with _inject_engine_faults(["merged"]):
            checker = ModelChecker(wavelan, CheckOptions(path_strategy="merged"))
            result = checker.check(WAVELAN_P2)
        assert result.trust == "degraded"
        records = result.report.degradations
        assert [r["kind"] for r in records] == ["engine"]
        assert records[0]["from"] == "uniformization/merged"
        assert records[0]["to"] == "uniformization/paths"
        assert "MemoryError" in records[0]["reason"]
        # The surviving tier's numbers are exactly a direct run of it.
        exact = ModelChecker(
            wavelan, CheckOptions(path_strategy="paths")
        ).check(WAVELAN_P2)
        assert result.probabilities == exact.probabilities
        assert result.states == exact.states

    def test_documented_cascade_order(self, wavelan):
        # Both uniformization strategies fail; WaveLAN's impulses
        # are not d-integral, so the final discretization tier is
        # skipped as unavailable and the result is partial.
        with _inject_engine_faults(["merged", "paths"]):
            checker = ModelChecker(wavelan, CheckOptions(path_strategy="merged"))
            result = checker.check(WAVELAN_P2)
        assert result.trust == "partial"
        hops = [(r["from"], r["to"]) for r in result.report.degradations]
        assert hops == [
            ("uniformization/merged", "uniformization/paths"),
            ("uniformization/paths", "discretization"),
            ("discretization", None),
        ]

    def test_slow_engine_stub_trips_deadline(self, wavelan):
        original = paths_engine._run_paths_sweep

        def slow(initial_state, context):
            # Only the configured tier is slow: a cascade that handed the
            # fast ``paths`` fallback a fresh deadline would answer
            # "degraded" instead of "partial".
            if context.strategy == "merged":
                time.sleep(0.2)
            return original(initial_state, context)

        paths_engine._run_paths_sweep = slow
        try:
            checker = ModelChecker(
                wavelan,
                CheckOptions(path_strategy="merged", deadline_s=0.05),
            )
            result = checker.check(WAVELAN_P2)
        finally:
            paths_engine._run_paths_sweep = original
        # The deadline passed inside the slow tier; retrying a cheaper
        # tier cannot beat an absolute deadline, so the cascade goes
        # straight to the conservative partial answer.
        assert result.trust == "partial"
        assert any(
            "DeadlineExceeded" in r["reason"] for r in result.report.degradations
        )

    def test_primary_tier_config_errors_still_raise(self, wavelan):
        # Precondition failures of the *configured* engine are the
        # caller's problem even with degrade on: WaveLAN impulses are
        # not d-integral at the default step.
        checker = ModelChecker(
            wavelan, CheckOptions(until_engine="discretization")
        )
        with pytest.raises(NumericalError):
            checker.check(WAVELAN_P2)

    @settings(max_examples=12, deadline=None)
    @given(
        fail_merged=st.booleans(),
        fail_paths=st.booleans(),
    )
    def test_degraded_numbers_match_surviving_tier(self, fail_merged, fail_paths):
        from repro.models import build_wavelan_modem

        model = build_wavelan_modem()
        ladder = ["merged", "paths"]
        failing = [
            strategy
            for strategy, fails in zip(
                ladder, (fail_merged, fail_paths)
            )
            if fails
        ]
        surviving = next((s for s in ladder if s not in failing), None)
        with _inject_engine_faults(failing):
            checker = ModelChecker(model, CheckOptions(path_strategy="merged"))
            result = checker.check(WAVELAN_P2)
        if surviving is None:
            # Discretization cannot serve WaveLAN either: partial, with
            # the documented conservative fill-in.
            assert result.trust == "partial"
            psi = model.states_with_label("busy")
            for state, value in enumerate(result.probabilities):
                assert value == (1.0 if state in psi else 0.0)
        else:
            expected_trust = "exact" if surviving == "merged" else "degraded"
            assert result.trust == expected_trust
            exact = ModelChecker(
                model, CheckOptions(path_strategy=surviving)
            ).check(WAVELAN_P2)
            assert result.probabilities == exact.probabilities

    def test_cache_hit_replays_degradations(self, wavelan):
        with _inject_engine_faults(["merged"]):
            checker = ModelChecker(wavelan, CheckOptions(path_strategy="merged"))
            first = checker.check(WAVELAN_P2)
            # Same path operator, different bound: served from the
            # path-value cache, degradation records replayed as cached.
            second = checker.check("P(>0.9) [TT U[0,0.5][0,50] busy]")
        assert first.trust == "degraded"
        assert second.trust == "degraded"
        assert all(r.get("cached") for r in second.report.degradations)

    def test_satisfying_set_hit_replays_degradations_and_budget(self, wavelan):
        with _inject_engine_faults(["merged"]):
            checker = ModelChecker(wavelan, CheckOptions(path_strategy="merged"))
            first = checker.check(WAVELAN_P2)
            # The identical formula: served from the satisfying-set cache.
            again = checker.check(WAVELAN_P2)
        assert again.trust == first.trust == "degraded"
        assert [r["to"] for r in again.report.degradations] == [
            r["to"] for r in first.report.degradations
        ]
        assert all(r.get("cached") for r in again.report.degradations)
        assert again.report.error_budget == first.report.error_budget


def _exit_hard(task):
    os._exit(3)


def _sleep_forever(task):
    time.sleep(600.0)


def _crash_initializer():
    raise RuntimeError("injected initializer crash")


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the box has cores to spare.

    The fan-out clamps ``workers`` to ``os.cpu_count()``; on a 1-core CI
    runner that would silently serialize every pool test below, making
    the fault-injection vacuous.  Patching the seam keeps the pool in
    play; the default pool is reset afterwards so no stub-poisoned
    workers leak into other tests.
    """
    from repro.check import pool

    monkeypatch.setattr(pool, "_cpu_count", lambda: 8)
    yield
    pool.reset_default_pool()


class TestFaultTolerantPool:
    FANOUT = dict(
        psi_states={3},
        time_bound=1.0,
        reward_bound=10.0,
        truncation_probability=1e-7,
        strategy="paths",
    )

    def _serial(self, model):
        states = list(range(model.num_states))
        return paths_engine.joint_distribution_all(model, states, **self.FANOUT)

    def test_dead_worker_recovers_serially_bitwise(self, wavelan, multicore):
        from repro.check import pool

        serial = self._serial(wavelan)
        states = list(range(wavelan.num_states))
        original = pool._fan_out_shard
        pool._fan_out_shard = _exit_hard
        try:
            recovered = paths_engine.joint_distribution_all(
                wavelan, states, workers=2, **self.FANOUT
            )
        finally:
            pool._fan_out_shard = original
        assert set(recovered) == set(serial)
        for state in serial:
            assert recovered[state].probability == serial[state].probability
            assert recovered[state].error_bound == serial[state].error_bound

    def test_crashing_initializer_recovers_serially(self, wavelan, multicore):
        from repro.check import pool

        serial = self._serial(wavelan)
        states = list(range(wavelan.num_states))
        original = pool._fan_out_initializer
        pool._fan_out_initializer = _crash_initializer
        # The initializer runs when workers fork; reset so the patched
        # hook is part of the next pool's fork snapshot.
        pool.reset_default_pool()
        try:
            recovered = paths_engine.joint_distribution_all(
                wavelan, states, workers=2, **self.FANOUT
            )
        finally:
            pool._fan_out_initializer = original
            pool.reset_default_pool()
        for state in serial:
            assert recovered[state].probability == serial[state].probability

    def test_hung_worker_times_out_not_hangs(self, wavelan, multicore):
        from repro.check import pool

        serial = self._serial(wavelan)
        states = list(range(wavelan.num_states))
        context = paths_engine.prepare_path_engine(
            wavelan,
            psi_states=self.FANOUT["psi_states"],
            time_bound=self.FANOUT["time_bound"],
            reward_bound=self.FANOUT["reward_bound"],
            truncation_probability=self.FANOUT["truncation_probability"],
            strategy=self.FANOUT["strategy"],
        )
        original = pool._fan_out_shard
        pool._fan_out_shard = _sleep_forever
        start = time.monotonic()
        try:
            recovered = paths_engine.joint_distribution_many(
                context, states, workers=2, shard_timeout_s=0.5
            )
        finally:
            pool._fan_out_shard = original
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # watchdog + retries, nowhere near 600 s
        for state in serial:
            assert recovered[state].probability == serial[state].probability

    def test_hung_shards_share_one_absolute_deadline(self, wavelan, multicore):
        # Regression: the old watchdog applied its timeout per future
        # sequentially, so k hung shards cost k timeouts.  Two sleeping
        # shards must together cost about *one* timeout per attempt.
        from repro.check import pool

        states = list(range(wavelan.num_states))
        context = paths_engine.prepare_path_engine(
            wavelan,
            psi_states=self.FANOUT["psi_states"],
            time_bound=self.FANOUT["time_bound"],
            reward_bound=self.FANOUT["reward_bound"],
            truncation_probability=self.FANOUT["truncation_probability"],
            strategy=self.FANOUT["strategy"],
        )
        shards = [(0, states[: len(states) // 2]), (1, states[len(states) // 2 :])]
        worker_pool = pool.PersistentWorkerPool()
        original = pool._fan_out_shard
        pool._fan_out_shard = _sleep_forever
        timeout_s = 1.0
        start = time.monotonic()
        try:
            results, snapshots, failures, _ = worker_pool.run_shards(
                context, shards, timeout_s, workers=2
            )
        finally:
            pool._fan_out_shard = original
            worker_pool.reset()
        elapsed = time.monotonic() - start
        assert not results
        assert len(failures) == len(shards)
        assert all("timed out" in str(error) for _, _, error in failures)
        # One shared deadline: well under 2 stacked timeouts even with
        # fork/teardown slack on a loaded box.
        assert elapsed < timeout_s + 3.0

    def test_pool_submit_failure_is_reported_not_masked(self, wavelan):
        # Regression: an exception inside the submit loop used to raise
        # UnboundLocalError over ``worker_pids`` instead of surfacing
        # the real failure as shard-level WorkerErrors.
        from repro.check import pool

        context = paths_engine.prepare_path_engine(
            wavelan,
            psi_states=self.FANOUT["psi_states"],
            time_bound=self.FANOUT["time_bound"],
            reward_bound=self.FANOUT["reward_bound"],
            truncation_probability=self.FANOUT["truncation_probability"],
            strategy=self.FANOUT["strategy"],
        )

        class _RefusingExecutor:
            def submit(self, fn, *args):
                raise RuntimeError("injected submit failure")

        worker_pool = pool.PersistentWorkerPool()
        worker_pool._executor = _RefusingExecutor()
        worker_pool._size = 2
        shards = [(0, [0, 1]), (1, [2, 3])]
        results, snapshots, failures, worker_pids = worker_pool.run_shards(
            context, shards, timeout_s=5.0, workers=2
        )
        assert not results and not snapshots
        assert worker_pids == []
        assert [index for index, _, _ in failures] == [0, 1]
        assert all(
            "injected submit failure" in str(error) for _, _, error in failures
        )
        # The pool marked itself broken so the next call rebuilds.
        assert not worker_pool.alive

    def test_pool_failures_recorded_on_collector(self, wavelan, multicore):
        from repro.check import pool
        from repro.obs import Collector, use_collector
        from repro.obs.report import RunReport

        states = list(range(wavelan.num_states))
        collector = Collector()
        original = pool._fan_out_shard
        pool._fan_out_shard = _exit_hard
        try:
            with use_collector(collector):
                paths_engine.joint_distribution_all(
                    wavelan, states, workers=2, **self.FANOUT
                )
        finally:
            pool._fan_out_shard = original
        events = collector.events_named("pool.worker-failure")
        assert events
        assert collector.counter("pool.worker-failures") == len(events)
        # Failures normalize into the report's degradations section.
        records = RunReport.degradations_from_collector(collector)
        assert all(r["kind"] == "pool" for r in records)
        assert records[-1]["to"] == "serial"

    def test_worker_error_is_typed(self):
        error = WorkerError("shard 2 died", shard=(4, 5))
        assert isinstance(error, ReproError)
        assert error.shard == (4, 5)
