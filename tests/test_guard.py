"""The guard subsystem: budgets, checkpoints, cascade plumbing, trust.

Covers the cooperative :class:`repro.guard.Guard` in isolation (budget
validation, deadline and memory trips, ambient installation), the
degradation-tier configuration logic, and the end-to-end guarantees of
``ModelChecker.check()`` under exhausted budgets: no crash while
``degrade`` holds, honest ``trust``, and a populated ``degradations``
report section.
"""

import pickle
import time

import pytest

from repro.check.checker import CheckOptions, ModelChecker
from repro.exceptions import (
    CheckError,
    DeadlineExceeded,
    GuardExceeded,
    MemoryBudgetExceeded,
    ReproError,
    WorkerError,
)
from repro.guard import (
    Guard,
    NullGuard,
    current_rss_bytes,
    degradation_record,
    get_guard,
    until_tiers,
    use_guard,
)
from repro.obs.report import RunReport

P2_FORMULA = "P(>0.1) [up U[0,1][0,10] up]"


class TestGuardBudgets:
    def test_rejects_bad_budgets(self):
        with pytest.raises(CheckError):
            Guard(deadline_s=0.0)
        with pytest.raises(CheckError):
            Guard(deadline_s=-1.0)
        with pytest.raises(CheckError):
            Guard(mem_budget_bytes=0)
        with pytest.raises(CheckError):
            Guard(error_tolerance=-1e-9)
        with pytest.raises(CheckError):
            Guard(rss_check_interval=-1)

    def test_unbounded_guard_never_trips(self):
        guard = Guard()
        for _ in range(1000):
            guard.checkpoint("loop", mem_bytes=1 << 60)

    def test_deadline_trips_with_phase(self):
        guard = Guard(deadline_s=0.005)
        time.sleep(0.02)
        assert guard.time_exhausted()
        assert guard.remaining_time() == 0.0
        with pytest.raises(DeadlineExceeded) as excinfo:
            guard.checkpoint("until.columnar")
        assert excinfo.value.phase == "until.columnar"
        assert isinstance(excinfo.value, GuardExceeded)

    def test_deadline_not_tripped_early(self):
        guard = Guard(deadline_s=60.0)
        guard.checkpoint("fast")
        assert not guard.time_exhausted()
        assert 0.0 < guard.remaining_time() <= 60.0
        assert guard.elapsed() >= 0.0

    def test_memory_estimate_trips_deterministically(self):
        guard = Guard(mem_budget_bytes=1024)
        guard.checkpoint("small", mem_bytes=512)
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            guard.checkpoint("big", mem_bytes=2048)
        assert excinfo.value.phase == "big"

    def test_rss_backstop_trips_without_estimates(self):
        rss = current_rss_bytes()
        if rss is None:
            pytest.skip("no procfs RSS on this platform")
        # Budget below the interpreter's own RSS: the throttled sample
        # must trip within one interval even with no estimates passed.
        guard = Guard(mem_budget_bytes=1, rss_check_interval=4)
        with pytest.raises(MemoryBudgetExceeded):
            for _ in range(8):
                guard.checkpoint("loop")

    def test_rss_backstop_can_be_disabled(self):
        guard = Guard(mem_budget_bytes=1, rss_check_interval=0)
        for _ in range(100):
            guard.checkpoint("loop")  # only estimates could trip, none given


class TestAmbientGuard:
    def test_default_is_noop(self):
        guard = get_guard()
        assert isinstance(guard, NullGuard)
        assert not guard.enabled
        guard.checkpoint("anything", mem_bytes=1 << 62)
        assert guard.elapsed() == 0.0
        assert guard.remaining_time() is None
        assert not guard.time_exhausted()

    def test_use_guard_installs_and_restores(self):
        inner = Guard(deadline_s=60.0)
        assert not get_guard().enabled
        with use_guard(inner):
            assert get_guard() is inner
        assert not get_guard().enabled

    def test_use_guard_nests_and_none_suspends(self):
        outer = Guard(deadline_s=60.0)
        with use_guard(outer):
            with use_guard(None):
                assert not get_guard().enabled
            assert get_guard() is outer


class TestTypedExceptions:
    def test_hierarchy(self):
        assert issubclass(GuardExceeded, ReproError)
        assert issubclass(DeadlineExceeded, GuardExceeded)
        assert issubclass(MemoryBudgetExceeded, GuardExceeded)
        assert issubclass(WorkerError, ReproError)

    def test_guard_exceeded_pickles_with_phase(self):
        error = DeadlineExceeded("out of time", phase="until.merged")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, DeadlineExceeded)
        assert str(clone) == "out of time"
        assert clone.phase == "until.merged"

    def test_worker_error_pickles_with_shard(self):
        error = WorkerError("worker died", shard=[3, 4, 5])
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, WorkerError)
        assert clone.shard == (3, 4, 5)


class TestCascadeTiers:
    def test_uniformization_ladder_from_merged(self):
        labels = [t.label for t in until_tiers("uniformization", "merged")]
        assert labels == [
            "uniformization/merged",
            "uniformization/paths",
            "discretization",
        ]

    def test_ladder_starts_at_configured_strategy(self):
        labels = [t.label for t in until_tiers("uniformization", "paths")]
        assert labels == ["uniformization/paths", "discretization"]

    def test_discretization_falls_back_to_lean_uniformization(self):
        tiers = until_tiers("discretization", "merged")
        assert [t.label for t in tiers] == ["discretization", "uniformization/paths"]
        assert tiers[1].strategy == "paths"

    def test_first_tier_is_the_configuration(self):
        for engine, strategy in [
            ("uniformization", "merged"),
            ("discretization", "paths"),
        ]:
            tier = until_tiers(engine, strategy)[0]
            assert tier.engine == engine

    def test_degradation_record_shape(self):
        reason = DeadlineExceeded("slow", phase="until.columnar")
        record = degradation_record(
            "until", "uniformization/merged", "uniformization/paths", reason,
            elapsed_s=1.25,
        )
        assert record == {
            "kind": "engine",
            "operator": "until",
            "from": "uniformization/merged",
            "to": "uniformization/paths",
            "reason": "DeadlineExceeded: slow",
            "phase": "until.columnar",
            "elapsed_s": 1.25,
        }

    def test_partial_record_has_no_target(self):
        record = degradation_record(
            "until", "uniformization/paths", None, MemoryError("oom"),
            kind="partial",
        )
        assert record["to"] is None
        assert record["kind"] == "partial"


class TestCheckOptionsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(until_engine="magic"),
            dict(path_strategy="bogus"),
            dict(truncation_mode="fast"),
            dict(linear_solver="cholesky"),
            dict(workers=-2),
            dict(truncation_probability=0.0),
            dict(truncation_probability=1.0),
            dict(truncation_probability=-0.5),
            dict(discretization_step=0.0),
            dict(discretization_step=-1.0),
            dict(deadline_s=0.0),
            dict(mem_budget_bytes=0),
            dict(error_tolerance=-1e-6),
        ],
    )
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(CheckError):
            CheckOptions(**kwargs)

    def test_removed_strategy_names_the_remaining_ones(self):
        with pytest.raises(CheckError) as excinfo:
            CheckOptions(path_strategy="merged-legacy")
        assert "('paths', 'merged')" in str(excinfo.value)

    def test_valid_defaults_pass(self):
        options = CheckOptions()
        assert not options.guarded
        assert options.degrade

    def test_guarded_property(self):
        assert CheckOptions(deadline_s=5.0).guarded
        assert CheckOptions(mem_budget_bytes=1 << 30).guarded
        assert CheckOptions(error_tolerance=1e-6).guarded


class TestGuardedCheck:
    def test_unguarded_check_stays_exact(self, wavelan):
        checker = ModelChecker(wavelan)
        result = checker.check("P(>0.1) [TT U[0,0.5][0,50] busy]")
        assert result.trust == "exact"
        assert result.report.trust == "exact"
        assert result.report.degradations == []

    def test_exhausted_deadline_degrades_not_raises(self, tmr3):
        # An already-impossible deadline: every engine tier trips at its
        # first checkpoint, the answer is the conservative partial
        # fill-in, and check() still returns normally (acceptance
        # criterion: trust != "exact", degradations populated).
        options = CheckOptions(path_strategy="merged", deadline_s=1e-4)
        checker = ModelChecker(tmr3, options)
        result = checker.check("P(>0.1) [Sup U[0,200][0,3000] failed]")
        assert result.trust != "exact"
        assert result.report.degradations
        kinds = {record["kind"] for record in result.report.degradations}
        assert "partial" in kinds or "engine" in kinds

    def test_partial_values_are_conservative_fill_in(self, tmr3):
        options = CheckOptions(deadline_s=1e-4)
        checker = ModelChecker(tmr3, options)
        result = checker.check("P(>0.1) [Sup U[0,200][0,3000] failed]")
        if result.trust != "partial":
            pytest.skip("machine fast enough to finish under 0.1 ms?!")
        psi = tmr3.states_with_label("failed")
        for state, value in enumerate(result.probabilities):
            assert value == (1.0 if state in psi else 0.0)

    def test_no_degrade_raises_typed(self, tmr3):
        options = CheckOptions(deadline_s=1e-4, degrade=False)
        checker = ModelChecker(tmr3, options)
        with pytest.raises(GuardExceeded):
            checker.check("P(>0.1) [Sup U[0,200][0,3000] failed]")

    def test_error_tolerance_downgrades_trust(self, tmr3):
        # The TMR P2 run discards ~2e-5 truncation mass; a tolerance
        # below that must downgrade the (complete) answer to degraded.
        strict = ModelChecker(tmr3, CheckOptions(error_tolerance=1e-12))
        result = strict.check("P(>0.1) [Sup U[0,200][0,3000] failed]")
        assert result.trust == "degraded"
        loose = ModelChecker(tmr3, CheckOptions(error_tolerance=0.5))
        assert loose.check(
            "P(>0.1) [Sup U[0,200][0,3000] failed]"
        ).trust == "exact"

    def test_explicit_guard_shared_across_checks(self, wavelan):
        guard = Guard(deadline_s=3600.0)
        checker = ModelChecker(wavelan, guard=guard)
        result = checker.check("P(>0.1) [TT U[0,0.5][0,50] busy]")
        assert result.trust == "exact"

    def test_partial_results_not_cached(self, tmr3):
        formula = "P(>0.1) [Sup U[0,200][0,3000] failed]"
        checker = ModelChecker(tmr3, CheckOptions(deadline_s=1e-4))
        first = checker.check(formula)
        assert first.trust == "partial"
        # Re-checking through an unguarded checker sharing the SAME
        # instance caches: the partial values must not have been stored.
        relaxed = ModelChecker(tmr3)
        exact = relaxed.check(formula)
        assert exact.trust == "exact"
        # And within the guarded checker itself the path-value cache
        # stayed empty, so a (hypothetical) later run recomputes.
        assert not checker._path_value_cache

    def test_report_v2_round_trip_with_degradations(self, tmr3):
        checker = ModelChecker(tmr3, CheckOptions(deadline_s=1e-4))
        report = checker.check("P(>0.1) [Sup U[0,200][0,3000] failed]").report
        clone = RunReport.from_dict(report.to_dict())
        assert clone.trust == report.trust
        assert clone.degradations == report.degradations

    def test_schema_v1_payload_still_loads(self):
        payload = {
            "schema": "repro.run-report/1",
            "formula": "S(>0.5) up",
            "wall_seconds": 0.25,
            "phases": [],
            "counters": {},
            "events": [],
            "cache": {},
            "error_budget": {
                "truncation_mass": 0.0,
                "discretization_defect": 0.0,
                "solver_residual": 0.0,
            },
        }
        report = RunReport.from_dict(payload)
        assert report.trust == "exact"
        assert report.degradations == []


class TestConcurrentGuards:
    def test_concurrent_checks_one_cache_distinct_guards(self, wavelan):
        """The server's execution model in miniature: several threads
        run ``check()`` against one shared EngineCache, each under its
        own per-call guard (the ambient installation is thread-local).
        A generous budget in one thread must not leak into (or rescue)
        a starved one, and the starved thread's degradation must not
        poison the generous thread's exact result."""
        import threading

        from repro.check.engine_cache import EngineCache

        formula = "P(>0.1) [!sleep U[0,1][0,4] sleep]"
        # A formula the shared cache has never seen: its cold build is
        # where the starved guard's checkpoints fire (a fully warm run
        # can finish without ever re-entering a guarded phase).
        cold_formula = "P(>0.1) [!sleep U[0,2][0,8] sleep]"
        shared = EngineCache()
        reference = ModelChecker(
            wavelan, CheckOptions(), engine_cache=shared
        ).check(formula)
        assert reference.trust == "exact"

        outcomes = {}
        errors = []
        barrier = threading.Barrier(2)

        def generous():
            try:
                checker = ModelChecker(
                    wavelan, CheckOptions(), engine_cache=shared
                )
                barrier.wait(10.0)
                outcomes["generous"] = checker.check(
                    formula, guard=Guard(deadline_s=300.0)
                )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def starved():
            try:
                checker = ModelChecker(
                    wavelan, CheckOptions(), engine_cache=shared
                )
                barrier.wait(10.0)
                outcomes["starved"] = checker.check(
                    cold_formula, guard=Guard(deadline_s=1e-9)
                )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=generous),
            threading.Thread(target=starved),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors
        assert outcomes["generous"].trust == "exact"
        assert outcomes["generous"].states == reference.states
        assert outcomes["generous"].probabilities == reference.probabilities
        assert outcomes["starved"].trust in ("degraded", "partial")
