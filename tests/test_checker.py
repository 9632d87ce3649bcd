"""Tests for the ModelChecker recursion (Algorithm 4.1)."""

import pytest

from repro.check.checker import CheckOptions, ModelChecker
from repro.exceptions import CheckError, FormulaError
from repro.logic.ast import Atomic, Comparison, Next, Prob, Until, ap, tt
from repro.numerics.intervals import Interval


@pytest.fixture
def checker(wavelan):
    return ModelChecker(wavelan)


class TestBooleanLayer:
    def test_tt_ff(self, checker):
        assert checker.satisfying_states("TT") == frozenset(range(5))
        assert checker.satisfying_states("FF") == frozenset()

    def test_atomic(self, checker):
        assert checker.satisfying_states("busy") == {3, 4}
        assert checker.satisfying_states("idle") == {2}

    def test_negation(self, checker):
        assert checker.satisfying_states("!busy") == {0, 1, 2}

    def test_disjunction_conjunction(self, checker):
        assert checker.satisfying_states("busy || idle") == {2, 3, 4}
        assert checker.satisfying_states("busy && receive") == {3}

    def test_implication(self, checker):
        # busy => receive fails only in transmit (busy but not receive).
        assert checker.satisfying_states("busy => receive") == {0, 1, 2, 3}

    def test_unknown_proposition_rejected(self, checker):
        with pytest.raises(CheckError, match="atomic proposition"):
            checker.satisfying_states("nonexistent_label")

    def test_ast_input(self, checker):
        assert checker.satisfying_states(~ap("busy")) == {0, 1, 2}

    def test_bad_input_type(self, checker):
        with pytest.raises(FormulaError):
            checker.satisfying_states(42)


class TestQuantitativeLayer:
    def test_steady_formula(self, checker):
        # The modem spends most time dozing between off and sleep; just
        # exercise both directions of the bound.
        result = checker.check("S(>=0) busy")
        assert result.states == frozenset(range(5))
        assert result.probabilities is not None

    def test_until_probability_values_recorded(self, checker):
        result = checker.check("P(>0.1) [idle U[0,2][0,2000] busy]")
        assert result.probability_of(2) == pytest.approx(0.15789, abs=2e-5)
        # idle (0.158), receive and transmit (trivially 1) clear the bound.
        assert result.states == {2, 3, 4}

    def test_nested_formula(self, checker):
        formula = "P(>0) [X (P(>0) [X busy])]"
        states = checker.satisfying_states(formula)
        # Inner set: states with a direct transition to busy = {idle}.
        # Outer: states with a direct transition to idle — sleep, receive
        # and transmit; idle itself has no idle successor.
        assert states == {1, 3, 4}

    def test_holds_in(self, checker):
        assert checker.holds_in("idle", 2)
        assert not checker.holds_in("idle", 0)

    def test_check_result_contains(self, checker):
        result = checker.check("busy")
        assert 3 in result
        assert 0 not in result


class TestCaching:
    def test_subformula_cache_reused(self, wavelan):
        checker = ModelChecker(wavelan)
        checker.satisfying_states("busy || idle")
        cached = dict(checker._cache)
        assert Atomic("busy") in cached
        # Second query with a shared subformula does not recompute.
        checker.satisfying_states("!(busy || idle)")
        assert checker._cache[Atomic("busy")] is cached[Atomic("busy")]

    def test_expensive_until_cached(self, wavelan):
        checker = ModelChecker(wavelan)
        formula = "P(>0.1) [idle U[0,2][0,2000] busy]"
        first = checker.check(formula)
        second = checker.check(formula)
        assert first.states == second.states

    def test_prob_formulas_share_path_engine_run(self, wavelan, monkeypatch):
        """Two P formulas differing only in comparison/bound run the
        engine once: the value cache is keyed by the path operator."""
        import repro.check.checker as checker_mod

        calls = []
        real = checker_mod.satisfy_until

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checker_mod, "satisfy_until", counting)
        checker = ModelChecker(wavelan)
        low = checker.check("P(>0.1) [idle U[0,2][0,2000] busy]")
        high = checker.check("P(<=0.9) [idle U[0,2][0,2000] busy]")
        assert len(calls) == 1
        assert len(checker._path_value_cache) == 1
        assert low.probability_of(2) == pytest.approx(high.probability_of(2))

    def test_different_intervals_do_not_share(self, wavelan, monkeypatch):
        import repro.check.checker as checker_mod

        calls = []
        real = checker_mod.satisfy_until

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checker_mod, "satisfy_until", counting)
        checker = ModelChecker(wavelan)
        checker.check("P(>0.1) [idle U[0,2][0,2000] busy]")
        checker.check("P(>0.1) [idle U[0,1][0,2000] busy]")
        assert len(calls) == 2

    def test_cached_values_report_their_error_budget(self, wavelan):
        path = "[TT U[0,0.5][0,50] busy]"
        checker = ModelChecker(wavelan)
        first = checker.check(f"P(>0.5) {path}").report.error_budget
        assert first.total > 0.0
        # A value-cache hit (new bound) and a satisfying-set cache hit
        # (same formula) replay exactly the computing run's budget.
        for formula in (f"P(<0.2) {path}", f"P(>0.5) {path}"):
            assert checker.check(formula).report.error_budget == first
        # One cached sub-answer used twice in a formula is charged once.
        both = checker.check(f"P(>0.5) {path} && P(<0.2) {path}")
        assert both.report.error_budget == first

    def test_cached_steady_answer_keeps_its_solver_residual(self, wavelan):
        from repro.check.engine_cache import EngineCache

        checker = ModelChecker(wavelan, engine_cache=EngineCache())
        first = checker.check("S(>0.1) busy").report.error_budget
        assert first.solver_residual > 0.0
        assert checker.check("S(>0.1) busy").report.error_budget == first


class TestPathProbabilities:
    def test_until_string(self, checker):
        values = checker.path_probabilities("idle U[0,2][0,2000] busy")
        assert values[2] == pytest.approx(0.15789, abs=2e-5)
        assert values[3] == 1.0

    def test_next_string(self, checker):
        values = checker.path_probabilities("X busy")
        assert values[2] == pytest.approx(2.25 / 14.25)

    def test_path_ast(self, checker):
        path = Until(
            Atomic("idle"),
            Atomic("busy"),
            time_bound=Interval.upto(2.0),
            reward_bound=Interval.upto(2000.0),
        )
        values = checker.path_probabilities(path)
        assert values[2] == pytest.approx(0.15789, abs=2e-5)

    def test_state_formula_rejected(self, checker):
        with pytest.raises(FormulaError):
            checker.path_probabilities(ap("busy"))


class TestOptions:
    def test_discretization_engine_selected(self, phone):
        options = CheckOptions(
            until_engine="discretization", discretization_step=1 / 8
        )
        checker = ModelChecker(phone, options)
        result = checker.check(
            "P(>0.2) [(Call_Idle || Doze) U[0,4][0,600] Call_Initiated]"
        )
        assert result.probabilities is not None

    def test_paper_truncation_mode_selectable(self, wavelan):
        options = CheckOptions(truncation_mode="paper", truncation_probability=1e-8)
        checker = ModelChecker(wavelan, options)
        # Lambda t = 28.5 makes exp(-Lambda t) < w: the paper's rule
        # discards everything (Table 5.3's failure regime).
        result = checker.check("P(>0.1) [idle U[0,2][0,2000] busy]")
        assert result.probability_of(2) == 0.0

    def test_merged_strategy(self, wavelan):
        options = CheckOptions(path_strategy="merged")
        checker = ModelChecker(wavelan, options)
        result = checker.check("P(>0.1) [idle U[0,2][0,2000] busy]")
        assert result.probability_of(2) == pytest.approx(0.15789, abs=2e-5)


class TestDiagCountEvent:
    def test_every_observed_run_records_diag_count(self, checker):
        checker.check("busy")
        events = [
            e for e in checker.last_report.events
            if e.get("event") == "diag.count"
        ]
        assert len(events) == 1
        assert events[0]["errors"] == 0
        assert events[0]["warnings"] == 0

    def test_lint_warnings_counted(self, checker):
        checker.check("P(>=0) [busy U idle]")
        (event,) = [
            e for e in checker.last_report.events
            if e.get("event") == "diag.count"
        ]
        assert event["warnings"] == 1
        assert "CSRL020" in event["codes"]
