"""The model-checking procedure (Section 4.1, Algorithm 4.1).

:class:`ModelChecker` binds an MRM to the per-operator algorithms.  A
formula's value is the set of states that satisfy it; the checker walks
the parse tree post-order (sub-formulas first), caching the satisfying
set of every sub-formula, exactly as ``SatisfyStateFormula`` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple, Union

import numpy as np

from repro.check.engine_cache import EngineCache, default_engine_cache
from repro.check.next_op import next_probabilities
from repro.check.results import SatResult
from repro.check.steady import satisfy_steady
from repro.check.until import satisfy_until
from repro.exceptions import (
    CheckError,
    ConvergenceError,
    FormulaError,
    GuardExceeded,
    NumericalError,
)
from repro.guard import (
    Guard,
    NullGuard,
    degradation_record,
    get_guard,
    until_tiers,
    use_guard,
)
from repro.logic.ast import (
    And,
    Atomic,
    Comparison,
    FalseFormula,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    PathFormula,
    Prob,
    StateFormula,
    Steady,
    TrueFormula,
    Until,
)
from repro.diag.lints import lint_formula
from repro.logic.parser import parse_formula
from repro.mrm.model import MRM
from repro.obs import (
    Collector,
    ErrorBudget,
    NullCollector,
    RunReport,
    get_collector,
    use_collector,
)
from repro.obs.report import (
    DEGRADATION_EVENT,
    PARTIAL_EVENT,
    SOLVER_FALLBACK_EVENT,
)

__all__ = ["CheckOptions", "ModelChecker"]

_UNTIL_ENGINES = ("uniformization", "discretization")
_PATH_STRATEGIES = ("paths", "merged")
_TRUNCATION_MODES = ("safe", "paper")
_LINEAR_SOLVERS = ("gauss-seidel", "jacobi", "sor", "direct")


@dataclass(frozen=True)
class CheckOptions:
    """Numerical configuration for the quantitative operators.

    Attributes
    ----------
    until_engine:
        ``"uniformization"`` (Section 4.6) or ``"discretization"``
        (Section 4.5) for time- and reward-bounded until.
    truncation_probability:
        The path-truncation threshold ``w`` of the uniformization engine
        (the appendix default is ``1e-8``).
    discretization_step:
        The step ``d`` of the discretization engine.
    path_strategy:
        ``"paths"`` (the paper's Algorithm 4.7, per-path truncation,
        swept in bounded deepest-first blocks) or ``"merged"`` (the same
        sweep one whole depth at a time, summing paths with equal state
        and ``(k, j)`` class before the truncation test; prunes less at
        equal ``w``).
    truncation_mode:
        ``"safe"`` (default; prunes on a sound upper bound over all
        extensions of a path) or ``"paper"`` (Algorithm 4.7's literal
        ``P(sigma, t) < w`` test, which degrades for large
        ``Lambda * t`` exactly as Table 5.3 shows).
    linear_solver:
        Solver for steady-state/unbounded-until linear systems
        (``"gauss-seidel"``, ``"jacobi"``, ``"sor"``, ``"direct"``).
    workers:
        Number of worker processes for the uniformization engine's
        per-initial-state fan-out (``0``/``1`` = serial; clamped to the
        machine's core count, with a ``pool.workers-clamped`` event when
        clamping).  The fan-out runs on the engine cache's persistent
        shared-memory worker pool, and results are bitwise identical
        either way — see
        :func:`repro.check.paths_engine.joint_distribution_many`.
    observe:
        Whether ``check()`` records a :class:`repro.obs.RunReport`
        (per-phase timings, cache activity, error budget).  On by
        default; the instrumentation is a handful of dict operations per
        phase (overhead is tracked in ``BENCH_3.json``), but it can be
        switched off for micro-benchmarking the bare engines.
    deadline_s:
        Wall-clock budget per ``check()`` call in seconds; ``None``
        (default) leaves time unbounded.  Enforced cooperatively by a
        :class:`repro.guard.Guard` at the engines' checkpoint sites.
    mem_budget_bytes:
        Memory budget per ``check()`` call in bytes; ``None`` (default)
        leaves memory unbounded.
    error_tolerance:
        Acceptable total :class:`~repro.obs.ErrorBudget` for a check's
        answer; when set and exceeded, the result's ``trust`` is
        downgraded to ``"degraded"`` (requires ``observe=True`` — the
        budget is assembled from the run's collector).
    degrade:
        Whether budget trips, out-of-memory conditions and convergence
        failures step down through cheaper engine tiers
        (:func:`repro.guard.until_tiers`) instead of propagating.  On by
        default; with ``False`` the first such failure raises.

    All fields are validated at construction: unknown engine, strategy,
    truncation-mode or solver names, negative worker counts, a
    non-positive discretization step, or a truncation probability
    outside ``(0, 1)`` raise :class:`~repro.exceptions.CheckError`
    immediately instead of failing deep inside an engine.
    """

    until_engine: str = "uniformization"
    truncation_probability: float = 1e-8
    discretization_step: float = 1 / 32
    path_strategy: str = "paths"
    truncation_mode: str = "safe"
    linear_solver: str = "gauss-seidel"
    workers: int = 0
    observe: bool = True
    deadline_s: Optional[float] = None
    mem_budget_bytes: Optional[int] = None
    error_tolerance: Optional[float] = None
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.until_engine not in _UNTIL_ENGINES:
            raise CheckError(
                f"unknown until engine {self.until_engine!r} "
                f"(expected one of {_UNTIL_ENGINES})"
            )
        if self.path_strategy not in _PATH_STRATEGIES:
            raise CheckError(
                f"unknown path strategy {self.path_strategy!r} "
                f"(expected one of {_PATH_STRATEGIES})"
            )
        if self.truncation_mode not in _TRUNCATION_MODES:
            raise CheckError(
                f"unknown truncation mode {self.truncation_mode!r} "
                f"(expected one of {_TRUNCATION_MODES})"
            )
        if self.linear_solver not in _LINEAR_SOLVERS:
            raise CheckError(
                f"unknown linear solver {self.linear_solver!r} "
                f"(expected one of {_LINEAR_SOLVERS})"
            )
        if not isinstance(self.workers, int) or self.workers < 0:
            raise CheckError(
                f"workers must be a non-negative integer, got {self.workers!r}"
            )
        if not 0.0 < self.truncation_probability < 1.0:
            raise CheckError(
                "truncation probability must lie in (0, 1), got "
                f"{self.truncation_probability!r}"
            )
        if self.discretization_step <= 0.0:
            raise CheckError(
                f"discretization step must be positive, got "
                f"{self.discretization_step!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise CheckError(
                f"deadline_s must be positive or None, got {self.deadline_s!r}"
            )
        if self.mem_budget_bytes is not None and self.mem_budget_bytes < 1:
            raise CheckError(
                "mem_budget_bytes must be at least 1 or None, got "
                f"{self.mem_budget_bytes!r}"
            )
        if self.error_tolerance is not None and self.error_tolerance < 0:
            raise CheckError(
                "error_tolerance must be non-negative or None, got "
                f"{self.error_tolerance!r}"
            )

    @property
    def guarded(self) -> bool:
        """Whether any guard budget is configured."""
        return (
            self.deadline_s is not None
            or self.mem_budget_bytes is not None
            or self.error_tolerance is not None
        )


class ModelChecker:
    """Checks CSRL formulas against an MRM.

    Examples
    --------
    >>> from repro.models import build_wavelan_modem
    >>> checker = ModelChecker(build_wavelan_modem())
    >>> result = checker.check("P(>=0) [TT U[0,0.5][0,50] busy]")
    >>> 2 in result  # the idle state satisfies the trivial bound
    True
    """

    def __init__(
        self,
        model: MRM,
        options: Optional[CheckOptions] = None,
        engine_cache: Optional[EngineCache] = None,
        guard: Optional[NullGuard] = None,
    ) -> None:
        self._model = model
        self._options = options or CheckOptions()
        # Cross-formula engine precomputation (Poisson tables, successor
        # structures, discretization grids, Omega memos), keyed by model
        # fingerprint so repeated checkers over equal models share it.
        # An explicit (possibly empty, hence falsy) cache must win over
        # the process-wide default.
        self._engine_cache = (
            engine_cache if engine_cache is not None else default_engine_cache()
        )
        # An explicit guard is shared across every check() of this
        # checker (one budget for a whole analysis); without one, each
        # check() builds a fresh per-call guard from the options.
        self._guard = guard
        self._cache: Dict[Formula, FrozenSet[int]] = {}
        self._value_cache: Dict[Formula, Tuple[float, ...]] = {}
        self._last_report: Optional[RunReport] = None
        # Quantitative values keyed by the *path* operator (including its
        # time/reward intervals), not the enclosing Prob formula: two P
        # formulas that differ only in comparison/bound share one engine
        # run, the second check being a pure threshold test.  Partial
        # results are never cached.
        self._path_value_cache: Dict[PathFormula, np.ndarray] = {}
        # Per-check degradation state, reset by check().
        self._partial = False
        self._degradations: List[Dict[str, Any]] = []
        # What cached answers must still report.  A *leaf* is one
        # quantitative engine answer (a path operator's values, a
        # steady-state formula's satisfying set) stored with the error
        # budget parts and degradation records of the run that computed
        # it; every cached satisfying set remembers the leaves it was
        # computed from.  An answer served from either cache replays its
        # leaves, each once per check (records marked ``cached``), so it
        # reports the computing run's budget and trust instead of zero
        # error and "exact".
        self._leaves: Dict[Any, Tuple[ErrorBudget, Tuple[Dict[str, Any], ...]]] = {}
        self._sat_leaves: Dict[Formula, FrozenSet[Any]] = {}
        self._leaf_trail: List[Set[Any]] = []
        self._charged: Set[Any] = set()

    @property
    def model(self) -> MRM:
        return self._model

    @property
    def options(self) -> CheckOptions:
        return self._options

    @property
    def engine_cache(self) -> EngineCache:
        """The cache sharing engine precomputation across formulas."""
        return self._engine_cache

    @property
    def last_report(self) -> Optional[RunReport]:
        """The :class:`repro.obs.RunReport` of the most recent ``check()``."""
        return self._last_report

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def check(
        self,
        formula: Union[str, StateFormula],
        guard: Optional[NullGuard] = None,
        request_id: Optional[str] = None,
    ) -> SatResult:
        """Evaluate a state formula; returns its satisfying set.

        Accepts either an AST or concrete syntax (parsed with
        :func:`repro.logic.parse_formula`).  Unless observation is
        disabled (``CheckOptions(observe=False)``), the evaluation runs
        under a fresh :class:`repro.obs.Collector` and the returned
        :class:`SatResult` carries a :class:`repro.obs.RunReport` with
        per-phase timings, engine-cache activity, and the formula's
        error budget; the same report is available as
        :attr:`last_report`.

        When the options (or an explicit constructor guard) configure
        budgets, the evaluation additionally runs under a
        :class:`repro.guard.Guard` and never raises on a tripped budget
        while ``options.degrade`` holds: failed sub-problems are re-run
        on cheaper engine tiers, the result's :attr:`SatResult.trust`
        reports ``"degraded"``/``"partial"``, and every step is listed
        in the report's ``degradations`` section.

        A per-call ``guard`` overrides both the constructor guard and
        the options-derived budgets for this one evaluation — the hook a
        long-lived service uses to run every request on a *shared*
        checker (warm formula caches) under that request's own
        admission-clipped budgets.  A per-call ``request_id`` becomes
        the run collector's correlation id: every span of the trace
        (including pool-worker shard spans) records it as an attribute,
        so the daemon's response envelope, its log lines and the
        exported Chrome trace all name the same request.
        """
        parsed = self._coerce(formula)
        guard = guard if guard is not None else self._make_guard()
        self._partial = False
        self._degradations = []
        self._charged = set()
        if not self._options.observe:
            with use_guard(guard if guard.enabled else None):
                states = self._sat(parsed)
            probabilities = self._value_cache.get(parsed)
            return SatResult(
                formula=str(parsed),
                states=states,
                probabilities=probabilities,
                trust=self._trust(guard, None),
            )
        collector = Collector(request_id=request_id)
        before = self._engine_cache.stats
        start = time.perf_counter()
        with use_collector(collector), use_guard(guard if guard.enabled else None):
            # The formula parsed (errors would have raised in _coerce);
            # record the lint verdict so reports show what was checked
            # under vacuous bounds or measure-zero reward points.
            lint_warnings = lint_formula(parsed)
            collector.event(
                "diag.count",
                errors=0,
                warnings=len(lint_warnings),
                codes=",".join(sorted({d.code for d in lint_warnings})),
            )
            with collector.span("check", formula=str(parsed)) as root:
                states = self._sat(parsed)
        wall_seconds = time.perf_counter() - start
        after = self._engine_cache.stats
        trust = self._trust(guard, collector)
        root.attributes["trust"] = trust
        report = RunReport.from_collector(
            str(parsed),
            collector,
            wall_seconds,
            cache={
                "hits": after.hits - before.hits,
                "misses": after.misses - before.misses,
                "evictions": after.evictions - before.evictions,
                "entries": after.entries,
            },
            trust=trust,
        )
        self._last_report = report
        probabilities = self._value_cache.get(parsed)
        return SatResult(
            formula=str(parsed),
            states=states,
            probabilities=probabilities,
            report=report,
            trust=trust,
        )

    # ------------------------------------------------------------------
    # guarded execution
    # ------------------------------------------------------------------
    def _make_guard(self) -> NullGuard:
        """The guard for one ``check()`` call.

        An explicit constructor guard wins (its deadline keeps ticking
        across calls — a whole-analysis budget); otherwise a fresh
        per-call :class:`Guard` is built whenever the options configure
        any budget, and the shared no-op guard when they do not.
        """
        if self._guard is not None:
            return self._guard
        opts = self._options
        if opts.guarded:
            return Guard(
                deadline_s=opts.deadline_s,
                mem_budget_bytes=opts.mem_budget_bytes,
                error_tolerance=opts.error_tolerance,
            )
        return NullGuard()

    def _trust(self, guard: NullGuard, collector: Optional[Collector]) -> str:
        """The trust qualification of the check that just finished."""
        if self._partial:
            return "partial"
        if self._degradations:
            return "degraded"
        if collector is not None:
            if collector.events_named(SOLVER_FALLBACK_EVENT):
                # An iterative solve silently fell back to the direct
                # solver inside solve_linear_system: the answer is
                # complete but not what the configuration asked for.
                return "degraded"
            tolerance = guard.error_tolerance
            if tolerance is not None:
                budget = ErrorBudget.from_collector(collector)
                if budget.total > tolerance:
                    return "degraded"
        return "exact"

    def _note_degradation(self, record: Dict[str, Any]) -> None:
        """Track one degradation and mirror it into the collector."""
        self._degradations.append(record)
        name = PARTIAL_EVENT if record.get("kind") == "partial" else DEGRADATION_EVENT
        get_collector().event(name, **record)

    @property
    def degradations(self) -> List[Dict[str, Any]]:
        """Engine-level degradation records of the most recent check."""
        return list(self._degradations)

    def holds_in(self, formula: Union[str, StateFormula], state: int) -> bool:
        """Whether ``state |= formula``."""
        parsed = self._coerce(formula)
        return int(state) in self.satisfying_states(parsed)

    def satisfying_states(self, formula: Union[str, StateFormula]) -> FrozenSet[int]:
        """``Sat(Phi)`` with per-sub-formula caching (Algorithm 4.1)."""
        parsed = self._coerce(formula)
        return self._sat(parsed)

    def path_probabilities(self, formula: Union[str, PathFormula]) -> np.ndarray:
        """``P(s, phi)`` for every state ``s`` and a path formula ``phi``.

        Accepts a path AST, or a string of the form the ``P`` operator
        would wrap (e.g. ``"a U[0,3][0,23] b"`` or ``"X a"``): strings are
        parsed by wrapping them in a trivial probability bound.
        """
        if isinstance(formula, str):
            wrapped = parse_formula(f"P(>=0) [{formula}]")
            assert isinstance(wrapped, Prob)
            path = wrapped.path
        elif isinstance(formula, PathFormula):
            path = formula
        else:
            raise FormulaError(
                f"expected a path formula, got {type(formula).__name__}"
            )
        return self._path_values(path).copy()

    def _path_values(self, path: PathFormula) -> np.ndarray:
        """``P(s, phi)`` for every state, cached per path operator.

        The cache key is the path formula itself (structural equality,
        intervals included), so every probability bound wrapped around
        the same path operator reuses one quantitative engine run.  A
        cache hit replays the producing run's degradation records
        (marked ``cached``) so the current check's trust stays honest,
        and its error budget (see :meth:`_use_leaf`); partial results are
        recomputed every time.
        """
        obs = get_collector()
        cached = self._path_value_cache.get(path)
        if cached is not None:
            obs.counter_add("path-values.cache-hits")
            obs.annotate(cached=True)
            self._use_leaf(path, cached=True)
            return cached
        # Operands first: their own leaves must not count into this one.
        if isinstance(path, Next):
            operands = (self._sat(path.child),)
            compute = self._next_values_guarded
        elif isinstance(path, Until):
            operands = (self._sat(path.left), self._sat(path.right))
            compute = self._until_values_guarded
        else:
            raise FormulaError(f"unsupported path formula {path!r}")
        mark = ErrorBudget.mark(obs)
        values, records, partial = compute(path, *operands)
        self._use_leaf(path, cached=False)
        if partial:
            self._partial = True
        else:
            self._path_value_cache[path] = values
            self._leaves[path] = (ErrorBudget.since(obs, mark), tuple(records))
        return values

    def _next_values_guarded(
        self, path: Next, phi_states: FrozenSet[int]
    ) -> Tuple[np.ndarray, List[Dict[str, Any]], bool]:
        """The next operator under the ambient guard.

        Next has no cheaper tier (one matrix-vector product); a budget
        trip makes the sub-problem partial immediately.
        """
        guard = get_guard()
        records: List[Dict[str, Any]] = []
        try:
            with get_collector().span("next"):
                values = next_probabilities(
                    self._model,
                    phi_states=phi_states,
                    time_bound=path.time_bound,
                    reward_bound=path.reward_bound,
                )
            return values, records, False
        except (GuardExceeded, MemoryError, ConvergenceError) as exc:
            if not self._options.degrade:
                raise
            record = degradation_record(
                "next",
                "next",
                None,
                exc,
                kind="partial",
                elapsed_s=guard.elapsed() if guard.enabled else None,
            )
            self._note_degradation(record)
            records.append(record)
            values = np.zeros(self._model.num_states, dtype=float)
            for state in phi_states:
                values[state] = 1.0
            return values, records, True

    def _until_values_guarded(
        self, path: Until, phi_states: FrozenSet[int], psi_states: FrozenSet[int]
    ) -> Tuple[np.ndarray, List[Dict[str, Any]], bool]:
        """The until operator under the ambient guard, with the cascade.

        Runs the configured tier first; on a budget trip, out-of-memory
        condition or convergence failure it steps down through
        :func:`repro.guard.until_tiers`, re-running only this
        sub-problem.  When every tier fails (or the deadline leaves no
        time for a retry) the values are the conservative fill-in —
        ``Psi``-states 1, everything else 0 — and the result is partial.
        """
        opts = self._options
        guard = get_guard()
        tiers = until_tiers(opts.until_engine, opts.path_strategy)
        if path.reward_bound.is_unbounded:
            # P0/P1 formulas ignore the engine/strategy configuration
            # entirely (linear system / transient uniformization), so a
            # "cheaper tier" would repeat the identical computation.
            tiers = tiers[:1]
        obs = get_collector()
        records: List[Dict[str, Any]] = []
        for index, tier in enumerate(tiers):
            try:
                with obs.span("until", tier=tier.label) as span:
                    result = satisfy_until(
                        self._model,
                        comparison=Comparison.GE,
                        bound=0.0,
                        phi_states=phi_states,
                        psi_states=psi_states,
                        time_bound=path.time_bound,
                        reward_bound=path.reward_bound,
                        engine=tier.engine,
                        truncation_probability=opts.truncation_probability,
                        discretization_step=opts.discretization_step,
                        strategy=tier.strategy,
                        truncation=opts.truncation_mode,
                        solver=opts.linear_solver,
                        workers=opts.workers,
                        cache=self._engine_cache,
                    )
                if span is not None:
                    span.attributes["engine"] = result.engine
                # The enclosing sat.prob span records which engine
                # finally answered (after any cascade step-downs).
                obs.annotate(engine=result.engine, tier=tier.label)
                return result.values, records, False
            except (GuardExceeded, MemoryError, ConvergenceError) as exc:
                if not opts.degrade:
                    raise
                elapsed = guard.elapsed() if guard.enabled else None
                # A passed deadline dooms every retry at its first
                # checkpoint — go partial instead of burning tiers.
                retry = index + 1 < len(tiers) and not guard.time_exhausted()
                if retry:
                    record = degradation_record(
                        "until",
                        tier.label,
                        tiers[index + 1].label,
                        exc,
                        kind="engine",
                        elapsed_s=elapsed,
                    )
                    self._note_degradation(record)
                    records.append(record)
                    continue
                record = degradation_record(
                    "until", tier.label, None, exc, kind="partial", elapsed_s=elapsed
                )
                self._note_degradation(record)
                records.append(record)
                break
            except (CheckError, NumericalError) as exc:
                # Configuration/precondition errors.  From the
                # *configured* tier they are the caller's problem and
                # propagate; a fallback tier whose preconditions the
                # model violates (e.g. discretization over non-integral
                # rewards) is simply skipped.
                if index == 0 or not opts.degrade:
                    raise
                elapsed = guard.elapsed() if guard.enabled else None
                retry = index + 1 < len(tiers)
                record = degradation_record(
                    "until",
                    tier.label,
                    tiers[index + 1].label if retry else None,
                    exc,
                    kind="engine" if retry else "partial",
                    elapsed_s=elapsed,
                )
                self._note_degradation(record)
                records.append(record)
                if retry:
                    continue
                break
        values = np.zeros(self._model.num_states, dtype=float)
        for state in psi_states:
            values[state] = 1.0
        return values, records, True

    # ------------------------------------------------------------------
    # recursion (Algorithm 4.1)
    # ------------------------------------------------------------------
    def _use_leaf(self, key: Any, cached: bool) -> None:
        """Note that the running Sat computation rests on leaf ``key``.

        A leaf served from a cache replays its stored budget and
        degradation records into this check, once per check; a fresh run
        recorded both directly.
        """
        if self._leaf_trail:
            self._leaf_trail[-1].add(key)
        if key in self._charged:
            return
        self._charged.add(key)
        if not cached or key not in self._leaves:
            return
        budget, records = self._leaves[key]
        for record in records:
            self._note_degradation({**record, "cached": True})
        budget.replay(get_collector())

    def _coerce(self, formula: Union[str, StateFormula]) -> StateFormula:
        if isinstance(formula, str):
            return parse_formula(formula)
        if isinstance(formula, StateFormula):
            return formula
        raise FormulaError(
            f"expected a state formula or string, got {type(formula).__name__}"
        )

    def _sat(self, formula: StateFormula) -> FrozenSet[int]:
        obs = get_collector()
        if not obs.enabled:
            return self._sat_memoized(formula, obs)
        # One span per parse-tree node, so the trace renders the
        # Sat(Phi) recursion of Algorithm 4.1 as a tree.  Cache hits
        # still open a (marked) span: the tree mirrors the parse *tree*,
        # not the memoized DAG.  The root ``check`` span already carries
        # the full formula text; rendering every subformula here would
        # cost more than the span itself.
        with obs.span(f"sat.{type(formula).__name__.lower()}"):
            return self._sat_memoized(formula, obs)

    def _sat_memoized(self, formula: StateFormula, obs: NullCollector) -> FrozenSet[int]:
        cached = self._cache.get(formula)
        if cached is not None:
            obs.annotate(cached=True, states=len(cached))
            for leaf in self._sat_leaves.get(formula, ()):
                self._use_leaf(leaf, cached=True)
            return cached
        self._leaf_trail.append(set())
        try:
            result = self._compute_sat(formula)
        finally:
            leaves = self._leaf_trail.pop()
            if self._leaf_trail:
                self._leaf_trail[-1] |= leaves
        obs.annotate(states=len(result))
        # Partial fill-ins must not poison the cross-check satisfying-set
        # cache: once this check has gone partial, nothing computed from
        # here on is known to be exact, so stop caching entirely.
        if not self._partial:
            self._cache[formula] = result
            if leaves:
                self._sat_leaves[formula] = frozenset(leaves)
        return result

    def _compute_sat(self, formula: StateFormula) -> FrozenSet[int]:
        model = self._model
        all_states = frozenset(range(model.num_states))
        if isinstance(formula, TrueFormula):
            return all_states
        if isinstance(formula, FalseFormula):
            return frozenset()
        if isinstance(formula, Atomic):
            if (
                model.atomic_propositions
                and formula.name not in model.atomic_propositions
            ):
                raise CheckError(
                    f"atomic proposition {formula.name!r} is not used in the "
                    "model (declared propositions: "
                    f"{sorted(model.atomic_propositions)})"
                )
            return frozenset(model.states_with_label(formula.name))
        if isinstance(formula, Not):
            return all_states - self._sat(formula.child)
        if isinstance(formula, Or):
            return self._sat(formula.left) | self._sat(formula.right)
        if isinstance(formula, And):
            return self._sat(formula.left) & self._sat(formula.right)
        if isinstance(formula, Implies):
            return (all_states - self._sat(formula.left)) | self._sat(formula.right)
        if isinstance(formula, Steady):
            return self._sat_steady(formula)
        if isinstance(formula, Prob):
            return self._sat_probability(formula)
        raise FormulaError(f"unsupported formula {formula!r}")

    def _sat_steady(self, formula: Steady) -> FrozenSet[int]:
        """The steady-state operator under the ambient guard.

        The solver already degrades iterative → direct internally
        (:func:`repro.numerics.linsolve.solve_linear_system`), so a
        failure escaping here means even the direct solve (or the BSCC
        analysis) could not finish within the budgets: the sub-problem
        goes partial with the conservative empty satisfying set.
        """
        obs = get_collector()
        obs.annotate(
            operator="S",
            comparison=str(formula.comparison),
            bound=float(formula.bound),
        )
        phi_states = self._sat(formula.child)
        guard = get_guard()
        mark = ErrorBudget.mark(obs)
        try:
            with obs.span("steady"):
                result = satisfy_steady(
                    self._model,
                    comparison=formula.comparison,
                    bound=formula.bound,
                    phi_states=phi_states,
                    cache=self._engine_cache,
                )
        except (GuardExceeded, MemoryError, ConvergenceError) as exc:
            if not self._options.degrade:
                raise
            self._partial = True
            self._note_degradation(
                degradation_record(
                    "steady",
                    "steady",
                    None,
                    exc,
                    kind="partial",
                    elapsed_s=guard.elapsed() if guard.enabled else None,
                )
            )
            self._value_cache[formula] = tuple(
                0.0 for _ in range(self._model.num_states)
            )
            return frozenset()
        self._value_cache[formula] = tuple(float(v) for v in result.values)
        self._leaves[formula] = (ErrorBudget.since(obs, mark), ())
        self._use_leaf(formula, cached=False)
        return result.satisfying

    def _sat_probability(self, formula: Prob) -> FrozenSet[int]:
        get_collector().annotate(
            operator="P",
            comparison=str(formula.comparison),
            bound=float(formula.bound),
            time_bound=str(formula.path.time_bound),
            reward_bound=str(formula.path.reward_bound),
        )
        values = self._path_values(formula.path)
        self._value_cache[formula] = tuple(float(v) for v in values)
        return frozenset(
            state
            for state in range(self._model.num_states)
            if formula.comparison.holds(float(values[state]), formula.bound)
        )
