"""The probabilistic until operator (Sections 4.3.2, 4.5, 4.6).

Three property classes are distinguished per the paper:

* **P0** ``P(Phi U Psi)`` — unbounded: a linear system over the embedded
  chain (eq. 3.8), solved after qualitative reachability precomputation;
* **P1** ``P(Phi U^{[0,t]} Psi)`` — time-bounded, reward-unbounded:
  transient analysis of ``M[!Phi or Psi]`` by standard uniformization
  with Fox–Glynn Poisson weights;
* **P2** ``P(Phi U^{[0,t]}_{[0,r]} Psi)`` — time- and reward-bounded:
  via Theorems 4.1/4.3 reduced to ``Pr{Y(t) <= r, X(t) |= Psi}`` over
  ``M[!Phi or Psi]``, evaluated with either the path-generation engine
  (Section 4.6) or the discretization engine (Section 4.5).

The paper restricts computational support to lower-bound-zero intervals
``[0, t]``/``[0, r]``.  As an extension of the paper (its chapter 6
lists general bounds as future work), reward-*unbounded* until
additionally supports general time intervals ``[t1, t2]`` via the
two-phase construction of :func:`interval_until_probabilities`;
reward-bounded formulas with positive lower bounds still raise
:class:`CheckError`.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, FrozenSet, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.check.discretization import (
    discretized_joint_distribution,
    discretized_joint_distributions,
)
from repro.check.engine_cache import EngineCache
from repro.check.paths_engine import (
    joint_distribution_from_context,
    joint_distribution_many,
    prepare_path_engine,
)
from repro.check.results import UntilResult
from repro.exceptions import CheckError
from repro.graphs.reachability import backward_reachable
from repro.guard import get_guard
from repro.logic.ast import Comparison
from repro.mrm.model import MRM
from repro.numerics.intervals import Interval
from repro.numerics.linsolve import solve_linear_system
from repro.numerics.poisson import fox_glynn
from repro.obs import get_collector
from repro.obs.report import TRUNCATION_COUNTER

__all__ = [
    "unbounded_until_probabilities",
    "time_bounded_until_probabilities",
    "interval_until_probabilities",
    "until_probability",
    "until_probabilities",
    "satisfy_until",
]


def unbounded_until_probabilities(
    model: MRM,
    phi_states: AbstractSet[int],
    psi_states: AbstractSet[int],
    solver: str = "gauss-seidel",
) -> np.ndarray:
    """P0: ``P(s, Phi U Psi)`` for all states (least solution of eq. 3.8).

    States that cannot reach ``Psi`` through ``Phi``-states get exactly 0
    (the least-fixed-point requirement); ``Psi``-states get exactly 1.
    The remaining states are solved as a linear system over the embedded
    jump probabilities.
    """
    n = model.num_states
    phi = {int(s) for s in phi_states}
    psi = {int(s) for s in psi_states}
    values = np.zeros(n, dtype=float)
    for state in psi:
        values[state] = 1.0

    # Qualitative step: only Phi-states that can reach Psi via Phi-states
    # have positive probability.
    allowed = phi - psi
    relevant = backward_reachable(model.rates, psi, allowed=allowed)
    unknown = sorted((relevant - psi) & allowed)
    if not unknown:
        return values

    index = {state: pos for pos, state in enumerate(unknown)}
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    rhs = np.zeros(len(unknown), dtype=float)
    rates = model.rates
    for state in unknown:
        row = index[state]
        rows.append(row)
        cols.append(row)
        vals.append(1.0)
        exit_rate = model.exit_rate(state)
        if exit_rate == 0.0:
            continue  # absorbing: equation x = 0 (cannot move at all)
        for pos in range(rates.indptr[state], rates.indptr[state + 1]):
            successor = int(rates.indices[pos])
            probability = float(rates.data[pos]) / exit_rate
            if probability == 0.0:
                continue
            if successor in psi:
                rhs[row] += probability
            elif successor in index:
                rows.append(row)
                cols.append(index[successor])
                vals.append(-probability)
    system = sp.csr_matrix((vals, (rows, cols)), shape=(len(unknown), len(unknown)))
    solution = solve_linear_system(system, rhs, method=solver)
    for state, row in index.items():
        values[state] = min(max(float(solution[row]), 0.0), 1.0)
    return values


def time_bounded_until_probabilities(
    model: MRM,
    phi_states: AbstractSet[int],
    psi_states: AbstractSet[int],
    time_bound: float,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """P1: ``P(s, Phi U^{[0,t]} Psi)`` for all states.

    Theorem 4.1 with trivial reward bound: make ``(!Phi or Psi)``-states
    absorbing and compute ``Pr{X(t) |= Psi}`` by uniformization.  The
    computation runs backwards (``u = sum_i poisson(i) P^i 1_Psi``) so a
    single pass yields the value for every initial state.
    """
    if time_bound < 0:
        raise CheckError("time bound must be non-negative")
    n = model.num_states
    phi = {int(s) for s in phi_states}
    psi = {int(s) for s in psi_states}
    indicator = np.zeros(n, dtype=float)
    for state in psi:
        indicator[state] = 1.0
    if time_bound == 0.0:
        return indicator

    absorbing = (set(range(n)) - phi) | psi
    transformed = model.make_absorbing(absorbing)
    process = transformed.uniformize()
    weights = fox_glynn(process.rate * time_bound, epsilon)
    matrix = process.dtmc.matrix

    current = indicator.copy()
    result = np.zeros(n, dtype=float)
    guard = get_guard()
    mem_estimate = (
        int(matrix.data.nbytes + 3 * current.nbytes) if guard.enabled else None
    )
    obs = get_collector()
    mass_series = obs.series("until.truncation-mass") if obs.enabled else None
    covered = 0.0
    for step in range(weights.right + 1):
        if guard.enabled:
            guard.checkpoint("until.transient", mem_bytes=mem_estimate)
        if step >= weights.left:
            w_step = weights.weight(step)
            if mass_series is not None:
                # Poisson mass not yet accumulated at this epoch — the
                # remaining truncation if the sum stopped here.
                covered += w_step
                mass_series.append(float(step), max(0.0, 1.0 - covered))
            result += w_step * current
        if step < weights.right:
            current = matrix.dot(current)
    if obs.enabled:
        # The Fox-Glynn window discards at most epsilon Poisson mass.
        obs.counter_add(TRUNCATION_COUNTER, float(epsilon))
        obs.event(
            "until.transient",
            lambda_t=float(process.rate * time_bound),
            left=int(weights.left),
            right=int(weights.right),
            epsilon=float(epsilon),
        )
    return np.clip(result, 0.0, 1.0)


def interval_until_probabilities(
    model: MRM,
    phi_states: AbstractSet[int],
    psi_states: AbstractSet[int],
    time_bound: Interval,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """P1 with a general time interval: ``P(s, Phi U^{[t1,t2]} Psi)``.

    The paper's Chapter 6 lists general time bounds as future work; for
    the reward-unbounded case the standard two-phase CSL construction
    (Baier et al., IEEE TSE 2003) applies and is implemented here:

    1. during ``[0, t1]`` the path must stay within ``Phi``-states, so
       the first phase evolves ``M[!Phi]`` for ``t1`` time units;
    2. from the state occupied at ``t1`` (if still a ``Phi``-state) the
       remaining obligation is ``Phi U^{[0, t2 - t1]} Psi``.

    Both phases run backwards so one pass covers every initial state.
    For ``t1 = t2`` the second phase degenerates to the indicator of
    ``Psi``, matching the ``U^{[t,t]}`` semantics of Theorem 4.2.
    """
    if time_bound.is_empty:
        raise CheckError("time interval must be non-empty")
    t1 = time_bound.lower
    t2 = time_bound.upper
    if math.isinf(t2):
        raise CheckError(
            "intervals of the form [t1, infinity) are not supported; "
            "combine a [t1, t1] phase with an unbounded until instead"
        )
    n = model.num_states
    phi = {int(s) for s in phi_states}
    psi = {int(s) for s in psi_states}
    if t1 == 0.0:
        return time_bounded_until_probabilities(model, phi, psi, t2, epsilon)

    # Phase 2: values from each state for the residual obligation.
    if t2 > t1:
        residual = time_bounded_until_probabilities(model, phi, psi, t2 - t1, epsilon)
    else:
        residual = np.zeros(n, dtype=float)
        for state in psi:
            residual[state] = 1.0
    # Only Phi-states may be occupied at t1 (strictly-before satisfaction
    # of Phi); zero the rest.
    phase_two = np.array(
        [residual[s] if s in phi else 0.0 for s in range(n)], dtype=float
    )

    # Phase 1: evolve M[!Phi] backwards for t1.
    transformed = model.make_absorbing(set(range(n)) - phi)
    process = transformed.uniformize()
    weights = fox_glynn(process.rate * t1, epsilon)
    matrix = process.dtmc.matrix
    current = phase_two.copy()
    values = np.zeros(n, dtype=float)
    guard = get_guard()
    mem_estimate = (
        int(matrix.data.nbytes + 3 * current.nbytes) if guard.enabled else None
    )
    for step in range(weights.right + 1):
        if guard.enabled:
            guard.checkpoint("until.interval", mem_bytes=mem_estimate)
        if step >= weights.left:
            values += weights.weight(step) * current
        if step < weights.right:
            current = matrix.dot(current)
    get_collector().counter_add(TRUNCATION_COUNTER, float(epsilon))
    # Non-Phi start states were absorbed immediately with value 0 unless
    # they are Phi themselves (handled), so just clip.
    return np.clip(values, 0.0, 1.0)


def _require_zero_lower(interval: Interval, what: str) -> None:
    if interval.lower != 0.0:
        raise CheckError(
            f"{what} intervals with positive lower bounds are not supported "
            "(the paper restricts computation to [0, t] and [0, r]; see "
            "chapter 6, future work)"
        )


def until_probability(
    model: MRM,
    initial_state: int,
    phi_states: AbstractSet[int],
    psi_states: AbstractSet[int],
    time_bound: Interval,
    reward_bound: Interval,
    engine: str = "uniformization",
    truncation_probability: float = 1e-8,
    discretization_step: float = 1 / 32,
    strategy: str = "paths",
    truncation: str = "safe",
    depth_limit: Optional[int] = None,
    cache: Optional[EngineCache] = None,
):
    """P2 for one initial state: the quantitative value plus diagnostics.

    Returns the engine-specific result object
    (:class:`repro.check.paths_engine.PathEngineResult` or
    :class:`repro.check.discretization.DiscretizationResult`).

    Implements Theorems 4.1/4.3: ``(!Phi or Psi)``-states are made
    absorbing with zero rewards, then the joint distribution
    ``Pr{Y(t) <= r, X(t) |= Psi}`` is evaluated.  To evaluate many
    initial states of the same formula, use :func:`until_probabilities`,
    which runs the make-absorbing transform and the engine
    precomputation once for all of them.
    """
    transformed, psi, dead = _p2_setup(model, phi_states, psi_states,
                                       time_bound, reward_bound)
    if engine == "uniformization":
        context = prepare_path_engine(
            transformed,
            psi_states=psi,
            time_bound=time_bound.upper,
            reward_bound=reward_bound.upper,
            truncation_probability=truncation_probability,
            dead_states=dead,
            depth_limit=depth_limit,
            strategy=strategy,
            truncation=truncation,
            cache=cache,
        )
        return joint_distribution_from_context(context, initial_state)
    if engine == "discretization":
        return discretized_joint_distribution(
            transformed,
            initial_state=initial_state,
            psi_states=psi,
            time_bound=time_bound.upper,
            reward_bound=reward_bound.upper,
            step=discretization_step,
            cache=cache,
        )
    raise CheckError(f"unknown until engine {engine!r}")


def _p2_setup(model, phi_states, psi_states, time_bound, reward_bound):
    """Shared P2 validation plus the Theorem 4.1/4.3 transformation."""
    _require_zero_lower(time_bound, "time")
    _require_zero_lower(reward_bound, "reward")
    if math.isinf(time_bound.upper):
        raise CheckError(
            "reward-bounded but time-unbounded until is not supported"
        )
    n = model.num_states
    phi = {int(s) for s in phi_states}
    psi = {int(s) for s in psi_states}
    absorbing = (set(range(n)) - phi) | psi
    transformed = model.make_absorbing(absorbing)
    dead = set(range(n)) - phi - psi
    return transformed, psi, dead


def until_probabilities(
    model: MRM,
    phi_states: AbstractSet[int],
    psi_states: AbstractSet[int],
    time_bound: Interval,
    reward_bound: Interval,
    engine: str = "uniformization",
    truncation_probability: float = 1e-8,
    discretization_step: float = 1 / 32,
    strategy: str = "paths",
    truncation: str = "safe",
    depth_limit: Optional[int] = None,
    workers: int = 0,
    cache: Optional[EngineCache] = None,
):
    """Batched P2: ``P(s, Phi U^I_J Psi)`` for **all** states at once.

    One make-absorbing transform and one engine precomputation serve
    every initial state:

    * ``engine="uniformization"`` builds a single
      :class:`repro.check.paths_engine.PathEngineContext` (uniformized
      process, successor tables, Poisson tables, Omega memos) and runs
      one search per pending state against it;
    * ``engine="discretization"`` exploits the linearity of the forward
      recursion: a single backward (adjoint) sweep over
      ``(state, reward-cell)`` yields the value for every initial state
      (:func:`repro.check.discretization.discretized_joint_distributions`).

    ``Psi``-states get probability exactly 1 and ``(!Phi and !Psi)``
    states exactly 0; the engines run only on the remaining pending
    ``Phi``-states.

    ``workers > 1`` (clamped to the machine's core count) shards the
    pending states of the uniformization engine across the persistent
    shared-memory worker pool (see
    :func:`repro.check.paths_engine.joint_distribution_many`); the
    probabilities and error bounds are bitwise-identical to the serial
    run.  The discretization engine is a single batched sweep, so the
    parameter is accepted but has no effect there.  ``cache`` shares
    engine precomputation (Poisson tables, successor structures,
    discretization grids, Omega memos) across formulas and calls, and
    its :meth:`~repro.check.engine_cache.EngineCache.worker_pool` is the
    pool the fan-out runs on.

    Returns
    -------
    (values, error_bounds, statistics):
        Per-state probabilities, per-state truncation error bounds
        (zeros for the discretization engine) and a dict mapping each
        pending state to its engine-specific result object.
    """
    transformed, psi, dead = _p2_setup(model, phi_states, psi_states,
                                       time_bound, reward_bound)
    n = model.num_states
    phi = {int(s) for s in phi_states}
    values = np.zeros(n, dtype=float)
    error_bounds = np.zeros(n, dtype=float)
    statistics: Dict[int, object] = {}
    for state in psi:
        values[state] = 1.0
    pending = sorted(phi - psi)
    if not pending:
        return values, error_bounds, statistics

    obs = get_collector()
    if engine == "uniformization":
        context = prepare_path_engine(
            transformed,
            psi_states=psi,
            time_bound=time_bound.upper,
            reward_bound=reward_bound.upper,
            truncation_probability=truncation_probability,
            dead_states=dead,
            depth_limit=depth_limit,
            strategy=strategy,
            truncation=truncation,
            cache=cache,
        )
        with obs.span(
            "until.search",
            strategy=strategy,
            workers=int(workers),
            pending=len(pending),
        ):
            results = joint_distribution_many(
                context,
                pending,
                workers=workers,
                pool=cache.worker_pool() if cache is not None else None,
            )
        for state in pending:
            result = results[state]
            values[state] = result.probability
            error_bounds[state] = result.error_bound
            statistics[state] = result
        if obs.enabled:
            # Aggregate the per-state search statistics: they feed the
            # run report's counters and the truncation side of the error
            # budget (eq. 4.6's bound, worst pending state).
            obs.counter_add(
                "paths.generated",
                float(sum(r.paths_generated for r in results.values())),
            )
            obs.counter_add(
                "paths.stored",
                float(sum(r.paths_stored for r in results.values())),
            )
            obs.counter_add(
                "omega.evaluations",
                float(sum(r.omega_evaluations for r in results.values())),
            )
            worst = float(error_bounds[pending].max()) if pending else 0.0
            obs.counter_add(TRUNCATION_COUNTER, worst)
            obs.event(
                "until.paths",
                pending_states=len(pending),
                truncation_mass=worst,
                max_depth=max((r.max_depth for r in results.values()), default=0),
                uniformization_rate=context.rate,
                strategy=strategy,
            )
    elif engine == "discretization":
        with obs.span("until.discretize"):
            batched = discretized_joint_distributions(
                transformed,
                psi_states=psi,
                time_bound=time_bound.upper,
                reward_bound=reward_bound.upper,
                step=discretization_step,
                cache=cache,
            )
        for state in pending:
            result = batched.result_for(state)
            values[state] = result.probability
            statistics[state] = result
    else:
        raise CheckError(f"unknown until engine {engine!r}")
    return values, error_bounds, statistics


def satisfy_until(
    model: MRM,
    comparison: Comparison,
    bound: float,
    phi_states: AbstractSet[int],
    psi_states: AbstractSet[int],
    time_bound: Interval,
    reward_bound: Interval,
    engine: str = "uniformization",
    truncation_probability: float = 1e-8,
    discretization_step: float = 1 / 32,
    strategy: str = "paths",
    truncation: str = "safe",
    solver: str = "gauss-seidel",
    workers: int = 0,
    cache: Optional[EngineCache] = None,
) -> UntilResult:
    """Algorithm 4.5 generalized over the three property classes.

    Computes ``P(s, Phi U^I_J Psi)`` for every state and compares against
    the bound.  ``Psi``-states trivially get probability 1 and
    ``(!Phi and !Psi)``-states 0 (for the supported ``[0, ...]``
    intervals), so the quantitative engines run only on the remaining
    ``Phi``-states — via the batched :func:`until_probabilities`, which
    runs the make-absorbing transform and the engine precomputation once
    for all of them instead of once per state.  Reward-unbounded
    formulas additionally support general time intervals ``[t1, t2]``
    (the paper's future-work case) via
    :func:`interval_until_probabilities`.
    """
    _require_zero_lower(reward_bound, "reward")
    n = model.num_states
    phi = {int(s) for s in phi_states}
    psi = {int(s) for s in psi_states}

    error_bounds = np.zeros(n, dtype=float)
    statistics: Dict[int, object] = {}

    obs = get_collector()
    if time_bound.is_unbounded and reward_bound.is_unbounded:
        with obs.span("until.linear-system"):
            values = unbounded_until_probabilities(model, phi, psi, solver=solver)
        engine_name = "linear-system"
    elif reward_bound.is_unbounded and time_bound.lower > 0.0:
        with obs.span("until.transient"):
            values = interval_until_probabilities(model, phi, psi, time_bound)
        engine_name = "uniformization-interval"
    elif reward_bound.is_unbounded:
        with obs.span("until.transient"):
            values = time_bounded_until_probabilities(
                model, phi, psi, time_bound=time_bound.upper
            )
        engine_name = "uniformization-transient"
    else:
        values, error_bounds, statistics = until_probabilities(
            model,
            phi_states=phi,
            psi_states=psi,
            time_bound=time_bound,
            reward_bound=reward_bound,
            engine=engine,
            truncation_probability=truncation_probability,
            discretization_step=discretization_step,
            strategy=strategy,
            truncation=truncation,
            workers=workers,
            cache=cache,
        )
        engine_name = (
            "paths-uniformization" if engine == "uniformization" else "discretization"
        )

    satisfying: FrozenSet[int] = frozenset(
        state for state in range(n) if comparison.holds(float(values[state]), bound)
    )
    return UntilResult(
        values=values,
        satisfying=satisfying,
        engine=engine_name,
        error_bounds=error_bounds,
        statistics=statistics,
    )
