"""The steady-state operator ``S_{op p}(Phi)`` (Section 4.2, Alg. 4.3).

For every state ``s`` the long-run probability of residing in
``Phi``-states is

    sum_B P(s, eventually B) * sum_{s' in B and Sat(Phi)} pi^B(s')

over the bottom strongly connected components ``B`` (eq. 3.2), which
collapses to a single standard steady-state analysis when the chain is
strongly connected (eq. 3.1).

The BSCC decomposition, the per-BSCC stationary distributions and the
reachability probabilities depend only on the model — not on ``Phi`` —
so they are computed once per model and shared through the
:class:`~repro.check.engine_cache.EngineCache` (keyed by
:meth:`repro.mrm.MRM.fingerprint`), together with the worst residual of
the linear solves that built them, which every read records into the
reader's error budget.  Each ``S`` formula then costs one
``O(n * #BSCC)`` accumulation instead of a dense ``n x n`` solve; no
dense steady-state matrix is ever materialized.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.check.engine_cache import EngineCache
from repro.check.results import SteadyResult
from repro.ctmc.steady import bscc_steady_structure
from repro.guard import get_guard
from repro.logic.ast import Comparison
from repro.mrm.model import MRM
from repro.obs import Collector, ErrorBudget, get_collector, use_collector

__all__ = ["steady_state_values", "satisfy_steady"]

_Structure = List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _steady_structure(model: MRM, cache: Optional[EngineCache]) -> _Structure:
    """The per-BSCC ``(members, reach, stationary)`` factors, cached.

    The structure is immutable after construction, so one
    :class:`EngineCache` entry per model fingerprint serves every ``S``
    formula, repeated checkers, and CLI runs over equal models.  The
    build records its solves on a private collector and the entry keeps
    their worst residual: the building read folds the recording into
    the ambient collector, every other read replays the residual, so
    each reader's error budget carries it.
    """
    recorders: List[Collector] = []

    def build() -> Tuple[_Structure, ErrorBudget]:
        recorder = Collector()
        with use_collector(recorder):
            structure = bscc_steady_structure(model.ctmc)
        recorders.append(recorder)
        residual = ErrorBudget.from_collector(recorder).solver_residual
        return structure, ErrorBudget(solver_residual=residual)

    if cache is None:
        structure, budget = build()
    else:
        key = ("steady-structure", model.fingerprint())
        structure, budget = cache.get_or_build(key, build)
    obs = get_collector()
    if recorders:
        if obs.enabled:
            obs.merge_snapshot(recorders[0].snapshot())
    else:
        budget.replay(obs)
    return structure


def steady_state_values(
    model: MRM,
    phi_states: AbstractSet[int],
    cache: Optional[EngineCache] = None,
) -> np.ndarray:
    """``pi(s, Sat(Phi))`` for every starting state ``s``.

    Parameters
    ----------
    model:
        The MRM (rewards are irrelevant to the steady-state operator; the
        underlying CTMC is analyzed).
    phi_states:
        The satisfying set of the operand formula.
    cache:
        Optional :class:`~repro.check.engine_cache.EngineCache`; when
        given, the BSCC steady-state structure is computed once per model
        fingerprint and shared across formulas and checker instances.
    """
    n = model.num_states
    values = np.zeros(n, dtype=float)
    if not phi_states:
        return values
    phi_mask = np.zeros(n, dtype=bool)
    phi_mask[[int(s) for s in phi_states]] = True
    structure = _steady_structure(model, cache)
    obs = get_collector()
    if obs.enabled:
        obs.counter_add("steady.evaluations")
        obs.event("steady", bsccs=len(structure), phi_states=int(phi_mask.sum()))
    guard = get_guard()
    for members, reach, stationary in structure:
        if guard.enabled:
            guard.checkpoint("steady.accumulate", mem_bytes=int(3 * values.nbytes))
        weight = float(stationary[phi_mask[members]].sum())
        if weight > 0.0:
            values += weight * reach
    return values


def satisfy_steady(
    model: MRM,
    comparison: Comparison,
    bound: float,
    phi_states: AbstractSet[int],
    cache: Optional[EngineCache] = None,
) -> SteadyResult:
    """Algorithm 4.3: the states satisfying ``S_{op p}(Phi)``."""
    values = steady_state_values(model, phi_states, cache=cache)
    satisfying: FrozenSet[int] = frozenset(
        state for state in range(model.num_states) if comparison.holds(values[state], bound)
    )
    return SteadyResult(values=values, satisfying=satisfying)
