"""The per-path DFS of Algorithm 4.7, kept as the test oracle.

The library runs strategy ``"paths"`` as a columnar sweep over unmerged
search-tree rows (:func:`repro.check.paths_engine._run_paths_sweep`).
This module keeps the paper's one-frame-per-node depth-first search it
replaced, so the tests can check that the sweep generates the same path
set (equal ``paths_generated``/``paths_stored``/``max_depth``) and the
same probability and error bound up to summation order.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.check.paths_engine import (
    PathEngineContext,
    PathEngineResult,
    _combine_with_omega,
)


def dfs_result(context: PathEngineContext, initial_state: int) -> PathEngineResult:
    """The DFS oracle's answer for one initial state of a context."""
    aggregated, error_bound, generated, stored, max_depth = run_paths_dfs(
        initial_state=int(initial_state),
        psi=context.psi,
        dead=context.dead,
        successors=context.successors,
        state_level=context.state_level,
        num_levels=len(context.reward_levels),
        num_impulses=len(context.impulse_levels),
        w=context.w,
        depth_limit=context.depth_limit,
        pmf=context.pmf,
        heads=context.heads,
        maxpois=context.maxpois,
    )
    probability, classes, omega_evals = _combine_with_omega(
        aggregated,
        context.reward_levels,
        context.impulse_levels,
        context.time_bound,
        context.reward_bound,
        calculators={},
    )
    return PathEngineResult(
        probability=probability,
        error_bound=error_bound,
        paths_generated=generated,
        paths_stored=stored,
        classes=classes,
        max_depth=max_depth,
        uniformization_rate=context.rate,
        omega_evaluations=omega_evals,
    )


def run_paths_dfs(
    initial_state: int,
    psi: frozenset,
    dead: frozenset,
    successors: List[List[Tuple[int, float, int]]],
    state_level: List[int],
    num_levels: int,
    num_impulses: int,
    w: float,
    depth_limit: Optional[int],
    pmf: np.ndarray,
    heads: np.ndarray,
    maxpois: Optional[np.ndarray],
) -> Tuple[Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float], float, int, int, int]:
    """Algorithm 4.7 with an explicit stack.

    Stack frames carry ``(state, n, k, j, p_dtmc)`` with the bare DTMC
    path probability ``P(sigma)``; the Poisson-weighted probability
    ``P(sigma, t) = pmf[n] * P(sigma)`` is looked up from the log-space
    table on demand, so a deep underflow of the table head (large
    ``Lambda t``) affects only the entries that are genuinely zero.
    ``maxpois`` switches the truncation test to the safe variant (see
    :func:`repro.check.paths_engine.joint_distribution`).
    """
    aggregated: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float] = {}
    error_bound = 0.0
    generated = 0
    stored = 0
    max_depth = 0

    if initial_state in dead:
        return aggregated, 0.0, 0, 0, 0
    root_score = float(pmf[0]) if maxpois is None else float(maxpois[0])
    if root_score < w:
        # Even the empty path is truncated (Algorithm 4.7 line 1): all
        # probability mass is discarded and the error bound is total.
        return aggregated, 1.0, 0, 0, 0

    root_k = tuple(
        1 if i == state_level[initial_state] else 0 for i in range(num_levels)
    )
    root_j = (0,) * num_impulses
    stack: List[Tuple[int, int, Tuple[int, ...], Tuple[int, ...], float]] = [
        (initial_state, 0, root_k, root_j, 1.0)
    ]
    head_count = len(heads)
    while stack:
        state, depth, k, j, p_dtmc = stack.pop()
        generated += 1
        if depth > max_depth:
            max_depth = depth
        if state in psi:
            key = (k, j)
            aggregated[key] = aggregated.get(key, 0.0) + float(pmf[depth]) * p_dtmc
            stored += 1
        if depth_limit is not None and depth >= depth_limit:
            continue
        next_depth = depth + 1
        poisson_next = float(pmf[next_depth]) if next_depth < len(pmf) else 0.0
        for target, probability, impulse_idx in successors[state]:
            child_dtmc = p_dtmc * probability
            if target in dead:
                continue
            child_score = (
                poisson_next * child_dtmc
                if maxpois is None
                else child_dtmc * float(maxpois[next_depth])
            )
            if child_score < w:
                # eq. (4.6): the discarded path and all its suffixes; the
                # last state satisfies (Phi or Psi) since dead states were
                # skipped above.
                if next_depth < head_count:
                    tail = 1.0 - heads[next_depth]
                else:  # pragma: no cover - depth table always suffices
                    tail = 1.0
                error_bound += child_dtmc * tail
                continue
            level = state_level[target]
            child_k = k[:level] + (k[level] + 1,) + k[level + 1 :]
            child_j = (
                j[:impulse_idx] + (j[impulse_idx] + 1,) + j[impulse_idx + 1 :]
            )
            stack.append((target, next_depth, child_k, child_j, child_dtmc))
    return aggregated, error_bound, generated, stored, max_depth
