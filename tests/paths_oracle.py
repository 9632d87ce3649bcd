"""Dict-and-tuple oracles for the columnar frontier sweep.

The library runs both path strategies through one columnar sweep over
search-tree rows (:func:`repro.check.paths_engine._run_paths_sweep`).
This module keeps the two implementations it replaced, so the tests can
check the sweep against them:

* :func:`run_paths_dfs` — the paper's one-frame-per-node depth-first
  search of Algorithm 4.7 (oracle of strategy ``"paths"``);
* :func:`run_merged_dp` — the breadth-first dynamic programming over
  ``(state, k, j)`` dict frontiers (oracle of strategy ``"merged"``).

Both must produce the same path set or frontier as the sweep (equal
``paths_generated``/``paths_stored``/``max_depth``/``classes``) and the
same probability and error bound up to summation order.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.check.paths_engine import PathEngineContext, PathEngineResult
from repro.numerics.orderstat import OmegaRegistry

Successors = List[List[Tuple[int, float, int]]]
Aggregated = Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float]


def successor_lists(context: PathEngineContext) -> Successors:
    """Per state, the ``(target, probability, impulse index)`` out-edges.

    Read off the context's CSR arrays (which already drop dead targets);
    the impulse index is the low part of the edge's move code
    ``level * J + impulse``.
    """
    num_impulses = len(context.impulse_levels)
    indptr = context.succ_indptr
    return [
        [
            (
                int(context.succ_targets[pos]),
                float(context.succ_probs[pos]),
                int(context.succ_moves[pos]) % num_impulses,
            )
            for pos in range(int(indptr[state]), int(indptr[state + 1]))
        ]
        for state in range(context.num_states)
    ]


def dfs_result(context: PathEngineContext, initial_state: int) -> PathEngineResult:
    """The DFS oracle's answer for one initial state of a context."""
    return _oracle_result(context, initial_state, run_paths_dfs)


def merged_dp_result(
    context: PathEngineContext, initial_state: int
) -> PathEngineResult:
    """The merged-DP oracle's answer for one initial state of a context."""
    return _oracle_result(context, initial_state, run_merged_dp)


def _oracle_result(context, initial_state, runner) -> PathEngineResult:
    aggregated, error_bound, generated, stored, max_depth = runner(
        initial_state=int(initial_state),
        psi=context.psi,
        dead=context.dead,
        successors=successor_lists(context),
        state_level=context.state_level,
        num_levels=len(context.reward_levels),
        num_impulses=len(context.impulse_levels),
        w=context.w,
        depth_limit=context.depth_limit,
        pmf=context.pmf,
        heads=context.heads,
        maxpois=context.maxpois,
    )
    probability, classes, omega_evals = combine_with_omega(
        aggregated,
        context.reward_levels,
        context.impulse_levels,
        context.time_bound,
        context.reward_bound,
        OmegaRegistry.for_reward_levels(context.reward_levels),
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


def _child_class(k, j, level, impulse_idx):
    child_k = k[:level] + (k[level] + 1,) + k[level + 1 :]
    child_j = j[:impulse_idx] + (j[impulse_idx] + 1,) + j[impulse_idx + 1 :]
    return child_k, child_j


def run_paths_dfs(
    initial_state: int,
    psi: frozenset,
    dead: frozenset,
    successors: Successors,
    state_level: List[int],
    num_levels: int,
    num_impulses: int,
    w: float,
    depth_limit: Optional[int],
    pmf: np.ndarray,
    heads: np.ndarray,
    maxpois: Optional[np.ndarray],
) -> Tuple[Aggregated, float, int, int, int]:
    """Algorithm 4.7 with an explicit stack.

    Stack frames carry ``(state, n, k, j, p_dtmc)`` with the bare DTMC
    path probability ``P(sigma)``; the Poisson-weighted probability
    ``P(sigma, t) = pmf[n] * P(sigma)`` is looked up from the log-space
    table on demand, so a deep underflow of the table head (large
    ``Lambda t``) affects only the entries that are genuinely zero.
    ``maxpois`` switches the truncation test to the safe variant (see
    :func:`repro.check.paths_engine.joint_distribution`).
    """
    aggregated: Aggregated = {}
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
            child_k, child_j = _child_class(k, j, state_level[target], impulse_idx)
            stack.append((target, next_depth, child_k, child_j, child_dtmc))
    return aggregated, error_bound, generated, stored, max_depth


def run_merged_dp(
    initial_state: int,
    psi: frozenset,
    dead: frozenset,
    successors: Successors,
    state_level: List[int],
    num_levels: int,
    num_impulses: int,
    w: float,
    depth_limit: Optional[int],
    pmf: np.ndarray,
    heads: np.ndarray,
    maxpois: Optional[np.ndarray],
) -> Tuple[Aggregated, float, int, int, int]:
    """Breadth-first dynamic programming over ``(state, k, j)`` classes.

    Paths with equal state and equal reward characterization are merged
    *before* the truncation test, so at equal ``w`` this prunes strictly
    less than per-path truncation and yields a tighter error bound.  The
    frontier at depth ``n`` maps ``(state, k, j)`` to the merged DTMC
    probability; the Poisson weight ``pmf[n]`` is applied on storage.
    Past the end of the pmf table the Poisson weight is genuinely below
    every representable threshold, so frontiers there score 0.0 and are
    truncated (a stale last-entry lookup would keep deep frontiers alive
    in ``"paper"`` mode and leak their mass out of the error bound).
    """
    aggregated: Aggregated = {}
    error_bound = 0.0
    generated = 0
    stored = 0
    max_depth = 0

    if initial_state in dead:
        return aggregated, 0.0, 0, 0, 0
    root_score = float(pmf[0]) if maxpois is None else float(maxpois[0])
    if root_score < w:
        return aggregated, 1.0, 0, 0, 0

    root_k = tuple(
        1 if i == state_level[initial_state] else 0 for i in range(num_levels)
    )
    root_j = (0,) * num_impulses
    frontier = {(initial_state, root_k, root_j): 1.0}
    depth = 0
    while frontier:
        max_depth = depth
        poisson_here = float(pmf[depth]) if depth < len(pmf) else 0.0
        for (state, k, j), p_dtmc in frontier.items():
            generated += 1
            if state in psi:
                key = (k, j)
                aggregated[key] = aggregated.get(key, 0.0) + poisson_here * p_dtmc
                stored += 1
        if depth_limit is not None and depth >= depth_limit:
            break
        next_depth = depth + 1
        next_frontier: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], float] = {}
        for (state, k, j), p_dtmc in frontier.items():
            for target, probability, impulse_idx in successors[state]:
                if target in dead:
                    continue
                child = (target,) + _child_class(
                    k, j, state_level[target], impulse_idx
                )
                next_frontier[child] = next_frontier.get(child, 0.0) + (
                    p_dtmc * probability
                )
        tail = 1.0 - heads[next_depth] if next_depth < len(heads) else 1.0
        poisson_next = float(pmf[next_depth]) if next_depth < len(pmf) else 0.0
        ceiling = (
            None
            if maxpois is None
            else float(maxpois[min(next_depth, len(maxpois) - 1)])
        )
        frontier = {}
        for key, p_dtmc in next_frontier.items():
            score = poisson_next * p_dtmc if ceiling is None else p_dtmc * ceiling
            if score < w:
                error_bound += p_dtmc * tail
            else:
                frontier[key] = p_dtmc
        depth = next_depth
    return aggregated, error_bound, generated, stored, max_depth


def combine_with_omega(
    aggregated: Aggregated,
    reward_levels: List[float],
    impulse_levels: List[float],
    time_bound: float,
    reward_bound: float,
    calculators: OmegaRegistry,
) -> Tuple[float, int, int]:
    """Combine class probabilities with ``Pr{Y(t) <= r | n, k, j}``.

    The per-class loop over a dict of ``(k, j)`` tuples that the
    library's vectorized ``_combine_with_omega_matrix`` replaced: a class
    whose impulses alone exceed the reward bound (negative threshold)
    contributes 0, every other class goes through one pass of the
    ``calculators`` registry.
    """
    if not aggregated:
        return 0.0, 0, 0
    smallest = reward_levels[-1]
    live = []
    for (k, j), mass in aggregated.items():
        impulse_total = sum(
            level * count for level, count in zip(impulse_levels, j)
        )
        threshold = reward_bound / time_bound - smallest - impulse_total / time_bound
        if threshold < 0.0:
            continue  # reward bound already violated by impulses alone
        live.append((k, threshold, mass))
    probability = 0.0
    omega_evals = 0
    if live:
        values, omega_evals = calculators.evaluate(
            [k for k, _, _ in live], [threshold for _, threshold, _ in live]
        )
        for (_, _, mass), value in zip(live, values.tolist()):
            probability += mass * value
    return probability, len(aggregated), omega_evals
