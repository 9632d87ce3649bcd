"""Uniformization with path generation (Sections 4.4.2, 4.6).

This is the paper's main computational contribution: evaluating

    Pr{Y(t) <= r, X(t) |= Psi}

over an MRM whose ``(!Phi or Psi)``-states have been made absorbing, by

1. uniformizing the MRM (Definition 4.2);
2. enumerating finite paths of the uniformized DTMC (Algorithm 4.7,
   DFPG) with *path truncation*: a path is abandoned as soon as its
   Poisson-weighted probability ``P(sigma, t)`` drops below the
   truncation probability ``w`` (Definition 4.6);
3. characterizing each stored path by its sojourn-count vector ``k``
   (one entry per distinct state reward) and impulse-count vector ``j``
   (one entry per distinct impulse reward) and aggregating the
   probabilities of paths with equal ``(k, j)``;
4. evaluating the conditional probability ``Pr{Y(t) <= r | n, k, j}`` per
   equivalence class with the Omega recursion (Algorithm 4.8) over
   uniform order statistics;
5. reporting the truncation error bound of eq. (4.6).

The module also implements *depth truncation* (eq. 4.3) as an alternative
strategy for the ablation benchmarks.

Batched evaluation
------------------
All inputs except the initial state — the uniformized process, the
successor tables, the Poisson pmf/head/max tables and the Omega memo
tables — depend only on the formula, not on where the search starts.
:func:`prepare_path_engine` factors that precomputation into a reusable
:class:`PathEngineContext`; :func:`joint_distribution_from_context` then
runs the search for one initial state, and
:func:`joint_distribution_all` evaluates every requested initial state
against a single shared context.  Sharing the context turns the
``O(n)``-pass all-states evaluation of a P2 until formula into one
precomputation plus ``n`` searches, and lets the Omega memoization work
across initial states (classes recur between starts).

One frontier sweep
------------------
Both strategies run through one columnar sweep,
:func:`_run_paths_sweep`.  Its rows are search-tree nodes: a state, a
class key for the node's ``(k, j)`` characterization and the DTMC path
probability ``P(sigma)``.  Class keys are two bit-packed int64 words
(:func:`_class_packing`), or a :class:`ClassTable` id when the counts do
not fit two words; either way a child's key derives from its parent's
in one array operation.  A popped block of rows of one depth stores its
``Psi``-rows with weight ``pmf[n] P(sigma)``, expands every row through
the flat CSR successor structure and tests every child against ``w``
(``pmf[n] P(sigma)`` in ``"paper"`` mode, ``maxpois[n] P(sigma)`` in
``"safe"`` mode); a discarded child feeds the eq. (4.6) tail.  The
stored rows are grouped per class once at the end.

* ``"paths"`` (the default) is Algorithm 4.7 exactly: every child is
  tested on its own, so the sweep generates the paper's path set with
  its per-path truncation.  Surviving children are pushed as blocks of
  at most :data:`PATHS_BLOCK_ROWS` rows onto a stack that is always
  drained deepest-first, which bounds the working set the way the DFS
  stack does.  Only the traversal (and so the summation) order differs
  from the per-path DFS, which the test suite keeps as the oracle.
* ``"merged"`` is the dynamic-programming variant: a popped block is a
  whole depth, children with equal ``(state, class)`` are summed before
  the truncation test (so it prunes strictly less at equal ``w``), and
  the next depth is pushed as one block.  The dict-of-tuples recursion
  it replaced is kept in the test suite as its oracle.

The final Omega combination evaluates every class of a start state,
whatever its threshold, through one layered pass of
:meth:`repro.numerics.orderstat.OmegaRegistry.evaluate` and folds each
threshold's classes into the probability with a dot product.

Multiprocess fan-out
--------------------
:func:`joint_distribution_many` (and the ``workers=`` parameter of
:func:`joint_distribution_all` / :func:`repro.check.until_probabilities`)
shards the initial states over the **persistent** ``fork``-based worker
pool of :mod:`repro.check.pool`: workers are forked once per process
and reused across calls, the context's large read-only arrays (CSR
successor structure, Poisson tables, psi mask) are published once to
POSIX shared memory, and each task carries only a small descriptor
handle — the context is never pickled on the hot path.  States are
split into many small out-degree-balanced shards that idle workers
steal from the shared queue.  Every worker runs the same deterministic
per-state search over byte-identical arrays, so the merged result dict
is bitwise identical to the serial evaluation; only the per-state
``omega_evaluations`` diagnostics reflect each worker's own memo
locality.  Worker counts are clamped to the machine's core count, and
on platforms without ``fork`` the fan-out falls back to the serial
loop.

All Poisson tables are evaluated in log space
(:func:`repro.numerics.poisson.poisson_pmf_table`), so the engine stays
exact-to-rounding for ``Lambda * t`` beyond ~745 where the recursive
scheme's seed ``exp(-Lambda t)`` underflows to zero — previously the
engine silently reported probability 0 with error bound 1 in that
regime.  A :class:`NumericalError` is raised only when every Poisson
weight within the explored depth range is genuinely unrepresentable in
double precision.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.check.engine_cache import EngineCache
from repro.exceptions import (
    CheckError,
    NumericalError,
)
from repro.guard import get_guard
from repro.mrm.model import MRM
from repro.obs import get_collector
from repro.numerics.orderstat import OmegaRegistry
from repro.numerics.poisson import poisson_pmf_table

__all__ = [
    "ClassTable",
    "PathEngineResult",
    "PathEngineContext",
    "prepare_path_engine",
    "joint_distribution",
    "joint_distribution_from_context",
    "joint_distribution_all",
    "joint_distribution_many",
]

_STRATEGIES = ("paths", "merged")

#: Most rows one block of the ``"paths"`` sweep expands at once.  Large
#: enough to amortize NumPy's per-call overhead, small enough that the
#: deepest-first block stack stays a bounded working set.  The
#: ``"merged"`` sweep never splits a depth.
PATHS_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class PathEngineResult:
    """Outcome of one path-engine run from one initial state.

    Attributes
    ----------
    probability:
        The estimate of ``Pr{Y(t) <= r, X(t) |= Psi}`` (eq. 4.5).
    error_bound:
        The truncation error bound of eq. (4.6): an upper bound on the
        probability mass of discarded paths that could still have
        satisfied the formula.
    paths_generated:
        Number of DFPG tree nodes expanded.
    paths_stored:
        Number of stored ``(n, k, j)`` records (path/length pairs ending
        in a ``Psi``-state).
    classes:
        Number of distinct ``(k, j)`` equivalence classes, i.e. Omega
        evaluations needed before memoization.
    max_depth:
        Length of the longest explored path.
    uniformization_rate:
        The Poisson rate ``Lambda`` used.
    omega_evaluations:
        Omega recursion nodes newly evaluated for this run.  Under a
        shared :class:`PathEngineContext` the memo tables persist across
        initial states, so later runs report fewer evaluations for the
        same classes.
    """

    probability: float
    error_bound: float
    paths_generated: int
    paths_stored: int
    classes: int
    max_depth: int
    uniformization_rate: float
    omega_evaluations: int


def _poisson_heads(lam_t: float, depth: int) -> np.ndarray:
    """``head[n] = sum_{i < n} poisson(i; lam_t)`` for ``n = 0..depth``."""
    pmf = poisson_pmf_table(lam_t, depth)
    heads = np.empty(depth + 1, dtype=float)
    heads[0] = 0.0
    np.cumsum(pmf[:-1], out=heads[1:])
    return heads


def _poisson_max_from(lam_t: float, depth: int) -> np.ndarray:
    """``maxpois[n] = max_{m >= n} poisson(m; lam_t)`` for ``n = 0..depth + 1``.

    Used by the ``"safe"`` truncation mode: since the DTMC path
    probability can only shrink, ``p_dtmc * maxpois[n]`` bounds
    ``P(sigma', t)`` for every extension ``sigma'`` of the current path.
    The pmf rises up to the Poisson mode ``floor(lam_t)`` and decreases
    beyond it, so the suffix maximum is the mode value for ``n`` at or
    below the mode and the pmf itself past it — no table beyond
    ``depth`` is ever materialized, even when the mode lies far past it.
    """
    values = poisson_pmf_table(lam_t, depth + 1)
    mode = int(lam_t)
    if mode <= depth + 1:
        peak = float(values[mode])
    else:
        log_peak = -lam_t + mode * math.log(lam_t) - math.lgamma(mode + 1)
        peak = math.exp(log_peak)
    cutoff = min(mode, depth + 1)
    values[: cutoff + 1] = peak
    return values


def _max_useful_depth(lam_t: float, w: float, start: float = 1.0) -> int:
    """Smallest depth beyond which ``poisson(n) * start`` stays below ``w``.

    Since the DTMC path probability only shrinks, no path can survive the
    truncation test past this depth.  Used to pre-size the Poisson tables.
    The scan runs in log space so it remains exact for ``lam_t`` far past
    the ``exp(-lam_t)`` underflow point.
    """
    if w <= 0.0 or start <= 0.0:
        raise NumericalError("depth search requires positive w and start")
    if lam_t == 0.0:
        return 1
    log_limit = math.log(w) - math.log(start)
    log_lam_t = math.log(lam_t)
    log_term = -lam_t
    n = 0
    best_exceeded = 0
    while True:
        if log_term >= log_limit:
            best_exceeded = n
        n += 1
        log_term += log_lam_t - math.log(n)
        if n > lam_t and log_term < log_limit:
            return max(best_exceeded + 1, n)
        if n > 10_000_000:  # pragma: no cover - defensive
            raise NumericalError("Poisson depth search failed to terminate")


class ClassTable:
    """Integer interning of ``(k, j)`` reward characterizations.

    Every distinct pair of sojourn-count vector ``k`` and impulse-count
    vector ``j`` (the equivalence classes of eq. 4.9 — paths with equal
    characterization have equal conditional probability) is assigned a
    dense id ``0, 1, 2, ...`` in first-seen order.  The count vectors
    live in two growing row-major int64 matrices, so whole frontiers of
    classes can be gathered with one fancy-indexing call.

    Child classes derive incrementally: extending a path by a transition
    into a state of reward level ``l`` carrying impulse level ``i``
    increments ``k[l]`` and ``j[i]`` — a *move* ``m = l * J + i``.  The
    table memoizes ``children[class, move]``, so deriving the child of
    an already-seen ``(class, move)`` pair is a single O(1) array
    lookup, and :meth:`children` resolves a whole expansion batch with
    one gather plus a Python loop over only the never-seen pairs.
    """

    def __init__(self, num_levels: int, num_impulses: int) -> None:
        if num_levels < 1 or num_impulses < 1:
            raise CheckError(
                "a class table needs at least one reward and one impulse level"
            )
        self.num_levels = int(num_levels)
        self.num_impulses = int(num_impulses)
        self.num_moves = self.num_levels * self.num_impulses
        capacity = 64
        self._k = np.zeros((capacity, self.num_levels), dtype=np.int64)
        self._j = np.zeros((capacity, self.num_impulses), dtype=np.int64)
        self._children = np.full((capacity, self.num_moves), -1, dtype=np.int64)
        # Content index: raw little-endian bytes of the concatenated
        # (k, j) int64 row -> class id.  Bytes keys make bulk interning
        # one ``tobytes`` per row instead of two tuple conversions.
        self._index: Dict[bytes, int] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._k.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity)
        for name, fill in (("_k", 0), ("_j", 0), ("_children", -1)):
            old = getattr(self, name)
            fresh = np.full((new_capacity, old.shape[1]), fill, dtype=np.int64)
            fresh[: self._size] = old[: self._size]
            setattr(self, name, fresh)

    def intern(self, k, j) -> int:
        """Id of the class ``(k, j)``, assigning a fresh one if unseen."""
        k_row = np.asarray(k, dtype=np.int64)
        j_row = np.asarray(j, dtype=np.int64)
        if k_row.shape != (self.num_levels,) or j_row.shape != (self.num_impulses,):
            raise CheckError("class characterization has the wrong shape")
        key = k_row.tobytes() + j_row.tobytes()
        class_id = self._index.get(key)
        if class_id is not None:
            return class_id
        class_id = self._size
        self._ensure_capacity(class_id + 1)
        self._k[class_id] = k_row
        self._j[class_id] = j_row
        self._index[key] = class_id
        self._size += 1
        return class_id

    def root(self, level: int) -> int:
        """Id of the empty-path class starting at reward level ``level``."""
        k = [0] * self.num_levels
        k[int(level)] = 1
        return self.intern(k, [0] * self.num_impulses)

    def children(self, parents: np.ndarray, moves: np.ndarray) -> np.ndarray:
        """Vectorized child-class derivation for a batch of expansions.

        ``parents[i]`` is a class id and ``moves[i] = level * J + impulse``
        encodes the transition taken; returns the child class ids.  Only
        the distinct never-seen ``(parent, move)`` pairs fall back to
        interning — everything else is one array gather.
        """
        out = self._children[parents, moves]
        missing = out < 0
        if missing.any():
            pairs = np.unique(
                parents[missing] * np.int64(self.num_moves) + moves[missing]
            )
            miss_parents, miss_moves = np.divmod(pairs, np.int64(self.num_moves))
            levels, impulses = np.divmod(miss_moves, np.int64(self.num_impulses))
            rows = np.arange(pairs.size)
            child_k = self._k[miss_parents]
            child_k[rows, levels] += 1
            child_j = self._j[miss_parents]
            child_j[rows, impulses] += 1
            self._children[miss_parents, miss_moves] = self._intern_rows(
                child_k, child_j
            )
            out = self._children[parents, moves]
        return out

    def _intern_rows(self, k_rows: np.ndarray, j_rows: np.ndarray) -> np.ndarray:
        """Bulk :meth:`intern`: one id per row pair, appending unseen rows.

        The only per-row Python work is a ``tobytes`` + dict probe on the
        concatenated characterization; fresh rows are appended to the
        backing arrays in one slice assignment.
        """
        combined = np.ascontiguousarray(
            np.concatenate((k_rows, j_rows), axis=1), dtype=np.int64
        )
        index = self._index
        ids = np.empty(combined.shape[0], dtype=np.int64)
        fresh_rows = []
        next_id = self._size
        for pos, row in enumerate(combined):
            key = row.tobytes()
            class_id = index.get(key)
            if class_id is None:
                class_id = next_id
                index[key] = class_id
                fresh_rows.append(pos)
                next_id += 1
            ids[pos] = class_id
        if fresh_rows:
            self._ensure_capacity(next_id)
            block = combined[fresh_rows]
            self._k[self._size : next_id] = block[:, : self.num_levels]
            self._j[self._size : next_id] = block[:, self.num_levels :]
            self._size = next_id
        return ids

    def k_rows(self, class_ids: np.ndarray) -> np.ndarray:
        """Sojourn-count vectors of the given classes (one row each)."""
        return self._k[class_ids]

    def j_rows(self, class_ids: np.ndarray) -> np.ndarray:
        """Impulse-count vectors of the given classes (one row each)."""
        return self._j[class_ids]


@dataclass
class PathEngineContext:
    """Initial-state-independent precomputation for one P2 formula.

    Built once by :func:`prepare_path_engine` and reused by every
    :func:`joint_distribution_from_context` call: the uniformized
    process, successor tables, reward-level indexing, Poisson
    pmf/head/max tables and the Omega calculators (whose memo tables are
    keyed by threshold and grow monotonically across runs).

    The successor structure is flat CSR arrays (``succ_indptr[s] ..
    succ_indptr[s + 1]`` index the out-edges of ``s``; dead targets are
    dropped, matching the search's pruning) with per-edge *move* codes,
    and a :class:`ClassTable` interns the reward classes of models too
    wide to pack — both persist across initial states, so classes
    recurring between starts keep their ids and child derivations.
    """

    psi: frozenset
    dead: frozenset
    state_level: List[int]
    reward_levels: List[float]
    impulse_levels: List[float]
    time_bound: float
    reward_bound: float
    rate: float
    lam_t: float
    w: float
    depth_limit: Optional[int]
    strategy: str
    truncation: str
    pmf: np.ndarray
    heads: np.ndarray
    maxpois: Optional[np.ndarray]
    num_states: int
    calculators: Optional[OmegaRegistry] = None
    succ_indptr: Optional[np.ndarray] = None
    succ_targets: Optional[np.ndarray] = None
    succ_probs: Optional[np.ndarray] = None
    succ_moves: Optional[np.ndarray] = None
    psi_mask: Optional[np.ndarray] = None
    class_table: Optional[ClassTable] = None


def prepare_path_engine(
    model: MRM,
    psi_states: AbstractSet[int],
    time_bound: float,
    reward_bound: float,
    truncation_probability: float = 1e-8,
    dead_states: Optional[AbstractSet[int]] = None,
    depth_limit: Optional[int] = None,
    strategy: str = "paths",
    truncation: str = "safe",
    uniformization_rate: Optional[float] = None,
    cache: Optional[EngineCache] = None,
) -> PathEngineContext:
    """Validate the query and build the shared :class:`PathEngineContext`.

    Parameters are those of :func:`joint_distribution` minus the initial
    state; see there for their meaning.  The model is used as given —
    callers evaluating an until formula must apply
    :meth:`repro.mrm.MRM.make_absorbing` first (Theorems 4.1/4.3).

    When an :class:`~repro.check.engine_cache.EngineCache` is supplied
    the whole context is cached under the model fingerprint plus the
    formula-relevant parameters, the Poisson tables are shared across
    contexts with equal ``Lambda * t``, and the Omega memo tables are
    shared across every formula with the same distinct-reward levels —
    so repeated checks against the same (transformed) model skip the
    precomputation and start from warm memos.
    """
    if time_bound <= 0:
        raise CheckError("time bound must be positive")
    if reward_bound < 0:
        raise CheckError("reward bound must be non-negative")
    if truncation_probability < 0:
        raise CheckError("truncation probability must be non-negative")
    if truncation_probability == 0.0 and depth_limit is None:
        raise CheckError(
            "either a positive truncation probability or a depth limit is "
            "required for the search to terminate"
        )
    if strategy not in _STRATEGIES:
        raise CheckError(f"unknown path-engine strategy {strategy!r}")
    if truncation not in ("paper", "safe"):
        raise CheckError(f"unknown truncation mode {truncation!r}")
    psi = frozenset(int(s) for s in psi_states)
    dead = frozenset(int(s) for s in dead_states) if dead_states else frozenset()

    def build() -> PathEngineContext:
        return _build_context(
            model,
            psi,
            dead,
            float(time_bound),
            float(reward_bound),
            float(truncation_probability),
            depth_limit,
            strategy,
            truncation,
            uniformization_rate,
            cache,
        )

    if cache is None:
        return build()
    key = (
        "path-context",
        model.fingerprint(),
        psi,
        dead,
        float(time_bound),
        float(reward_bound),
        float(truncation_probability),
        depth_limit,
        strategy,
        truncation,
        uniformization_rate,
    )
    return cache.get_or_build(key, build)


def _build_context(
    model: MRM,
    psi: frozenset,
    dead: frozenset,
    time_bound: float,
    reward_bound: float,
    w: float,
    depth_limit: Optional[int],
    strategy: str,
    truncation: str,
    uniformization_rate: Optional[float],
    cache: Optional[EngineCache],
) -> PathEngineContext:
    """The actual context construction behind :func:`prepare_path_engine`."""
    with get_collector().span("until.prepare"):
        return _build_context_timed(
            model,
            psi,
            dead,
            time_bound,
            reward_bound,
            w,
            depth_limit,
            strategy,
            truncation,
            uniformization_rate,
            cache,
        )


def _build_context_timed(
    model: MRM,
    psi: frozenset,
    dead: frozenset,
    time_bound: float,
    reward_bound: float,
    w: float,
    depth_limit: Optional[int],
    strategy: str,
    truncation: str,
    uniformization_rate: Optional[float],
    cache: Optional[EngineCache],
) -> PathEngineContext:
    n_states = model.num_states
    process = model.uniformize(uniformization_rate)
    lam = process.rate
    lam_t = lam * time_bound

    reward_levels = model.distinct_state_rewards()
    impulse_levels = model.distinct_impulse_rewards()
    level_index = {level: i for i, level in enumerate(reward_levels)}
    state_level = [level_index[model.state_reward(s)] for s in range(n_states)]

    max_depth_cap = (
        depth_limit if depth_limit is not None else _max_useful_depth(lam_t, w)
    )
    if cache is None:
        pmf = poisson_pmf_table(lam_t, max_depth_cap + 1)
    else:
        pmf = cache.get_or_build(
            ("poisson-pmf", lam_t, max_depth_cap + 1),
            lambda: poisson_pmf_table(lam_t, max_depth_cap + 1),
        )
    if lam_t > 0.0 and float(pmf.max()) == 0.0:
        raise NumericalError(
            f"every Poisson weight up to depth {max_depth_cap + 1} underflows "
            f"at Lambda*t = {lam_t:g}; the result is not representable in "
            "double precision (raise the depth limit past the Poisson mode "
            f"~{int(lam_t)})"
        )
    heads = np.empty(max_depth_cap + 2, dtype=float)
    heads[0] = 0.0
    np.cumsum(pmf[:-1], out=heads[1:])
    if truncation != "safe":
        maxpois = None
    elif cache is None:
        maxpois = _poisson_max_from(lam_t, max_depth_cap + 1)
    else:
        maxpois = cache.get_or_build(
            ("poisson-max", lam_t, max_depth_cap + 1),
            lambda: _poisson_max_from(lam_t, max_depth_cap + 1),
        )

    # Flat CSR successor structure, read straight off the uniformized
    # DTMC's sparse matrix: zero entries and dead targets are dropped
    # (the searches never enter them), and every edge carries its move
    # code (target reward level x impulse level).  The self-loops that
    # uniformization adds carry no impulse.
    matrix = process.dtmc.matrix
    sources = np.repeat(np.arange(n_states), np.diff(matrix.indptr))
    targets = matrix.indices.astype(np.int64)
    probs = np.asarray(matrix.data, dtype=float)
    dead_mask = np.zeros(n_states, dtype=bool)
    dead_mask[list(dead)] = True
    keep = (probs > 0.0) & ~dead_mask[targets]
    sources, targets, probs = sources[keep], targets[keep], probs[keep]
    impulses = np.asarray(model.impulse_rewards[sources, targets], dtype=float)
    impulses = impulses.reshape(-1)
    impulses[sources == targets] = 0.0
    num_impulses = len(impulse_levels)
    impulse_idx = np.searchsorted(-np.asarray(impulse_levels), -impulses)
    levels = np.asarray(state_level, dtype=np.int64)
    moves = levels[targets] * num_impulses + impulse_idx
    indptr = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n_states), out=indptr[1:])
    psi_mask = np.zeros(n_states, dtype=bool)
    psi_mask[list(psi)] = True

    if cache is None:
        calculators = OmegaRegistry.for_reward_levels(reward_levels)
    else:
        calculators = cache.calculators_for(reward_levels)

    return PathEngineContext(
        psi=psi,
        dead=dead,
        state_level=state_level,
        reward_levels=reward_levels,
        impulse_levels=impulse_levels,
        time_bound=time_bound,
        reward_bound=reward_bound,
        rate=lam,
        lam_t=lam_t,
        w=w,
        depth_limit=depth_limit,
        strategy=strategy,
        truncation=truncation,
        pmf=pmf,
        heads=heads,
        maxpois=maxpois,
        num_states=n_states,
        calculators=calculators,
        succ_indptr=indptr,
        succ_targets=targets,
        succ_probs=probs,
        succ_moves=moves,
        psi_mask=psi_mask,
        class_table=ClassTable(len(reward_levels), num_impulses),
    )


def joint_distribution_from_context(
    context: PathEngineContext, initial_state: int
) -> PathEngineResult:
    """Run the configured search from one initial state against a context.

    The heavy per-formula precomputation lives in the context; this call
    performs only the frontier sweep and the Omega combination.  Omega
    memo tables persist inside the context, so evaluating many initial
    states shares their work.
    """
    if not 0 <= int(initial_state) < context.num_states:
        raise CheckError(f"initial state {initial_state} out of range")
    obs = get_collector()
    with obs.span("until.frontier", state=int(initial_state)):
        k_rows, j_rows, agg_mass, error_bound, generated, stored, max_depth = (
            _run_paths_sweep(int(initial_state), context)
        )
    with obs.span("until.omega", state=int(initial_state)):
        probability, classes, omega_evals = _combine_with_omega_matrix(
            k_rows,
            j_rows,
            agg_mass,
            context.reward_levels,
            context.impulse_levels,
            context.time_bound,
            context.reward_bound,
            context.calculators,
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


def joint_distribution(
    model: MRM,
    initial_state: int,
    psi_states: AbstractSet[int],
    time_bound: float,
    reward_bound: float,
    truncation_probability: float = 1e-8,
    dead_states: Optional[AbstractSet[int]] = None,
    depth_limit: Optional[int] = None,
    strategy: str = "paths",
    truncation: str = "safe",
    uniformization_rate: Optional[float] = None,
) -> PathEngineResult:
    """``Pr{Y(t) <= r, X(t) in psi_states}`` from ``initial_state``.

    The model is used as given — callers that evaluate an until formula
    must apply :meth:`repro.mrm.MRM.make_absorbing` first (Theorems
    4.1/4.3); see :func:`repro.check.until.until_probability`.  To
    evaluate many initial states of the same formula, prefer
    :func:`joint_distribution_all` (or an explicit
    :func:`prepare_path_engine` context), which shares the
    precomputation.

    Parameters
    ----------
    model:
        The (already transformed) MRM.
    initial_state:
        The starting state ``s_0`` (point-mass initial distribution).
    psi_states:
        The target set; a path contributes when its last state lies here.
    time_bound, reward_bound:
        ``t > 0`` and ``r >= 0`` of ``Pr{Y(t) <= r, ...}``.
    truncation_probability:
        The path-truncation threshold ``w`` (Definition 4.6).  Must be
        positive unless a ``depth_limit`` bounds the search instead.
    dead_states:
        States whose subtrees cannot contribute (the ``(!Phi and !Psi)``
        states of Algorithm 4.7); exploration prunes there and the error
        bound excludes them per eq. (4.6).
    depth_limit:
        Optional maximal path length ``N`` — the *depth truncation* of
        eq. (4.3).  May be combined with path truncation.
    strategy:
        ``"paths"`` — the paper's path generation (Algorithm 4.7): the
        same path set and the same per-path truncation as its DFS, run
        as a deepest-first columnar sweep over unmerged tree rows, so
        only the traversal order differs; ``"merged"`` — a
        dynamic-programming variant of the same sweep that advances one
        whole depth at a time and aggregates probability mass per
        ``(state, k, j)`` before applying the truncation test, which
        prunes strictly less at equal ``w`` (its error bound still
        covers exactly what was discarded).  See the module docstring.
    truncation:
        How the test ``p < w`` of Algorithm 4.7 is applied.

        * ``"paper"`` — literally on ``P(sigma, t) = poisson(n) P(sigma)``.
          Because the Poisson weight first *rises* with ``n`` (up to the
          mode ``Lambda t``), this can discard a subtree whose deeper
          extensions carry far more probability than the current node;
          for ``exp(-Lambda t) < w`` even the empty path is discarded.
          This is the regime behind the error blow-up of Table 5.3 and
          the paper's conclusion that the method applies only for small
          ``Lambda t``.
        * ``"safe"`` (default) — on the *supremum* of ``P(sigma', t)``
          over all extensions ``sigma'``, namely
          ``P(sigma) * max_{m >= n} poisson(m)``.  Never discards a
          subtree that still carries a node above ``w``; the reported
          error bound covers exactly what was discarded, as before.
    uniformization_rate:
        Optional explicit ``Lambda``.

    Returns
    -------
    PathEngineResult
    """
    context = prepare_path_engine(
        model,
        psi_states,
        time_bound,
        reward_bound,
        truncation_probability=truncation_probability,
        dead_states=dead_states,
        depth_limit=depth_limit,
        strategy=strategy,
        truncation=truncation,
        uniformization_rate=uniformization_rate,
    )
    return joint_distribution_from_context(context, initial_state)


def joint_distribution_all(
    model: MRM,
    initial_states: Iterable[int],
    psi_states: AbstractSet[int],
    time_bound: float,
    reward_bound: float,
    truncation_probability: float = 1e-8,
    dead_states: Optional[AbstractSet[int]] = None,
    depth_limit: Optional[int] = None,
    strategy: str = "paths",
    truncation: str = "safe",
    uniformization_rate: Optional[float] = None,
    workers: int = 0,
    cache: Optional[EngineCache] = None,
    pool: Optional["object"] = None,
) -> Dict[int, PathEngineResult]:
    """Batched evaluation: one shared context, one search per initial state.

    Returns ``{initial_state: PathEngineResult}`` with per-state
    diagnostics intact.  Values are bitwise identical to running
    :func:`joint_distribution` per state (the searches are independent;
    the shared Omega memo tables return the same memoized values).

    ``workers > 1`` shards the initial states over the persistent worker
    pool (see :func:`joint_distribution_many`); ``cache`` reuses/persists
    the precomputation across calls (see :func:`prepare_path_engine`)
    and ``pool`` selects an explicit
    :class:`~repro.check.pool.PersistentWorkerPool` (the cache's own
    pool when checking through an :class:`~repro.check.engine_cache.\
EngineCache`; the process-wide default otherwise).
    """
    context = prepare_path_engine(
        model,
        psi_states,
        time_bound,
        reward_bound,
        truncation_probability=truncation_probability,
        dead_states=dead_states,
        depth_limit=depth_limit,
        strategy=strategy,
        truncation=truncation,
        uniformization_rate=uniformization_rate,
        cache=cache,
    )
    return joint_distribution_many(
        context, initial_states, workers=workers, pool=pool
    )


#: Wall-clock watchdog per pool attempt.  Generous — it exists to catch
#: a hung worker (deadlocked fork, stuck allocator), not a slow one;
#: genuinely slow shards are the ambient guard's business.  Enforced as
#: one absolute deadline across all of an attempt's shards, so k hung
#: shards cost one timeout, not k.
DEFAULT_SHARD_TIMEOUT_S = 600.0

#: Pool submissions per shard before it is re-executed serially: the
#: first attempt plus this many re-submissions to a fresh pool.
POOL_RETRIES = 1


def joint_distribution_many(
    context: PathEngineContext,
    initial_states: Iterable[int],
    workers: int = 0,
    shard_timeout_s: Optional[float] = None,
    pool: Optional["object"] = None,
) -> Dict[int, PathEngineResult]:
    """Run the search for many initial states against one shared context.

    With ``workers <= 1`` this is the serial loop of
    :func:`joint_distribution_all`.  With ``workers > 1`` the states are
    split into many small cost-balanced shards (out-degree frontier
    estimates, about four per worker) and drained by a **persistent**
    ``fork``-based worker pool (:mod:`repro.check.pool`): workers are
    forked once per process and reused across calls, the context's large
    arrays are published once to POSIX shared memory, and each task
    ships only a small descriptor handle — the context is *never*
    pickled on this path.  Idle workers steal the next shard from the
    shared queue, so one expensive state no longer drags a rigid
    ``len/workers`` slice behind it.  The merged dict (probabilities,
    error bounds, path counts) is bitwise identical to the serial
    evaluation — the per-state search does not depend on the memo state,
    which only shortcuts work.  Only the per-state ``omega_evaluations``
    diagnostics differ: serially they reflect one memo warmed
    left-to-right, in parallel each shard warms its own.  Platforms
    without the ``fork`` start method fall back to the serial loop.

    ``workers`` is clamped to ``os.cpu_count()`` — oversubscribing cores
    only re-creates the regression this pool replaced — and a
    ``pool.workers-clamped`` event records any clamp on the ambient
    collector.  ``pool`` selects the :class:`repro.check.pool.\
PersistentWorkerPool` to run on (e.g. the one owned by an
    :class:`~repro.check.engine_cache.EngineCache`); by default the
    process-wide pool is used.

    The pool is fault tolerant.  Each attempt runs under one *absolute*
    watchdog deadline (``shard_timeout_s``, default
    :data:`DEFAULT_SHARD_TIMEOUT_S`, clipped to the ambient guard's
    remaining deadline) covering all of its shards; a worker that dies
    mid-shard — OOM-kill, nonzero exit, crashing initializer — is
    detected instead of hanging the parent.  Failed shards are
    re-submitted to a rebuilt pool up to :data:`POOL_RETRIES` times and
    finally re-executed serially in the parent, so the merged result is
    still bitwise identical to the all-serial run.  Every recovery is
    recorded as a ``pool.worker-failure`` event on the ambient collector
    (with the shard index and the pool's worker pids); only a failure of
    the serial re-execution itself can raise, and guard trips inside
    workers propagate unchanged (they belong to the degradation cascade,
    not to pool recovery).

    When the ambient collector is recording, each worker records its
    shard under its own collector and ships the snapshot back with the
    results; the parent merges them (clock-offset normalized, worker
    pids preserved) so the run yields one trace spanning every process.
    A killed worker ships nothing — its shard is *flagged* through the
    failure event instead of a partial trace being merged.
    """
    states = [int(state) for state in initial_states]
    requested = int(workers or 0)
    obs = get_collector()
    use_pool = (
        requested > 1
        and len(states) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    workers = requested
    if use_pool:
        from repro.check import pool as pool_module

        effective, cpu = pool_module.effective_workers(requested)
        if effective < requested and obs.enabled:
            obs.event(
                "pool.workers-clamped",
                requested=requested,
                cpu_count=cpu,
                effective=max(effective, 1),
            )
        workers = min(effective, len(states))
        use_pool = workers > 1
    if not use_pool:
        return {
            state: joint_distribution_from_context(context, state)
            for state in states
        }
    worker_pool = pool if pool is not None else pool_module.default_pool()
    shards = pool_module.plan_shards(context, states, workers)
    timeout_s = (
        DEFAULT_SHARD_TIMEOUT_S if shard_timeout_s is None else float(shard_timeout_s)
    )
    guard = get_guard()
    remaining = guard.remaining_time()
    if remaining is not None:
        # A shard has no business outliving the run's deadline; the
        # slack lets workers trip their own checkpoints (and report a
        # proper GuardExceeded) before the watchdog fires.
        timeout_s = min(timeout_s, remaining + 5.0)

    results: Dict[int, PathEngineResult] = {}
    pending = list(enumerate(shards))
    total_failures = 0
    for attempt in range(1 + POOL_RETRIES):
        parts, snapshots, failures, pool_pids = worker_pool.run_shards(
            context, pending, timeout_s, workers
        )
        results.update(parts)
        if obs.enabled:
            # Fold each surviving worker's telemetry into the parent
            # trace (clock-offset normalized; worker spans keep their
            # pid).  Failed shards shipped nothing — their partial
            # traces are flagged below, never merged.
            for snapshot in snapshots:
                obs.merge_snapshot(snapshot)
        if not failures:
            if obs.enabled and total_failures:
                obs.annotate(pool_failures=total_failures)
            return results
        total_failures += len(failures)
        retrying = attempt < POOL_RETRIES
        if obs.enabled:
            for index, shard, error in failures:
                obs.counter_add("pool.worker-failures")
                obs.event(
                    "pool.worker-failure",
                    reason=str(error),
                    shard=list(shard),
                    shard_index=int(index),
                    worker_pids=[int(pid) for pid in pool_pids],
                    recovery="pool-retry" if retrying else "serial",
                )
        pending = [(index, shard) for index, shard, _ in failures]
        if not retrying:
            break
    # Serial re-execution of the still-failing shards: deterministic,
    # identical numbers, no pool machinery left to fail.
    for index, shard in pending:
        if obs.enabled:
            obs.event(
                "pool.serial-reexecution",
                shard=list(shard),
                shard_index=int(index),
            )
        for state in shard:
            results[state] = joint_distribution_from_context(context, state)
    if obs.enabled and total_failures:
        obs.annotate(pool_failures=total_failures)
    return results


def _class_packing(context: PathEngineContext) -> Optional[Tuple[int, int]]:
    """Bit-field layout for packing ``(k, j)`` into at most two int64s.

    The search depth is hard-bounded by the Poisson table length: in
    ``"paper"`` mode every weight past the table is 0.0, in ``"safe"``
    mode the final suffix maximum is (by construction of the table
    sizing in ``_max_useful_depth``) already below ``w``, and an explicit
    ``depth_limit`` shortens the table to match.  Every count entry is
    therefore at most ``len(pmf) + 1``, so each field needs a fixed known
    number of bits.  Returns ``(bits, fields_per_word)`` when all
    ``num_levels + num_impulses`` fields fit into two 63-bit words, or
    ``None`` (caller falls back to :class:`ClassTable` interning).
    """
    bits = (len(context.pmf) + 2).bit_length()
    fields = len(context.reward_levels) + len(context.impulse_levels)
    fields_per_word = 63 // bits
    if fields > 2 * fields_per_word:
        return None
    return bits, fields_per_word


def _field_increment(field: int, bits: int, fields_per_word: int) -> Tuple[int, int]:
    """The two class words of a single count in field ``field``.

    Field ``f`` (k fields first, then j fields) lives in word
    ``f // fields_per_word`` at bit offset ``(f % fields_per_word) * bits``.
    """
    word, slot = divmod(field, fields_per_word)
    value = 1 << (slot * bits)
    return (value, 0) if word == 0 else (0, value)


def _move_words(
    context: PathEngineContext, bits: int, fields_per_word: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-move word increments: ``move = level * J + impulse`` adds one
    to ``k[level]`` and one to ``j[impulse]``."""
    num_levels = len(context.reward_levels)
    num_impulses = len(context.impulse_levels)
    move_lo = np.zeros(num_levels * num_impulses, dtype=np.int64)
    move_hi = np.zeros(num_levels * num_impulses, dtype=np.int64)
    for level in range(num_levels):
        k_lo, k_hi = _field_increment(level, bits, fields_per_word)
        for impulse in range(num_impulses):
            j_lo, j_hi = _field_increment(num_levels + impulse, bits, fields_per_word)
            move = level * num_impulses + impulse
            move_lo[move] = k_lo + j_lo
            move_hi[move] = k_hi + j_hi
    return move_lo, move_hi


def _unpack_words(
    class_lo: np.ndarray,
    class_hi: np.ndarray,
    bits: int,
    fields_per_word: int,
    num_levels: int,
    num_impulses: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Unpack class words back into ``(k_rows, j_rows)`` count matrices."""
    field_mask = np.int64((1 << bits) - 1)
    k_rows = np.empty((class_lo.size, num_levels), dtype=np.int64)
    j_rows = np.empty((class_lo.size, num_impulses), dtype=np.int64)
    for field in range(num_levels + num_impulses):
        word, slot = divmod(field, fields_per_word)
        source = class_lo if word == 0 else class_hi
        column = (source >> np.int64(slot * bits)) & field_mask
        if field < num_levels:
            k_rows[:, field] = column
        else:
            j_rows[:, field - num_levels] = column
    return k_rows, j_rows


def _no_classes(context: PathEngineContext) -> Tuple[np.ndarray, np.ndarray]:
    k_rows = np.empty((0, len(context.reward_levels)), dtype=np.int64)
    j_rows = np.empty((0, len(context.impulse_levels)), dtype=np.int64)
    return k_rows, j_rows


class _PackedClasses:
    """Row class keys as two bit-packed int64 words (see :func:`_class_packing`)."""

    def __init__(self, context: PathEngineContext, bits: int, fields_per_word: int):
        self._bits = bits
        self._fields_per_word = fields_per_word
        self._num_levels = len(context.reward_levels)
        self._num_impulses = len(context.impulse_levels)
        self._move_lo, self._move_hi = _move_words(context, bits, fields_per_word)

    def root(self, level: int) -> Tuple[np.ndarray, ...]:
        lo, hi = _field_increment(level, self._bits, self._fields_per_word)
        return np.array([lo], dtype=np.int64), np.array([hi], dtype=np.int64)

    def children(
        self, keys: Tuple[np.ndarray, ...], parent: np.ndarray, moves: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        lo, hi = keys
        return lo[parent] + self._move_lo[moves], hi[parent] + self._move_hi[moves]

    def rows(self, keys: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, np.ndarray]:
        return _unpack_words(
            keys[0],
            keys[1],
            self._bits,
            self._fields_per_word,
            self._num_levels,
            self._num_impulses,
        )


class _InternedClasses:
    """Row class keys as one :class:`ClassTable` id (models too wide to pack)."""

    def __init__(self, table: ClassTable):
        self._table = table

    def root(self, level: int) -> Tuple[np.ndarray, ...]:
        return (np.array([self._table.root(level)], dtype=np.int64),)

    def children(
        self, keys: Tuple[np.ndarray, ...], parent: np.ndarray, moves: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        return (self._table.children(keys[0][parent], moves),)

    def rows(self, keys: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, np.ndarray]:
        return self._table.k_rows(keys[0]), self._table.j_rows(keys[0])


def _group_rows(
    keys: Tuple[np.ndarray, ...], mass: np.ndarray
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Sum ``mass`` per distinct key tuple (one lexsort plus ``reduceat``)."""
    order = np.lexsort(keys)
    first, *rest = sorted_keys = [column[order] for column in keys]
    boundaries = np.empty(mass.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(first[1:], first[:-1], out=boundaries[1:])
    for column in rest:
        boundaries[1:] |= column[1:] != column[:-1]
    (starts,) = boundaries.nonzero()
    return (
        tuple([column[starts] for column in sorted_keys]),
        np.add.reduceat(mass[order], starts),
    )


def _run_paths_sweep(
    initial_state: int, context: PathEngineContext
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int, int, int]:
    """The frontier sweep of both strategies (see the module docstring).

    Each row is one node of the search tree: its state, its class key
    (bit-packed ``(k, j)`` words, or a :class:`ClassTable` id when the
    counts do not fit two words) and its DTMC path probability
    ``P(sigma)``.  A block holds rows of one depth.  Popping a block
    counts its rows as generated, stores its ``Psi``-rows with weight
    ``pmf[n] P(sigma)`` and, unless the depth limit is reached, expands
    every row through the CSR successor arrays.  A child that fails the
    truncation test adds ``P(sigma') (1 - head)`` to the eq. (4.6) bound.

    ``"paths"`` tests every child on its own, exactly as the DFS tests
    it, and pushes the survivors as blocks of at most
    :data:`PATHS_BLOCK_ROWS` rows, so the stack always continues with the
    deepest rows and stays bounded like the DFS stack.  The path set,
    ``paths_generated``, ``paths_stored`` and ``max_depth`` therefore
    equal the DFS's; probability and error bound differ from it only by
    summation order.  ``"merged"`` sums the children with equal
    ``(state, class)`` first, tests the merged rows and pushes the next
    depth as one block, so every popped block is a whole depth.

    Returns ``(k_rows, j_rows, masses)`` — one row per distinct stored
    class with its Poisson-weighted mass (combine with
    :func:`_combine_with_omega_matrix`) — followed by the error bound and
    the generated, stored and maximal-depth statistics.
    """
    merge = context.strategy == "merged"
    pmf = context.pmf
    heads = context.heads
    maxpois = context.maxpois
    w = context.w
    depth_limit = context.depth_limit
    psi_mask = context.psi_mask
    indptr = context.succ_indptr
    succ_targets = context.succ_targets
    succ_probs = context.succ_probs
    succ_moves = context.succ_moves

    empty_k, empty_j = _no_classes(context)
    no_mass = np.empty(0, dtype=float)
    if initial_state in context.dead:
        return empty_k, empty_j, no_mass, 0.0, 0, 0, 0
    root_score = float(pmf[0]) if maxpois is None else float(maxpois[0])
    if root_score < w:
        # Even the empty path is truncated (Algorithm 4.7 line 1): all
        # probability mass is discarded and the error bound is total.
        return empty_k, empty_j, no_mass, 1.0, 0, 0, 0

    packing = _class_packing(context)
    classes = (
        _InternedClasses(context.class_table)
        if packing is None
        else _PackedClasses(context, *packing)
    )
    root_keys = classes.root(context.state_level[initial_state])
    # A live row holds state + mass + key words.  A stored merged row
    # holds key words + mass; the paths sweep budgets its (per-block
    # grouped) stored rows at the full row width.
    row_bytes = 16 + 8 * len(root_keys)
    stored_row_bytes = row_bytes - 8 if merge else row_bytes
    stack = [
        (0, np.array([initial_state], dtype=np.int64), root_keys, np.ones(1))
    ]
    stack_rows = 1
    stored_keys: List[Tuple[np.ndarray, ...]] = []
    stored_mass: List[np.ndarray] = []
    buffered_rows = 0

    error_bound = 0.0
    generated = 0
    stored = 0
    max_depth = 0
    pmf_count = len(pmf)
    head_count = len(heads)
    maxpois_count = 0 if maxpois is None else len(maxpois)
    guard = get_guard()
    phase = "until.columnar" if merge else "until.paths"
    obs = get_collector()
    # ``"merged"`` records one point per depth (frontier size, then the
    # bound after that depth's truncation test); ``"paths"`` records the
    # bound per popped block against the rows generated so far.
    frontier_series = obs.series("until.frontier") if merge and obs.enabled else None
    mass_series = obs.series("until.truncation-mass") if obs.enabled else None
    while stack:
        if guard.enabled:
            guard.checkpoint(
                phase,
                mem_bytes=stack_rows * row_bytes + buffered_rows * stored_row_bytes,
            )
        if mass_series is not None and not merge:
            mass_series.append(float(generated), float(error_bound))
        depth, states, keys, mass = stack.pop()
        if frontier_series is not None:
            frontier_series.append(float(depth), float(states.size))
        stack_rows -= states.size
        generated += int(states.size)
        if depth > max_depth:
            max_depth = depth
        storing = psi_mask[states]
        count = int(np.count_nonzero(storing))
        if count:
            stored += count
            poisson_here = float(pmf[depth]) if depth < pmf_count else 0.0
            block_keys = [column[storing] for column in keys]
            block_mass = mass[storing] * poisson_here
            if not merge:
                # Many paths share a class: reducing each block keeps the
                # buffer small.  Merged rows are already distinct per
                # (state, class), so they wait for the final grouping.
                block_keys, block_mass = _group_rows(block_keys, block_mass)
            stored_keys.append(block_keys)
            stored_mass.append(block_mass)
            buffered_rows += block_mass.size
        if depth_limit is not None and depth >= depth_limit:
            continue
        degrees = indptr[states + 1] - indptr[states]
        total = int(degrees.sum())
        if total == 0:
            continue
        if merge and guard.enabled:
            # The expansion materializes ~5 + len(keys) length-``total``
            # columns (parent, edges, states, mass, sort order and the
            # class keys) before the merge shrinks them.
            guard.checkpoint(
                "until.columnar.expand",
                mem_bytes=buffered_rows * stored_row_bytes
                + total * 8 * (5 + len(keys)),
            )
        next_depth = depth + 1
        parent = np.arange(states.size).repeat(degrees)
        edges = (indptr[states] - (degrees.cumsum() - degrees)).repeat(degrees)
        edges += np.arange(total)
        child_mass = mass[parent] * succ_probs[edges]
        if merge:
            # Derive every child's key, then sum equal (state, class) rows
            # so that the truncation test sees the merged mass.
            rows, child_mass = _group_rows(
                (
                    succ_targets[edges],
                    *classes.children(keys, parent, succ_moves[edges]),
                ),
                child_mass,
            )
        else:
            # Test first: a discarded child needs no key.
            rows = (parent, edges)
        # Past the end of the tables pmf scores 0.0 and maxpois clamps.
        if maxpois is None:
            ceiling = float(pmf[next_depth]) if next_depth < pmf_count else 0.0
        else:
            ceiling = float(maxpois[min(next_depth, maxpois_count - 1)])
        keep = child_mass * ceiling >= w
        if not keep.all():
            tail = 1.0 - float(heads[next_depth]) if next_depth < head_count else 1.0
            error_bound += float(child_mass[~keep].sum()) * tail
            rows = [column[keep] for column in rows]
            child_mass = child_mass[keep]
        if merge and mass_series is not None:
            mass_series.append(float(next_depth), float(error_bound))
        size = int(child_mass.size)
        if size == 0:
            continue
        stack_rows += size
        if merge:
            stack.append((next_depth, rows[0], rows[1:], child_mass))
            continue
        parent, edges = rows
        child_states = succ_targets[edges]
        child_keys = classes.children(keys, parent, succ_moves[edges])
        blocks = -(-size // PATHS_BLOCK_ROWS)
        bounds = [size * b // blocks for b in range(blocks + 1)]
        for start, end in zip(bounds[:-1], bounds[1:]):
            stack.append(
                (
                    next_depth,
                    child_states[start:end],
                    tuple([column[start:end] for column in child_keys]),
                    child_mass[start:end],
                )
            )

    if not stored_mass:
        return empty_k, empty_j, no_mass, error_bound, generated, stored, max_depth
    keys, masses = _group_rows(
        tuple(np.concatenate(column) for column in zip(*stored_keys)),
        np.concatenate(stored_mass),
    )
    k_rows, j_rows = classes.rows(keys)
    return k_rows, j_rows, masses, error_bound, generated, stored, max_depth


def _combine_with_omega_matrix(
    k_rows: np.ndarray,
    j_rows: np.ndarray,
    masses: np.ndarray,
    reward_levels: List[float],
    impulse_levels: List[float],
    time_bound: float,
    reward_bound: float,
    calculators: OmegaRegistry,
) -> Tuple[float, int, int]:
    """Combine class probabilities with ``Pr{Y(t) <= r | n, k, j}``.

    Per eqs. (4.9)/(4.10): with the distinct state rewards
    ``r_1 > ... > r_{K+1}``, group coefficients ``c_l = r_l - r_{K+1}``
    and impulse contribution ``imp = sum_l i_l j_l``, the conditional
    probability is ``Omega(r/t - r_{K+1} - imp/t, k)``.  The per-class
    thresholds are one vector expression over the count matrices, every
    class with a non-negative threshold goes through one pass of the
    shared ``calculators`` registry (whose memos are reused across
    initial states; the returned evaluation count covers only the nodes
    newly evaluated by this call), and each group of classes sharing a
    threshold is folded into the probability with one dot product.
    """
    classes = int(masses.size)
    if classes == 0:
        return 0.0, 0, 0
    smallest = reward_levels[-1]
    impulse_totals = j_rows @ np.asarray(impulse_levels, dtype=float)
    thresholds = (
        reward_bound / time_bound - smallest - impulse_totals / time_bound
    )
    # Impulses alone can exceed the reward bound: probability 0.
    live = np.flatnonzero(thresholds >= 0.0)
    values = np.zeros(classes)
    values[live], omega_evals = calculators.evaluate(k_rows[live], thresholds[live])
    probability = 0.0
    order = np.argsort(thresholds, kind="stable")
    sorted_thresholds = thresholds[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_thresholds[1:] != sorted_thresholds[:-1]]
    )
    ends = np.r_[starts[1:], np.int64(order.size)]
    for start, end in zip(starts.tolist(), ends.tolist()):
        if sorted_thresholds[start] < 0.0:
            continue
        rows = order[start:end]
        probability += float(masses[rows] @ values[rows])
    return probability, classes, omega_evals
