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

Columnar path sweep
-------------------
The ``"paths"`` strategy (the default) generates exactly Algorithm
4.7's path set with exactly its per-path truncation test, but not one
path at a time: the search tree is swept as columns of *unmerged* rows
(state, packed ``(k, j)`` class words, DTMC path probability), one row
per tree node.  A block of rows of one depth expands through the flat
CSR successor structure in a handful of array operations; every child
row is tested on its own (``pmf[n] P(sigma)`` in ``"paper"`` mode,
``maxpois[n] P(sigma)`` in ``"safe"`` mode), so no path survives or
dies differently from the DFS, and the discarded children feed the
eq. (4.6) tail exactly as there.  Blocks hold at most
:data:`PATHS_BLOCK_ROWS` rows and live on a stack that is always
drained deepest-first, which bounds the working set the way the DFS
stack does.  Rows ending in a ``Psi``-state are reduced per class within
their block and merged once at the end.  Only the traversal order (and
hence floating-point summation order) differs from the per-path DFS,
which the test suite keeps as the oracle for path counts, values and
error bounds.

Columnar merged engine
----------------------
The ``"merged"`` strategy runs as a vectorized columnar sweep: reward
characterizations ``(k, j)`` are interned to dense integer ids by a
:class:`ClassTable` (child classes derive from parent classes in O(1)
via a memoized ``(parent, move)`` table), the frontier at each depth is
three parallel NumPy arrays (state, class id, merged DTMC mass), one
depth step expands every frontier entry through a flat CSR successor
structure, merges duplicates with a lexsort + ``reduceat`` reduction
and applies the truncation test as one vectorized comparison.  The
final Omega combination evaluates every class of a start state, whatever
its threshold, through one layered pass of
:meth:`repro.numerics.orderstat.OmegaRegistry.evaluate` and folds each
threshold's classes into the probability with a dot product.  The
previous dict-of-tuples implementation remains available as strategy
``"merged-legacy"`` for ablation and equivalence testing; both compute
the same aggregation (class ids are in bijection with the ``(k, j)``
tuples), so they agree to summation-order rounding.

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

from repro import kernels as kernels_mod
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

_STRATEGIES = ("paths", "merged", "merged-legacy")

#: Most rows one block of the ``"paths"`` sweep expands at once.  Large
#: enough to amortize NumPy's per-call overhead, small enough that the
#: deepest-first block stack stays a bounded working set.
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

    def key_of(self, class_id: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The ``(k, j)`` tuple pair a class id stands for."""
        if not 0 <= int(class_id) < self._size:
            raise CheckError(f"class id {class_id} out of range")
        return (
            tuple(int(v) for v in self._k[int(class_id)]),
            tuple(int(v) for v in self._j[int(class_id)]),
        )


@dataclass
class PathEngineContext:
    """Initial-state-independent precomputation for one P2 formula.

    Built once by :func:`prepare_path_engine` and reused by every
    :func:`joint_distribution_from_context` call: the uniformized
    process, successor tables, reward-level indexing, Poisson
    pmf/head/max tables and the Omega calculators (whose memo tables are
    keyed by threshold and grow monotonically across runs).

    For the columnar ``"paths"`` and ``"merged"`` sweeps the successor
    structure is additionally flattened to CSR arrays (``succ_indptr[s] ..
    succ_indptr[s + 1]`` index the out-edges of ``s``; dead targets are
    dropped, matching the search's pruning) with per-edge *move* codes,
    and a :class:`ClassTable` interns the reward classes — both persist
    across initial states, so classes recurring between starts keep
    their ids and child derivations.
    """

    psi: frozenset
    dead: frozenset
    successors: List[List[Tuple[int, float, int]]]
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
    kernels: str = "numpy"


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
    kernels: str = "auto",
) -> PathEngineContext:
    """Validate the query and build the shared :class:`PathEngineContext`.

    Parameters are those of :func:`joint_distribution` minus the initial
    state; see there for their meaning.  The model is used as given —
    callers evaluating an until formula must apply
    :meth:`repro.mrm.MRM.make_absorbing` first (Theorems 4.1/4.3).

    ``kernels`` selects the hot-loop backend (see :mod:`repro.kernels`):
    the name is resolved here — ``"auto"`` becomes ``"numba"`` or
    ``"numpy"`` — a ``kernels.backend`` obs event records the choice
    (plus the one-off JIT compile time when this process compiled the
    set), and the resolved name travels inside the context so every
    search, including pool workers, uses the same backend.

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

    resolved_kernels = kernels_mod.resolve_backend(kernels)
    obs = get_collector()
    if obs.enabled:
        kernel_set = kernels_mod.active_kernels(resolved_kernels)
        obs.event(
            "kernels.backend",
            requested=kernels,
            backend=resolved_kernels,
            compile_seconds=(
                kernel_set.compile_seconds if kernel_set is not None else 0.0
            ),
        )
        obs.annotate(kernels=resolved_kernels)
    if cache is not None and resolved_kernels != "numpy":
        # Reference the process-wide kernel set from the cache so its
        # lifetime (and /cache introspection) covers the compiled code
        # alongside the contexts it accelerates.
        cache.get_or_build(
            ("kernels", resolved_kernels),
            lambda: kernels_mod.kernel_set(resolved_kernels),
        )

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
            resolved_kernels,
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
        resolved_kernels,
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
    kernels: str = "numpy",
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
            kernels,
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
    kernels: str = "numpy",
) -> PathEngineContext:
    n_states = model.num_states
    process = model.uniformize(uniformization_rate)
    lam = process.rate
    lam_t = lam * time_bound

    reward_levels = model.distinct_state_rewards()
    impulse_levels = model.distinct_impulse_rewards()
    level_index = {level: i for i, level in enumerate(reward_levels)}
    impulse_index = {level: i for i, level in enumerate(impulse_levels)}
    state_level = [level_index[model.state_reward(s)] for s in range(n_states)]

    # Successor tables for the uniformized DTMC: per state, a list of
    # (successor, probability, impulse-level index).
    matrix = process.dtmc.matrix
    successors: List[List[Tuple[int, float, int]]] = []
    for state in range(n_states):
        entries: List[Tuple[int, float, int]] = []
        for pos in range(matrix.indptr[state], matrix.indptr[state + 1]):
            target = int(matrix.indices[pos])
            probability = float(matrix.data[pos])
            if probability <= 0.0:
                continue
            impulse = process.impulse_reward(state, target)
            entries.append((target, probability, impulse_index[impulse]))
        successors.append(entries)

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

    # Flat CSR successor structure for the columnar engine, with dead
    # targets dropped (the searches never enter them) and per-edge move
    # codes (target reward level x impulse level).
    num_impulses = len(impulse_levels)
    indptr = np.zeros(n_states + 1, dtype=np.int64)
    flat_targets: List[int] = []
    flat_probs: List[float] = []
    flat_moves: List[int] = []
    for state in range(n_states):
        for target, probability, impulse_idx in successors[state]:
            if target in dead:
                continue
            flat_targets.append(target)
            flat_probs.append(probability)
            flat_moves.append(state_level[target] * num_impulses + impulse_idx)
        indptr[state + 1] = len(flat_targets)
    psi_mask = np.zeros(n_states, dtype=bool)
    for state in psi:
        psi_mask[state] = True

    if cache is None:
        calculators = OmegaRegistry.for_reward_levels(reward_levels)
    else:
        calculators = cache.calculators_for(reward_levels)

    return PathEngineContext(
        psi=psi,
        dead=dead,
        successors=successors,
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
        succ_targets=np.asarray(flat_targets, dtype=np.int64),
        succ_probs=np.asarray(flat_probs, dtype=float),
        succ_moves=np.asarray(flat_moves, dtype=np.int64),
        psi_mask=psi_mask,
        class_table=ClassTable(len(reward_levels), num_impulses),
        kernels=kernels,
    )


def joint_distribution_from_context(
    context: PathEngineContext, initial_state: int
) -> PathEngineResult:
    """Run the configured search from one initial state against a context.

    The heavy per-formula precomputation lives in the context; this call
    performs only the DFPG/DP search and the Omega combination.  Omega
    memo tables persist inside the context, so evaluating many initial
    states shares their work.
    """
    if not 0 <= int(initial_state) < context.num_states:
        raise CheckError(f"initial state {initial_state} out of range")
    obs = get_collector()
    if context.strategy != "merged-legacy":
        runner = (
            _run_paths_sweep if context.strategy == "paths" else _run_merged_columnar
        )
        with obs.span("until.frontier", state=int(initial_state)):
            k_rows, j_rows, agg_mass, error_bound, generated, stored, max_depth = (
                runner(int(initial_state), context)
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
    else:
        with obs.span("until.frontier", state=int(initial_state)):
            aggregated, error_bound, generated, stored, max_depth = _run_merged_dp(
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
        with obs.span("until.omega", state=int(initial_state)):
            probability, classes, omega_evals = _combine_with_omega(
                aggregated,
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
    kernels: str = "auto",
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
        as a deepest-first columnar sweep over unmerged tree rows (see
        the module docstring), so only the traversal order differs;
        ``"merged"`` — a dynamic-programming variant that aggregates
        probability mass per ``(state, k, j)`` before applying the
        truncation test, which prunes strictly less at equal ``w`` (its
        error bound still covers exactly what was discarded).  It runs
        as the vectorized columnar sweep over a :class:`ClassTable`
        (see the module docstring); ``"merged-legacy"`` selects the
        dict-of-tuples implementation of the same recursion, kept for
        ablation and equivalence testing.
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
    kernels:
        Hot-loop backend for the frontier merge of the ``merged``
        sweep: ``"auto"`` (numba when available, else the NumPy
        reference path), ``"numpy"``, ``"numba"`` or ``"python"``.
        All backends return bitwise-identical results; see
        :mod:`repro.kernels`.

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
        kernels=kernels,
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
    kernels: str = "auto",
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
        kernels=kernels,
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


def _run_merged_dp(
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
    """Breadth-first dynamic programming over ``(state, k, j)`` classes.

    Paths with equal state and equal reward characterization are merged
    *before* the truncation test, so at equal ``w`` this prunes strictly
    less than per-path truncation and yields a tighter error bound.  The
    frontier at depth ``n`` maps ``(state, k, j)`` to the merged DTMC
    probability; the Poisson weight ``pmf[n]`` is applied on storage.

    This is the legacy dict-of-tuples implementation (strategy
    ``"merged-legacy"``), kept as the reference for the vectorized
    :func:`_run_merged_columnar`, which computes the same recursion over
    interned class ids and columnar frontiers.
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
        return aggregated, 1.0, 0, 0, 0

    root_k = tuple(
        1 if i == state_level[initial_state] else 0 for i in range(num_levels)
    )
    root_j = (0,) * num_impulses
    frontier: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], float] = {
        (initial_state, root_k, root_j): 1.0
    }
    depth = 0
    head_count = len(heads)
    pmf_count = len(pmf)
    guard = get_guard()
    obs = get_collector()
    frontier_series = obs.series("until.frontier") if obs.enabled else None
    mass_series = obs.series("until.truncation-mass") if obs.enabled else None
    entry_bytes = 120 + 16 * (num_levels + num_impulses)
    while frontier:
        if guard.enabled:
            # Dict-of-tuples frontier: a rough per-entry footprint (key
            # tuple, count tuples, hash slots) keeps the estimate cheap.
            guard.checkpoint(
                "until.merged", mem_bytes=len(frontier) * entry_bytes
            )
        if frontier_series is not None:
            frontier_series.append(float(depth), float(len(frontier)))
        max_depth = depth
        poisson_here = float(pmf[depth]) if depth < pmf_count else 0.0
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
                child_dtmc = p_dtmc * probability
                level = state_level[target]
                child_k = k[:level] + (k[level] + 1,) + k[level + 1 :]
                child_j = (
                    j[:impulse_idx] + (j[impulse_idx] + 1,) + j[impulse_idx + 1 :]
                )
                key = (target, child_k, child_j)
                next_frontier[key] = next_frontier.get(key, 0.0) + child_dtmc
        # Truncation test on the merged classes.  Past the end of the
        # pmf table the Poisson weight is genuinely below every
        # representable threshold, so frontiers there score 0.0 — the
        # same convention as the path sweep (a stale last-entry lookup would
        # keep deep frontiers alive in "paper" mode and leak their mass
        # out of the error bound).
        surviving: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], float] = {}
        tail = 1.0 - heads[next_depth] if next_depth < head_count else 1.0
        poisson_next = float(pmf[next_depth]) if next_depth < pmf_count else 0.0
        ceiling = (
            None
            if maxpois is None
            else float(maxpois[min(next_depth, len(maxpois) - 1)])
        )
        for key, p_dtmc in next_frontier.items():
            score = poisson_next * p_dtmc if ceiling is None else p_dtmc * ceiling
            if score < w:
                error_bound += p_dtmc * tail
            else:
                surviving[key] = p_dtmc
        if mass_series is not None:
            mass_series.append(float(next_depth), float(error_bound))
        frontier = surviving
        depth = next_depth
    return aggregated, error_bound, generated, stored, max_depth


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


def _run_merged_columnar(
    initial_state: int, context: PathEngineContext
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int, int, int]:
    """The merged-DP recursion as a vectorized columnar sweep.

    Semantically identical to :func:`_run_merged_dp` — same frontier,
    same merge, same truncation test, same error bound — but the
    frontier at each depth is parallel arrays (state, class, merged DTMC
    mass) and every step is an array operation:

    * expansion gathers all out-edges of the frontier states through the
      context's flat CSR successor arrays (``np.repeat`` over the
      per-state degree, no per-node Python tuples);
    * class characterizations are bit-packed count vectors (two int64
      words, see :func:`_class_packing`), so deriving a child class is a
      vectorized add of the per-move field increment — no hashing or
      interning anywhere in the sweep; models whose counts do not fit
      two words fall back to :class:`ClassTable` interning;
    * duplicates merge with one ``lexsort`` over (class words, state)
      plus ``np.add.reduceat``;
    * per-depth storage appends the Poisson-weighted psi rows to a
      column buffer; one final sort-merge aggregates them per class.

    Returns ``(k_rows, j_rows, masses)`` — one row per distinct stored
    class with its Poisson-weighted mass (combine with
    :func:`_combine_with_omega_matrix`) — plus the same statistics tuple
    as the other runners.
    """
    packing = _class_packing(context)
    if packing is None:
        return _sweep_interned(initial_state, context)
    return _sweep_packed(initial_state, context, *packing)


def _no_classes(context: PathEngineContext) -> Tuple[np.ndarray, np.ndarray]:
    k_rows = np.empty((0, len(context.reward_levels)), dtype=np.int64)
    j_rows = np.empty((0, len(context.impulse_levels)), dtype=np.int64)
    return k_rows, j_rows


def _sweep_packed(
    initial_state: int, context: PathEngineContext, bits: int, fields_per_word: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int, int, int]:
    """Columnar sweep over bit-packed class words (see caller)."""
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
    num_levels = len(context.reward_levels)
    num_impulses = len(context.impulse_levels)

    empty_k, empty_j = _no_classes(context)
    no_mass = np.empty(0, dtype=float)
    if initial_state in context.dead:
        return empty_k, empty_j, no_mass, 0.0, 0, 0, 0
    root_score = float(pmf[0]) if maxpois is None else float(maxpois[0])
    if root_score < w:
        return empty_k, empty_j, no_mass, 1.0, 0, 0, 0

    move_lo, move_hi = _move_words(context, bits, fields_per_word)
    root_lo, root_hi = _field_increment(
        context.state_level[initial_state], bits, fields_per_word
    )
    states = np.array([initial_state], dtype=np.int64)
    class_lo = np.array([root_lo], dtype=np.int64)
    class_hi = np.array([root_hi], dtype=np.int64)
    mass = np.array([1.0], dtype=float)
    stored_lo: List[np.ndarray] = []
    stored_hi: List[np.ndarray] = []
    stored_mass: List[np.ndarray] = []

    error_bound = 0.0
    generated = 0
    stored = 0
    max_depth = 0
    depth = 0
    pmf_count = len(pmf)
    head_count = len(heads)
    maxpois_count = 0 if maxpois is None else len(maxpois)
    kernel = kernels_mod.active_kernels(context.kernels)
    guard = get_guard()
    obs = get_collector()
    frontier_series = obs.series("until.frontier") if obs.enabled else None
    mass_series = obs.series("until.truncation-mass") if obs.enabled else None
    stored_bytes = 0
    while states.size:
        if guard.enabled:
            # Frontier columns plus the psi column buffers accumulated
            # so far — the sweep's live working set at this depth.
            frontier_bytes = (
                states.nbytes + class_lo.nbytes + class_hi.nbytes + mass.nbytes
            )
            guard.checkpoint(
                "until.columnar", mem_bytes=frontier_bytes + stored_bytes
            )
        if frontier_series is not None:
            frontier_series.append(float(depth), float(states.size))
        max_depth = depth
        generated += int(states.size)
        poisson_here = float(pmf[depth]) if depth < pmf_count else 0.0
        storing = psi_mask[states]
        if storing.any():
            stored_lo.append(class_lo[storing])
            stored_hi.append(class_hi[storing])
            stored_mass.append(mass[storing] * poisson_here)
            stored += int(storing.sum())
            if guard.enabled:
                stored_bytes += (
                    stored_lo[-1].nbytes
                    + stored_hi[-1].nbytes
                    + stored_mass[-1].nbytes
                )
        if depth_limit is not None and depth >= depth_limit:
            break
        next_depth = depth + 1
        degrees = indptr[states + 1] - indptr[states]
        total = int(degrees.sum())
        if total == 0:
            break
        if guard.enabled:
            # The expansion materializes ~7 length-``total`` int64/float
            # columns (parent, offsets, edges, moves, states, mass, and
            # the two class words) before the merge shrinks them.
            guard.checkpoint(
                "until.columnar.expand", mem_bytes=stored_bytes + total * 8 * 7
            )
        if kernel is not None:
            # Compiled path: one fused expansion + stable-sort +
            # grouping pass (see repro.kernels).  The group reduction
            # stays on np.add.reduceat over the kernel-sorted masses so
            # the summation order is the NumPy path's by construction.
            merged_states, merged_lo, merged_hi, sorted_mass, group_starts = (
                kernel.expand_merge(
                    states,
                    class_lo,
                    class_hi,
                    mass,
                    indptr,
                    succ_targets,
                    succ_probs,
                    succ_moves,
                    move_lo,
                    move_hi,
                    total,
                )
            )
            merged_mass = np.add.reduceat(sorted_mass, group_starts)
        else:
            parent = np.repeat(np.arange(states.size), degrees)
            offsets = np.arange(total) - np.repeat(
                np.cumsum(degrees) - degrees, degrees
            )
            edges = np.repeat(indptr[states], degrees) + offsets
            moves = succ_moves[edges]
            child_states = succ_targets[edges]
            child_mass = mass[parent] * succ_probs[edges]
            child_lo = class_lo[parent] + move_lo[moves]
            child_hi = class_hi[parent] + move_hi[moves]
            # Merge equal (state, class) pairs: one lexsort groups them,
            # reduceat sums their masses.
            order = np.lexsort((child_states, child_lo, child_hi))
            sorted_states = child_states[order]
            sorted_lo = child_lo[order]
            sorted_hi = child_hi[order]
            boundaries = np.empty(total, dtype=bool)
            boundaries[0] = True
            np.not_equal(sorted_hi[1:], sorted_hi[:-1], out=boundaries[1:])
            boundaries[1:] |= sorted_lo[1:] != sorted_lo[:-1]
            boundaries[1:] |= sorted_states[1:] != sorted_states[:-1]
            group_starts = np.flatnonzero(boundaries)
            merged_mass = np.add.reduceat(child_mass[order], group_starts)
            merged_states = sorted_states[group_starts]
            merged_lo = sorted_lo[group_starts]
            merged_hi = sorted_hi[group_starts]
        # Truncation test on the merged classes (same conventions as the
        # legacy runner: pmf scores 0.0 past the table, maxpois clamps
        # to its final suffix-maximum entry).
        tail = 1.0 - float(heads[next_depth]) if next_depth < head_count else 1.0
        if maxpois is None:
            ceiling = float(pmf[next_depth]) if next_depth < pmf_count else 0.0
        else:
            ceiling = float(maxpois[min(next_depth, maxpois_count - 1)])
        keep = merged_mass * ceiling >= w
        if not keep.all():
            error_bound += float(merged_mass[~keep].sum()) * tail
            merged_states = merged_states[keep]
            merged_lo = merged_lo[keep]
            merged_hi = merged_hi[keep]
            merged_mass = merged_mass[keep]
        if mass_series is not None:
            mass_series.append(float(next_depth), float(error_bound))
        states = merged_states
        class_lo = merged_lo
        class_hi = merged_hi
        mass = merged_mass
        depth = next_depth

    if not stored_lo:
        return empty_k, empty_j, no_mass, error_bound, generated, stored, max_depth
    all_lo = np.concatenate(stored_lo)
    all_hi = np.concatenate(stored_hi)
    all_mass = np.concatenate(stored_mass)
    if kernel is not None:
        class_lo, class_hi, sorted_mass, group_starts = kernel.group_pairs(
            all_lo, all_hi, all_mass
        )
        masses = np.add.reduceat(sorted_mass, group_starts)
    else:
        (class_lo, class_hi), masses = _group_rows((all_lo, all_hi), all_mass)
    k_rows, j_rows = _unpack_words(
        class_lo, class_hi, bits, fields_per_word, num_levels, num_impulses
    )
    return k_rows, j_rows, masses, error_bound, generated, stored, max_depth


def _sweep_interned(
    initial_state: int, context: PathEngineContext
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int, int, int]:
    """Columnar sweep over :class:`ClassTable`-interned dense class ids.

    The fallback for models whose count vectors exceed two packed words
    (see :func:`_class_packing`): same frontier/merge/truncation as
    :func:`_sweep_packed`, but class identity is a dense interned id and
    child derivation goes through :meth:`ClassTable.children` (one array
    gather per already-seen ``(class, move)`` pair).
    """
    table = context.class_table
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
    num_states = np.int64(indptr.shape[0] - 1)

    empty_k, empty_j = _no_classes(context)
    no_mass = np.empty(0, dtype=float)
    error_bound = 0.0
    generated = 0
    stored = 0
    max_depth = 0

    if initial_state in context.dead:
        return empty_k, empty_j, no_mass, 0.0, 0, 0, 0
    root_score = float(pmf[0]) if maxpois is None else float(maxpois[0])
    if root_score < w:
        return empty_k, empty_j, no_mass, 1.0, 0, 0, 0

    states = np.array([initial_state], dtype=np.int64)
    class_ids = np.array(
        [table.root(context.state_level[initial_state])], dtype=np.int64
    )
    mass = np.array([1.0], dtype=float)
    stored_ids: List[np.ndarray] = []
    stored_mass: List[np.ndarray] = []
    depth = 0
    pmf_count = len(pmf)
    head_count = len(heads)
    maxpois_count = 0 if maxpois is None else len(maxpois)
    guard = get_guard()
    obs = get_collector()
    frontier_series = obs.series("until.frontier") if obs.enabled else None
    mass_series = obs.series("until.truncation-mass") if obs.enabled else None
    stored_bytes = 0
    while states.size:
        if guard.enabled:
            frontier_bytes = states.nbytes + class_ids.nbytes + mass.nbytes
            guard.checkpoint(
                "until.columnar", mem_bytes=frontier_bytes + stored_bytes
            )
        if frontier_series is not None:
            frontier_series.append(float(depth), float(states.size))
        max_depth = depth
        generated += int(states.size)
        poisson_here = float(pmf[depth]) if depth < pmf_count else 0.0
        storing = psi_mask[states]
        if storing.any():
            stored_ids.append(class_ids[storing])
            stored_mass.append(mass[storing] * poisson_here)
            stored += int(storing.sum())
            if guard.enabled:
                stored_bytes += stored_ids[-1].nbytes + stored_mass[-1].nbytes
        if depth_limit is not None and depth >= depth_limit:
            break
        next_depth = depth + 1
        degrees = indptr[states + 1] - indptr[states]
        total = int(degrees.sum())
        if total == 0:
            break
        if guard.enabled:
            guard.checkpoint(
                "until.columnar.expand", mem_bytes=stored_bytes + total * 8 * 6
            )
        parent = np.repeat(np.arange(states.size), degrees)
        offsets = np.arange(total) - np.repeat(
            np.cumsum(degrees) - degrees, degrees
        )
        edges = np.repeat(indptr[states], degrees) + offsets
        child_states = succ_targets[edges]
        child_mass = mass[parent] * succ_probs[edges]
        child_ids = table.children(class_ids[parent], succ_moves[edges])
        # Merge equal (state, class) pairs: one stable sort on the fused
        # key groups them, reduceat sums their masses.
        fused = child_ids * num_states + child_states
        order = np.argsort(fused, kind="stable")
        sorted_key = fused[order]
        boundaries = np.empty(total, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundaries[1:])
        group_starts = np.flatnonzero(boundaries)
        merged_mass = np.add.reduceat(child_mass[order], group_starts)
        leaders = order[group_starts]
        merged_states = child_states[leaders]
        merged_ids = child_ids[leaders]
        tail = 1.0 - float(heads[next_depth]) if next_depth < head_count else 1.0
        if maxpois is None:
            ceiling = float(pmf[next_depth]) if next_depth < pmf_count else 0.0
        else:
            ceiling = float(maxpois[min(next_depth, maxpois_count - 1)])
        keep = merged_mass * ceiling >= w
        if not keep.all():
            error_bound += float(merged_mass[~keep].sum()) * tail
            merged_states = merged_states[keep]
            merged_ids = merged_ids[keep]
            merged_mass = merged_mass[keep]
        if mass_series is not None:
            mass_series.append(float(next_depth), float(error_bound))
        states = merged_states
        class_ids = merged_ids
        mass = merged_mass
        depth = next_depth

    if not stored_ids:
        return empty_k, empty_j, no_mass, error_bound, generated, stored, max_depth
    (unique_ids,), masses = _group_rows(
        (np.concatenate(stored_ids),), np.concatenate(stored_mass)
    )
    return (
        table.k_rows(unique_ids),
        table.j_rows(unique_ids),
        masses,
        error_bound,
        generated,
        stored,
        max_depth,
    )


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
    sorted_keys = tuple(column[order] for column in keys)
    boundaries = np.zeros(mass.size, dtype=bool)
    boundaries[0] = True
    for column in sorted_keys:
        boundaries[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(boundaries)
    return (
        tuple(column[starts] for column in sorted_keys),
        np.add.reduceat(mass[order], starts),
    )


def _run_paths_sweep(
    initial_state: int, context: PathEngineContext
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int, int, int]:
    """Algorithm 4.7 as a deepest-first columnar sweep over unmerged rows.

    Each row is one node of the DFPG search tree: its state, its class
    key (bit-packed ``(k, j)`` words, or a :class:`ClassTable` id when
    the counts do not fit two words) and its DTMC path probability
    ``P(sigma)``.  A block holds rows of one depth.  Popping a block
    counts its rows as generated, stores its ``Psi``-rows with weight
    ``pmf[n] P(sigma)`` (reduced per class within the block) and, unless
    the depth limit is reached, expands every row through the CSR
    successor arrays.  Each child is tested on its own, exactly as the
    DFS tests it, and a discarded child adds ``P(sigma') (1 - head)`` to
    the eq. (4.6) bound.  The surviving children are pushed as blocks of
    at most :data:`PATHS_BLOCK_ROWS` rows, so the stack always continues
    with the deepest rows and stays bounded like the DFS stack.

    The path set, ``paths_generated``, ``paths_stored`` and
    ``max_depth`` therefore equal the DFS's; probability and error bound
    differ from it only by summation order.  Returns the same tuple as
    :func:`_run_merged_columnar`.
    """
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
    # state + mass + key words; the stored buffers hold keys + mass.
    row_bytes = 16 + 8 * len(root_keys)
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
    obs = get_collector()
    mass_series = obs.series("until.truncation-mass") if obs.enabled else None
    while stack:
        if guard.enabled:
            guard.checkpoint(
                "until.paths", mem_bytes=(stack_rows + buffered_rows) * row_bytes
            )
        if mass_series is not None:
            mass_series.append(float(generated), float(error_bound))
        depth, states, keys, mass = stack.pop()
        stack_rows -= states.size
        generated += int(states.size)
        if depth > max_depth:
            max_depth = depth
        storing = psi_mask[states]
        count = int(np.count_nonzero(storing))
        if count:
            stored += count
            poisson_here = float(pmf[depth]) if depth < pmf_count else 0.0
            block_keys, block_mass = _group_rows(
                tuple(column[storing] for column in keys),
                mass[storing] * poisson_here,
            )
            stored_keys.append(block_keys)
            stored_mass.append(block_mass)
            buffered_rows += block_mass.size
        if depth_limit is not None and depth >= depth_limit:
            continue
        degrees = indptr[states + 1] - indptr[states]
        total = int(degrees.sum())
        if total == 0:
            continue
        next_depth = depth + 1
        parent = np.repeat(np.arange(states.size), degrees)
        edges = np.repeat(indptr[states] - (np.cumsum(degrees) - degrees), degrees)
        edges += np.arange(total)
        child_mass = mass[parent] * succ_probs[edges]
        # Per-row truncation test, with the merged sweep's conventions
        # past the end of the tables (pmf scores 0.0, maxpois clamps).
        if maxpois is None:
            ceiling = float(pmf[next_depth]) if next_depth < pmf_count else 0.0
        else:
            ceiling = float(maxpois[min(next_depth, maxpois_count - 1)])
        keep = child_mass * ceiling >= w
        if not keep.all():
            tail = 1.0 - float(heads[next_depth]) if next_depth < head_count else 1.0
            error_bound += float(child_mass[~keep].sum()) * tail
            parent = parent[keep]
            edges = edges[keep]
            child_mass = child_mass[keep]
        size = int(child_mass.size)
        if size == 0:
            continue
        child_states = succ_targets[edges]
        child_keys = classes.children(keys, parent, succ_moves[edges])
        blocks = -(-size // PATHS_BLOCK_ROWS)
        bounds = [size * b // blocks for b in range(blocks + 1)]
        for start, end in zip(bounds[:-1], bounds[1:]):
            stack.append(
                (
                    next_depth,
                    child_states[start:end],
                    tuple(column[start:end] for column in child_keys),
                    child_mass[start:end],
                )
            )
        stack_rows += size

    if not stored_mass:
        return empty_k, empty_j, no_mass, error_bound, generated, stored, max_depth
    keys, masses = _group_rows(
        tuple(np.concatenate(column) for column in zip(*stored_keys)),
        np.concatenate(stored_mass),
    )
    k_rows, j_rows = classes.rows(keys)
    return k_rows, j_rows, masses, error_bound, generated, stored, max_depth


def _combine_with_omega(
    aggregated: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float],
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
    probability is ``Omega(r/t - r_{K+1} - imp/t, k)``.  Every class
    whose threshold is not negative goes through one pass of the shared
    ``calculators`` registry, whose memos are reused across initial
    states; the returned evaluation count covers only the nodes newly
    evaluated by this call.
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
    """Vectorized Omega combination over columnar class matrices.

    The columnar counterpart of :func:`_combine_with_omega`: the
    per-class thresholds are one vector expression over the count
    matrices, every class with a non-negative threshold goes through one
    pass of the registry, and each group of classes sharing a threshold
    is folded into the probability with one dot product.
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
