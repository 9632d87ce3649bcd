"""Distribution of linear combinations of uniform order statistics.

This implements Algorithm 4.8 of the paper — the numerically stable Omega
recursion of Diniz, de Souza e Silva & Gail (INFORMS JoC 2002) — which the
uniformization engine uses to evaluate the conditional probability

    Pr{Y(t) <= r | n, k, j}

of eq. (4.9): given ``n`` Poisson transitions, sojourn-count vector ``k``
over the distinct state rewards and impulse-count vector ``j`` over the
distinct impulse rewards, the accumulated reward is a linear combination
of uniform order statistics plus a constant impulse contribution.

The recursion is

    Omega(r, k) = ((c_i - r) / (c_i - c_j)) * Omega(r, k - 1_j)
                + ((r - c_j) / (c_i - c_j)) * Omega(r, k - 1_i)

for any ``i`` with ``c_i > r`` and ``j`` with ``c_j <= r`` (both with
positive count), with base cases Omega = 1 when no coefficient exceeds
``r`` and Omega = 0 when all coefficients exceed ``r``.  All multipliers
lie in ``[0, 1]``, which is the source of the method's stability.

Every step decrements exactly one count, so the sub-problems under a set
of count vectors form a DAG layered by the row sum ``n = sum(k)``.  The
evaluator walks those layers as arrays: once top-down to find the nodes
missing from the memo, their ``(i, j)`` choices and where each child's
value comes from, then once bottom-up to compute the values.  Within a
layer the row sum fixes the last count, so a count vector is one
integer key in the mixed radix ``n + 1`` over its first ``G - 1``
counts; the memo of one threshold is, per layer, a sorted key array and
a value array.  Keys that would not fit an ``int64`` are Python ints in
object arrays, through the same code.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import NumericalError

__all__ = [
    "OmegaCalculator",
    "OmegaRegistry",
    "omega",
    "conditional_reward_probability",
]

#: Keys at or above this bound do not fit an ``int64`` and go wide.
_INT64_LIMIT = 1 << 63


def _count_matrix(counts, width: int) -> np.ndarray:
    """``counts`` as a validated ``(rows, width)`` int64 matrix."""
    matrix = np.asarray(counts, dtype=np.int64)
    if matrix.ndim != 2:
        raise NumericalError(
            f"expected a 2-D array of counts, got shape {matrix.shape}"
        )
    if matrix.shape[1] != width:
        raise NumericalError(
            f"count vectors have length {matrix.shape[1]}, expected {width}"
        )
    if matrix.size and int(matrix.min()) < 0:
        raise NumericalError("counts must be non-negative")
    return matrix


def _locate(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query in ``sorted_keys``; -1 where it is absent."""
    if sorted_keys.size == 0:
        return np.full(queries.shape, -1, dtype=np.int64)
    positions = np.searchsorted(sorted_keys, queries)
    found = sorted_keys[np.minimum(positions, sorted_keys.size - 1)] == queries
    return np.where(found, positions, -1)


def _gather(values: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``values[positions]``, refusing the -1 of a node the memo lacks."""
    if positions.size and int(positions.min()) < 0:
        raise NumericalError("Omega recursion: a child node is missing from the memo")
    return values[positions]


def _encode(rows: np.ndarray, radix: int, wide: bool) -> np.ndarray:
    """Mixed-radix keys of count rows over all but their last column."""
    fields = rows.shape[1] - 1
    if fields <= 0:
        return np.zeros(rows.shape[0], dtype=object if wide else np.int64)
    if wide:
        powers = np.array([radix**l for l in range(fields)], dtype=object)
        return rows[:, :fields].astype(object) @ powers
    powers = radix ** np.arange(fields, dtype=np.int64)
    return rows[:, :fields] @ powers


class OmegaCalculator:
    """Evaluator for ``Omega(r, k)`` at one threshold, memoized across calls.

    Parameters
    ----------
    coefficients:
        The distinct coefficients ``c_1 .. c_S`` of the sojourn groups
        (``d``-values in the paper's notation).  They need not be sorted
        but must be pairwise distinct.
    threshold:
        The level ``r`` at which the distribution is evaluated.  The
        partition into ``G = {l | c_l > r}`` and ``L = {l | c_l <= r}`` is
        fixed per calculator, hence one calculator per threshold.

    Notes
    -----
    The memo holds, per layer ``n``, the sorted packed keys of every
    count vector evaluated so far and their values, so repeated queries
    share work.  :class:`OmegaRegistry` groups the calculators of many
    thresholds over one coefficient vector and evaluates them together.
    """

    def __init__(self, coefficients: Sequence[float], threshold: float) -> None:
        coeffs = [float(c) for c in coefficients]
        if len(set(coeffs)) != len(coeffs):
            raise NumericalError("Omega coefficients must be pairwise distinct")
        self._coefficients = coeffs
        self._threshold = float(threshold)
        c = np.asarray(coeffs, dtype=np.float64)
        r = self._threshold
        self._greater = c > r
        # Per-(i, j) recursion weights for i in G, j in L: elementwise
        # float64 arithmetic, the same operations the scalar formula does.
        pairs = self._greater[:, None] & ~self._greater[None, :]
        span = c[:, None] - c[None, :]
        self._weight_j = np.divide(
            c[:, None] - r, span, out=np.zeros_like(span), where=pairs
        )
        self._weight_i = np.divide(
            r - c[None, :], span, out=np.zeros_like(span), where=pairs
        )
        self._layers: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()
        self.evaluations = 0

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def coefficients(self) -> Tuple[float, ...]:
        return tuple(self._coefficients)

    def value(self, counts: Sequence[int]) -> float:
        """``Omega(threshold, counts)`` = Pr{sum over groups <= threshold}.

        ``counts[l]`` is the number of sojourn intervals carrying
        coefficient ``coefficients[l]``.
        """
        return float(self.value_many([[int(c) for c in counts]])[0])

    def value_many(self, counts) -> np.ndarray:
        """Batch ``Omega(threshold, k)`` for every row of ``counts``.

        ``counts`` is a 2-D array-like of non-negative integers, one
        count vector per row.  All rows are evaluated through one layered
        pass over the shared memo, so common sub-problems between the
        rows are expanded exactly once.  Returns the values as a float
        array aligned with the input rows.
        """
        matrix = _count_matrix(counts, len(self._coefficients))
        with self._lock:
            values, _ = _evaluate(
                [self], np.zeros(matrix.shape[0], dtype=np.int64), matrix
            )
        return values

    def _insert(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Merge new (key-sorted, memo-disjoint) nodes into one layer."""
        stored = self._layers.get(layer)
        if stored is None:
            self._layers[layer] = (keys.copy(), values.copy())
            return
        old_keys, old_values = stored
        at = np.searchsorted(old_keys, keys)
        self._layers[layer] = (
            np.insert(old_keys, at, keys),
            np.insert(old_values, at, values),
        )


class OmegaRegistry:
    """The per-threshold Omega calculators of one coefficient vector.

    Every formula over a model with the same distinct state rewards
    shares the group coefficients, so one registry serves them all
    (:meth:`repro.check.EngineCache.calculators_for`).  The registry owns
    one :class:`OmegaCalculator` per threshold — the memo stays per
    threshold, so a pass merges new nodes only into the thresholds it
    touches — and :meth:`evaluate` runs one layered pass over the rows of
    all thresholds at once.  A lock serializes passes, so threads
    sharing a registry never lose or misread a memo update.
    """

    def __init__(self, coefficients: Sequence[float]) -> None:
        self._coefficients = [float(c) for c in coefficients]
        if len(set(self._coefficients)) != len(self._coefficients):
            raise NumericalError("Omega coefficients must be pairwise distinct")
        self._calculators: Dict[float, OmegaCalculator] = {}
        self._lock = threading.Lock()

    @classmethod
    def for_reward_levels(cls, reward_levels: Sequence[float]) -> "OmegaRegistry":
        """The registry for distinct state rewards ``r_1 > ... > r_{K+1}``.

        Eq. (4.9)'s group coefficients are ``c_l = r_l - r_{K+1}``.
        """
        levels = [float(level) for level in reward_levels]
        smallest = levels[-1]
        return cls([level - smallest for level in levels])

    @property
    def evaluations(self) -> int:
        """Nodes evaluated so far, over every threshold."""
        with self._lock:
            return sum(c.evaluations for c in self._calculators.values())

    def evaluate(self, counts, thresholds) -> Tuple[np.ndarray, int]:
        """``Omega(thresholds[r], counts[r])`` for every row ``r``.

        One layered pass covers all rows, whatever their thresholds.
        Returns the values and the number of nodes this call evaluated
        for the first time.
        """
        matrix = _count_matrix(counts, len(self._coefficients))
        levels = np.asarray(thresholds, dtype=np.float64).reshape(-1)
        if levels.size != matrix.shape[0]:
            raise NumericalError(
                f"{levels.size} thresholds for {matrix.shape[0]} count rows"
            )
        distinct, which = np.unique(levels, return_inverse=True)
        with self._lock:
            calculators = []
            for threshold in distinct.tolist():
                calculator = self._calculators.get(threshold)
                if calculator is None:
                    calculator = OmegaCalculator(self._coefficients, threshold)
                    self._calculators[threshold] = calculator
                calculators.append(calculator)
            return _evaluate(calculators, which.reshape(-1), matrix)


def _evaluate(
    calculators: List[OmegaCalculator], which: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Omega of ``counts[r]`` at ``calculators[which[r]]``'s threshold.

    The caller holds the lock that guards the calculators' memos.  One
    top-down sweep over the layers collects, per layer, the queries
    (children of the layer above, then the roots of this layer), finds
    them in the memos of the thresholds this layer touches, and turns
    the misses into new nodes with their base values, ``(i, j)`` choices
    and children.  Within a layer a query is tagged ``calculator * span +
    key`` (``span = (n + 1) ** (G - 1)``), so one sort and one search
    serve every threshold.  The bottom-up sweep then computes
    ``w_j * v_j + w_i * v_i`` per recursing node — the same float64
    operations on the same operands as the scalar recursion, hence the
    same bits — resolves the queries, and merges the new nodes into the
    memos.  Returns the values and the number of new nodes.
    """
    values_out = np.empty(counts.shape[0], dtype=np.float64)
    if counts.shape[0] == 0:
        return values_out, 0
    num_groups = counts.shape[1]
    fields = max(num_groups - 1, 0)
    num_calcs = len(calculators)
    greater = np.stack([c._greater for c in calculators])
    weight_j = np.stack([c._weight_j for c in calculators])
    weight_i = np.stack([c._weight_i for c in calculators])

    sums = counts.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    layer_ids, starts, sizes = np.unique(
        sums[order], return_index=True, return_counts=True
    )
    roots_by_layer = {
        int(layer): order[start : start + size]
        for layer, start, size in zip(layer_ids, starts, sizes)
    }

    empty_rows = np.zeros((0, num_groups), dtype=np.int64)
    empty_index = np.zeros(0, dtype=np.int64)
    child_rows, child_calc = empty_rows, empty_index
    child_keys: np.ndarray = empty_index
    plan = []
    layer = int(layer_ids[-1])
    while True:
        span = (layer + 1) ** fields
        key_dtype = object if span >= _INT64_LIMIT else np.int64
        tag_dtype = object if num_calcs * span >= _INT64_LIMIT else np.int64
        roots = roots_by_layer.pop(layer, empty_index)
        root_rows = counts[roots]
        rows = np.concatenate((child_rows, root_rows))
        calc = np.concatenate((child_calc, which[roots]))
        keys = np.concatenate(
            (
                child_keys.astype(key_dtype, copy=False),
                _encode(root_rows, layer + 1, key_dtype is object),
            )
        )
        tags = calc.astype(tag_dtype, copy=False) * span + keys.astype(
            tag_dtype, copy=False
        )

        # The memo entries of the thresholds this layer touches, tagged
        # like the queries (calculator-major, so still sorted).
        memo_tags = []
        memo_values = []
        for index in np.bincount(calc, minlength=num_calcs).nonzero()[0].tolist():
            stored = calculators[index]._layers.get(layer)
            if stored is not None:
                memo_tags.append(stored[0].astype(tag_dtype) + index * span)
                memo_values.append(stored[1])
        if memo_tags:
            lookup_tags = np.concatenate(memo_tags)
            lookup_values = np.concatenate(memo_values)
        else:
            lookup_tags = np.zeros(0, dtype=tag_dtype)
            lookup_values = np.zeros(0)
        # Each query's value comes from concat(memo hits, new nodes).
        found = _locate(lookup_tags, tags)
        hit = (found >= 0).nonzero()[0]
        missing = (found < 0).nonzero()[0]
        hit_values = lookup_values[found[hit]]
        _, first, inverse = np.unique(
            tags[missing], return_index=True, return_inverse=True
        )
        source = np.full(tags.size, -1, dtype=np.int64)
        source[hit] = np.arange(hit.size)
        source[missing] = hit.size + inverse.reshape(-1)
        node_pick = missing[first]
        node_rows = rows[node_pick]
        node_calc = calc[node_pick]
        node_keys = keys[node_pick]

        # Base cases and (i, j) choices exactly as the scalar recursion
        # makes them: the first positive group above / at-most r.
        positive = node_rows > 0
        node_greater = greater[node_calc]
        above = positive & node_greater
        below = positive & ~node_greater
        has_above = above.any(axis=1)
        base = np.where(has_above, 0.0, 1.0)
        recursing = (has_above & below.any(axis=1)).nonzero()[0]
        i_sel = j_sel = empty_index
        if recursing.size:
            i_sel = np.argmax(above[recursing], axis=1)
            j_sel = np.argmax(below[recursing], axis=1)
        plan.append(
            (
                layer,
                node_calc,
                node_keys,
                base,
                recursing,
                i_sel,
                j_sel,
                hit_values,
                source,
                roots,
                child_rows.shape[0],
            )
        )
        if recursing.size:
            parents = node_rows[recursing]
            arange = np.arange(recursing.size)
            without_j = parents.copy()
            without_j[arange, j_sel] -= 1
            without_i = parents
            without_i[arange, i_sel] -= 1
            child_rows = np.concatenate((without_j, without_i))
            child_calc = np.concatenate((node_calc[recursing], node_calc[recursing]))
            child_keys = _encode(child_rows, layer, (layer**fields) >= _INT64_LIMIT)
            layer -= 1
        elif roots_by_layer:
            child_rows, child_calc, child_keys = empty_rows, empty_index, empty_index
            layer = max(roots_by_layer)
        else:
            break

    new_nodes = 0
    child_values = np.zeros(0)
    for (
        layer,
        node_calc,
        node_keys,
        values,
        recursing,
        i_sel,
        j_sel,
        hit_values,
        source,
        roots,
        from_above,
    ) in reversed(plan):
        if recursing.size:
            half = recursing.size
            at = node_calc[recursing]
            values[recursing] = (
                weight_j[at, i_sel, j_sel] * child_values[:half]
                + weight_i[at, i_sel, j_sel] * child_values[half:]
            )
        resolved = _gather(np.concatenate((hit_values, values)), source)
        values_out[roots] = resolved[from_above:]
        child_values = resolved[:from_above]
        if node_calc.size:
            cuts = (node_calc[1:] != node_calc[:-1]).nonzero()[0] + 1
            bounds = [0] + cuts.tolist() + [node_calc.size]
            for start, end in zip(bounds[:-1], bounds[1:]):
                calculator = calculators[int(node_calc[start])]
                calculator._insert(layer, node_keys[start:end], values[start:end])
                calculator.evaluations += end - start
            new_nodes += int(node_calc.size)
    return values_out, new_nodes


def omega(coefficients: Sequence[float], counts: Sequence[int], threshold: float) -> float:
    """One-shot ``Omega(threshold, counts)`` (see :class:`OmegaCalculator`)."""
    return OmegaCalculator(coefficients, threshold).value(counts)


def conditional_reward_probability(
    state_rewards: Sequence[float],
    sojourn_counts: Sequence[int],
    impulse_rewards: Sequence[float],
    impulse_counts: Sequence[int],
    time_bound: float,
    reward_bound: float,
) -> float:
    """``Pr{Y(t) <= r | n, k, j}`` per eqs. (4.7)–(4.10) of the paper.

    Parameters
    ----------
    state_rewards:
        The distinct state rewards ``r_1 > r_2 > ... > r_{K+1} >= 0``.
    sojourn_counts:
        ``k``-vector: ``k_l`` sojourn intervals in states of reward
        ``state_rewards[l]``; must sum to ``n + 1``.
    impulse_rewards:
        The distinct impulse rewards ``i_1 > ... > i_J >= 0``.
    impulse_counts:
        ``j``-vector: occurrences of transitions carrying each impulse
        reward; must sum to ``n``.
    time_bound:
        ``t > 0``.
    reward_bound:
        ``r >= 0``.

    Notes
    -----
    With ``c_l = r_l - r_{K+1}`` (group coefficients, strictly decreasing
    to 0) and impulse contribution ``imp = sum_i i_i * j_i``, eq. (4.9)
    reduces the conditional probability to

        Omega(r/t - r_{K+1} - imp/t, k).
    """
    rewards = [float(r) for r in state_rewards]
    if any(rewards[i] <= rewards[i + 1] for i in range(len(rewards) - 1)):
        raise NumericalError("state rewards must be strictly decreasing")
    if rewards and rewards[-1] < 0:
        raise NumericalError("state rewards must be non-negative")
    if time_bound <= 0:
        raise NumericalError("time bound must be positive")
    counts = [int(c) for c in sojourn_counts]
    if len(counts) != len(rewards):
        raise NumericalError("sojourn count vector does not match reward levels")
    imp_levels = [float(i) for i in impulse_rewards]
    imp_counts = [int(c) for c in impulse_counts]
    if len(imp_levels) != len(imp_counts):
        raise NumericalError("impulse count vector does not match impulse levels")

    impulse_total = sum(level * count for level, count in zip(imp_levels, imp_counts))
    smallest = rewards[-1] if rewards else 0.0
    threshold = reward_bound / time_bound - smallest - impulse_total / time_bound
    if threshold < 0:
        return 0.0
    coefficients = [r - smallest for r in rewards]
    return omega(coefficients, counts, threshold)
