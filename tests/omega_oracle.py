"""The scalar Omega recursion of Algorithm 4.8, kept as the test oracle.

The library evaluates Alg. 4.8 as a layered array pass over packed
count keys (:mod:`repro.numerics.orderstat`).  This module keeps the
node-at-a-time form it replaced: a tuple-keyed dict memo filled by an
explicit stack, with the same first-positive ``(i, j)`` choice and the
same ``w_j * v_j + w_i * v_i`` float arithmetic.  The tests check that
the pass returns the same bits and evaluates the same number of nodes.
"""

from typing import Dict, Sequence, Tuple


class ScalarOmega:
    """``Omega(threshold, k)`` by the memoized scalar recursion."""

    def __init__(self, coefficients: Sequence[float], threshold: float) -> None:
        self._coefficients = [float(c) for c in coefficients]
        self._threshold = float(threshold)
        self._greater = [l for l, c in enumerate(self._coefficients) if c > threshold]
        self._lesser = [l for l, c in enumerate(self._coefficients) if c <= threshold]
        self._memo: Dict[Tuple[int, ...], float] = {}
        self.evaluations = 0

    def value(self, counts: Sequence[int]) -> float:
        key = tuple(int(c) for c in counts)
        if key not in self._memo:
            self._evaluate([key])
        return self._memo[key]

    def _split(self, key: Tuple[int, ...]):
        """Base-case value, or the two child keys with their weights."""
        if sum(key[l] for l in self._greater) == 0:
            return 1.0, None
        if sum(key[l] for l in self._lesser) == 0:
            return 0.0, None
        i = next(l for l in self._greater if key[l] > 0)
        j = next(l for l in self._lesser if key[l] > 0)
        c_i = self._coefficients[i]
        c_j = self._coefficients[j]
        r = self._threshold
        without_j = list(key)
        without_j[j] -= 1
        without_i = list(key)
        without_i[i] -= 1
        weight_j = (c_i - r) / (c_i - c_j)
        weight_i = (r - c_j) / (c_i - c_j)
        return None, (tuple(without_j), weight_j, tuple(without_i), weight_i)

    def _evaluate(self, roots) -> None:
        """Evaluate all ``roots`` through one shared stack traversal."""
        memo = self._memo
        stack = list(roots)
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            base, children = self._split(current)
            if children is None:
                memo[current] = base
                self.evaluations += 1
                stack.pop()
                continue
            child_j, weight_j, child_i, weight_i = children
            missing = [child for child in (child_j, child_i) if child not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[current] = weight_j * memo[child_j] + weight_i * memo[child_i]
            self.evaluations += 1
            stack.pop()
