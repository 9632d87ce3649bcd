"""Backend-agnostic loop kernels for the merged sweep's frontier merge.

Every function in this module is written in the nopython subset of
Python/NumPy that Numba's ``njit`` accepts — scalars, tuples, lists of
tuples and NumPy arrays only, no helper calls — and is **also** run
un-jitted as the ``"python"`` backend, which is what the
bitwise-equivalence tests exercise on machines without numba.
:mod:`repro.kernels` wraps these callables per backend; nothing here
imports numba.

Bitwise contract
----------------
These kernels must reproduce the NumPy reference paths *bitwise*:

* :func:`expand_merge` and :func:`group_pairs` replace the
  ``np.lexsort`` + boundary-detection passes of ``_sweep_packed``.  A
  stable sort by a key tuple has exactly one result permutation, so the
  LSD radix sort used here (stable counting passes, least-significant
  key first) yields the identical order ``np.lexsort`` produces.  The
  kernels return the mass column *in sorted order* plus the group
  starts; the per-group mass reduction stays on ``np.add.reduceat`` in
  the NumPy wrapper, shared verbatim by all backends, because the
  ufunc's internal pairwise summation order is part of the bitwise
  contract and is matched trivially by invoking the ufunc itself.
  The truncation test and discarded-mass sum also stay in the wrapper.
"""

from __future__ import annotations

import numpy as np


def expand_merge(
    states,
    class_lo,
    class_hi,
    mass,
    indptr,
    targets,
    probs,
    moves,
    move_lo,
    move_hi,
    total,
):
    """One fused frontier step: CSR expansion, class derivation, grouping.

    Expands every frontier row through the CSR successor arrays,
    derives the child class words from the per-move bit-field
    increments, then sorts the children by ``(hi, lo, state)`` with a
    stable LSD radix sort — the exact permutation
    ``np.lexsort((state, lo, hi))`` produces — and detects the group
    boundaries.  ``total`` is the pre-computed total out-degree of the
    frontier (the wrapper already needed it for the memory-guard
    checkpoint).

    Returns ``(group_states, group_lo, group_hi, sorted_mass,
    group_starts)``: one leader key per distinct ``(state, lo, hi)``
    group in sort order, the child masses permuted into sort order, and
    the start offset of each group — ready for
    ``np.add.reduceat(sorted_mass, group_starts)`` in the wrapper.
    """
    child_states = np.empty(total, dtype=np.int64)
    child_lo = np.empty(total, dtype=np.int64)
    child_hi = np.empty(total, dtype=np.int64)
    child_mass = np.empty(total, dtype=np.float64)
    pos = 0
    for row in range(states.shape[0]):
        state = states[row]
        parent_lo = class_lo[row]
        parent_hi = class_hi[row]
        parent_mass = mass[row]
        for edge in range(indptr[state], indptr[state + 1]):
            move = moves[edge]
            child_states[pos] = targets[edge]
            child_lo[pos] = parent_lo + move_lo[move]
            child_hi[pos] = parent_hi + move_hi[move]
            child_mass[pos] = parent_mass * probs[edge]
            pos += 1

    # Stable LSD radix sort over the keys state (least significant),
    # lo, hi: 8-bit counting passes, skipping the passes a key's value
    # range never reaches (hi is all-zero whenever the class fields fit
    # one word, costing zero passes).
    order = np.arange(total)
    scratch = np.empty(total, dtype=np.int64)
    for key in (child_states, child_lo, child_hi):
        key_max = np.int64(0)
        for i in range(total):
            if key[i] > key_max:
                key_max = key[i]
        shift = 0
        while (key_max >> shift) > 0:
            counts = np.zeros(257, dtype=np.int64)
            for i in range(total):
                counts[((key[order[i]] >> shift) & 0xFF) + 1] += 1
            for digit in range(256):
                counts[digit + 1] += counts[digit]
            for i in range(total):
                digit = (key[order[i]] >> shift) & 0xFF
                scratch[counts[digit]] = order[i]
                counts[digit] += 1
            swap = order
            order = scratch
            scratch = swap
            shift += 8

    sorted_mass = np.empty(total, dtype=np.float64)
    group_states = np.empty(total, dtype=np.int64)
    group_lo = np.empty(total, dtype=np.int64)
    group_hi = np.empty(total, dtype=np.int64)
    group_starts = np.empty(total, dtype=np.int64)
    num_groups = 0
    prev_state = np.int64(0)
    prev_lo = np.int64(0)
    prev_hi = np.int64(0)
    for rank in range(total):
        idx = order[rank]
        state = child_states[idx]
        lo = child_lo[idx]
        hi = child_hi[idx]
        sorted_mass[rank] = child_mass[idx]
        if rank == 0 or state != prev_state or lo != prev_lo or hi != prev_hi:
            group_states[num_groups] = state
            group_lo[num_groups] = lo
            group_hi[num_groups] = hi
            group_starts[num_groups] = rank
            num_groups += 1
            prev_state = state
            prev_lo = lo
            prev_hi = hi
    return (
        group_states[:num_groups],
        group_lo[:num_groups],
        group_hi[:num_groups],
        sorted_mass,
        group_starts[:num_groups],
    )


def group_pairs(lo, hi, mass):
    """Final class aggregation: group the stored psi rows by class words.

    The ``np.lexsort((lo, hi))`` + boundary-detection counterpart for
    the end-of-sweep aggregation: stable radix sort by ``(hi, lo)``,
    then one grouping pass.  Returns ``(group_lo, group_hi,
    sorted_mass, group_starts)`` for the wrapper's
    ``np.add.reduceat``.
    """
    n = lo.shape[0]
    order = np.arange(n)
    scratch = np.empty(n, dtype=np.int64)
    for key in (lo, hi):
        key_max = np.int64(0)
        for i in range(n):
            if key[i] > key_max:
                key_max = key[i]
        shift = 0
        while (key_max >> shift) > 0:
            counts = np.zeros(257, dtype=np.int64)
            for i in range(n):
                counts[((key[order[i]] >> shift) & 0xFF) + 1] += 1
            for digit in range(256):
                counts[digit + 1] += counts[digit]
            for i in range(n):
                digit = (key[order[i]] >> shift) & 0xFF
                scratch[counts[digit]] = order[i]
                counts[digit] += 1
            swap = order
            order = scratch
            scratch = swap
            shift += 8

    sorted_mass = np.empty(n, dtype=np.float64)
    group_lo = np.empty(n, dtype=np.int64)
    group_hi = np.empty(n, dtype=np.int64)
    group_starts = np.empty(n, dtype=np.int64)
    num_groups = 0
    prev_lo = np.int64(0)
    prev_hi = np.int64(0)
    for rank in range(n):
        idx = order[rank]
        key_lo = lo[idx]
        key_hi = hi[idx]
        sorted_mass[rank] = mass[idx]
        if rank == 0 or key_lo != prev_lo or key_hi != prev_hi:
            group_lo[num_groups] = key_lo
            group_hi[num_groups] = key_hi
            group_starts[num_groups] = rank
            num_groups += 1
            prev_lo = key_lo
            prev_hi = key_hi
    return (
        group_lo[:num_groups],
        group_hi[:num_groups],
        sorted_mass,
        group_starts[:num_groups],
    )
