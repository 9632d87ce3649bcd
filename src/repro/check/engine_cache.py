"""Cross-formula engine cache keyed by model fingerprints.

Every quantitative engine in this package starts with precomputation
that depends only on the (transformed) model and a handful of
formula-relevant parameters: the path engine builds a
:class:`~repro.check.paths_engine.PathEngineContext` (uniformized
successor structure, Poisson pmf/head/max tables, Omega memo tables),
the discretization engine builds a ``_DiscretizationGrid`` (offset-
grouped sparse step operators).  Within one formula those artifacts are
already shared across initial states; this module shares them across
*different* formulas, repeated :class:`~repro.check.ModelChecker`
instances, and CLI invocations inside one process.

The cache key always starts from :meth:`repro.mrm.MRM.fingerprint` — a
stable content hash of rates, labels and rewards — so two structurally
identical transformed models hit the same entry even when they are
distinct Python objects (e.g. the ``make_absorbing`` output rebuilt per
``check()`` call).  Values must be treated as read-only or
append-only: cached Poisson tables and discretization grids are never
mutated, and cached Omega memo tables only grow (memoization returns
identical values regardless of insertion order), so sharing them never
changes a result — only how much work is left to compute it.

Entries are evicted least-recently-used beyond ``max_entries``.  A
process-wide default instance is available via
:func:`default_engine_cache`; :class:`~repro.check.ModelChecker` and the
CLI use it unless given an explicit cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Sequence

from repro.numerics.orderstat import OmegaRegistry
from repro.obs import get_collector

__all__ = ["CacheStats", "EngineCache", "default_engine_cache"]


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`EngineCache` (a snapshot, not a view)."""

    hits: int
    misses: int
    evictions: int
    entries: int


class EngineCache:
    """An LRU map from hashable keys to shared engine precomputation.

    Parameters
    ----------
    max_entries:
        Upper bound on stored entries; the least recently used entry is
        evicted beyond it.  Omega calculator registries obtained through
        :meth:`calculators_for` count like any other entry.

    Notes
    -----
    The cache is safe under concurrent lookups (a lock guards the
    table), and builds are *single-flight*: the first thread to miss a
    key builds it outside the lock while concurrent callers for the
    same key wait on a per-key latch and then reuse the stored value —
    a slow build never blocks unrelated lookups and never runs twice.
    If the owning build raises, one waiter takes over as the builder.
    """

    def __init__(self, max_entries: int = 64, worker_pool: Any = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._building: Dict[Hashable, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._worker_pool = worker_pool

    # ------------------------------------------------------------------
    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on first use."""
        obs = get_collector()
        while True:
            with self._lock:
                if key in self._entries:
                    self._hits += 1
                    self._entries.move_to_end(key)
                    obs.counter_add("engine-cache.hits")
                    return self._entries[key]
                latch = self._building.get(key)
                if latch is None:
                    self._building[key] = threading.Event()
                    self._misses += 1
                    break
            # Another thread is building this key; wait for its latch,
            # then loop: normally the entry is now cached (a hit), but
            # if the build failed or was already evicted we become the
            # builder ourselves.
            latch.wait()
        obs.counter_add("engine-cache.misses")
        try:
            value = builder()
        except BaseException:
            with self._lock:
                latch = self._building.pop(key, None)
            if latch is not None:
                latch.set()
            raise
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                obs.counter_add("engine-cache.evictions")
            latch = self._building.pop(key, None)
        if latch is not None:
            latch.set()
        return value

    def calculators_for(self, reward_levels: Sequence[float]) -> OmegaRegistry:
        """The shared Omega registry for one reward-level set.

        The :class:`~repro.numerics.orderstat.OmegaRegistry` owns one
        memo per threshold; since the group coefficients are a function
        of the distinct state rewards alone, every formula over a model
        with the same reward levels reuses the same memos — across time
        bounds, reward bounds and psi-sets.  The registry is shared,
        grows monotonically and serializes its passes with its own lock.
        """
        levels = tuple(float(r) for r in reward_levels)
        return self.get_or_build(
            ("omega-calculators", levels),
            lambda: OmegaRegistry.for_reward_levels(levels),
        )

    def worker_pool(self):
        """The persistent fan-out pool everything on this cache shares.

        Returns the :class:`~repro.check.pool.PersistentWorkerPool`
        passed at construction, or the process-wide default pool
        otherwise — so CLI invocations, repeated ``ModelChecker``
        instances and a future server all reuse one set of forked
        workers instead of re-spawning a pool per call.  :meth:`clear`
        does not touch the pool; worker processes are engine capacity,
        not cached precomputation.
        """
        if self._worker_pool is not None:
            return self._worker_pool
        from repro.check.pool import default_pool

        return default_pool()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
            )

    def clear(self) -> None:
        """Drop all entries (counters are reset too)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats
        return (
            f"EngineCache(entries={stats.entries}, hits={stats.hits}, "
            f"misses={stats.misses}, evictions={stats.evictions})"
        )


_DEFAULT_CACHE = EngineCache()


def default_engine_cache() -> EngineCache:
    """The process-wide cache used by :class:`~repro.check.ModelChecker`
    and the CLI when no explicit cache is supplied."""
    return _DEFAULT_CACHE
