"""Persistent shared-memory worker pool for the path-engine fan-out.

The first fan-out implementation created a fresh ``ProcessPoolExecutor``
inside every :func:`~repro.check.paths_engine.joint_distribution_many`
call and shipped the whole :class:`~repro.check.paths_engine.PathEngineContext`
to each worker through ``initargs`` pickling.  ``BENCH_2.json`` recorded
the consequence: ``workers=4`` was a net *loss* (sweep speedup 0.83, a
single until 6x slower than serial) — the pool spin-up and the context
pickle dominated the per-call work.  This module replaces that design
with three cooperating pieces:

**A persistent pool.**  :class:`PersistentWorkerPool` owns one
``fork``-based ``ProcessPoolExecutor`` for the life of the process (or
until a failure forces a rebuild).  Workers are forked once and reused
across calls, so repeated checks — a CLI invocation with several
formulas, a long-lived server — pay the fork cost once.  The
process-wide instance is reachable through :func:`default_pool` and
owned by :meth:`repro.check.EngineCache.worker_pool`, so everything that
shares an engine cache shares the pool too.

**Shared-memory context publishing.**  Because the workers outlive any
single call, fork copy-on-write cannot carry a context built *after*
the pool — so the context's large read-only arrays (the CSR successor
structure, the Poisson pmf/head/max tables, the psi mask, the state
levels) are packed once into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment by
:func:`publish_context`.  Each task then carries only a small picklable
:class:`ContextDescriptor` (segment name, per-array dtype/shape/offset,
scalars); the worker maps the segment and rebuilds an equivalent
context around zero-copy views.  The float arrays are mapped
byte-identically, the searches are deterministic, and the runners skip
dead targets before touching anything they accumulate, so the merged
results remain **bitwise identical** to a serial run; only the
per-state ``omega_evaluations`` diagnostics reflect each worker's own
memo locality, exactly as before.  Segments are reference-counted per
context (one publish per context object, released when the context is
garbage collected or at interpreter exit).

**Work stealing over small shards.**  :func:`plan_shards` splits the
initial states into many small contiguous shards — about
:data:`OVERSUBSCRIPTION` per worker — cost-balanced by each state's
out-degree (a frontier-size estimate read from ``succ_indptr``).  The
shards are submitted together and drained from the executor's shared
call queue, so an idle worker steals the next shard instead of
idling behind a rigid ``np.array_split`` assignment.

Budgets and telemetry do not rely on fork inheritance either: each
:class:`_ShardTask` carries the parent guard's *absolute* monotonic
deadline (``CLOCK_MONOTONIC`` is shared across fork on Linux) plus its
memory budget, and an ``observe`` flag; the worker installs a fresh
:class:`~repro.obs.Collector` when observing and ships its snapshot
back for clock-offset-normalized merging in the parent.

The fault-tolerance contract of the old per-call pool is preserved:
:meth:`PersistentWorkerPool.run_shards` applies one *absolute* deadline
across all futures of a call (k hung shards cost one timeout, not k),
detects dead workers (``BrokenProcessPool``), reports failed shards to
the caller for retry/serial re-execution, and rebuilds the pool after a
timeout or breakage so hung or dead workers never leak into the next
call.  ``GuardExceeded``/``MemoryError`` raised by engine code inside a
worker are *not* worker failures; they propagate to the caller's
degradation cascade and leave the pool alive.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import itertools
import multiprocessing
import os
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CheckError, GuardExceeded, WorkerError
from repro.guard import Guard, get_guard, use_guard
from repro.numerics.orderstat import OmegaRegistry
from repro.obs import Collector, get_collector, use_collector

__all__ = [
    "ContextDescriptor",
    "PersistentWorkerPool",
    "OVERSUBSCRIPTION",
    "default_pool",
    "reset_default_pool",
    "effective_workers",
    "plan_shards",
    "publish_context",
]

#: Shards planned per worker: enough queue depth that an idle worker
#: always finds another shard to steal, small enough that the per-shard
#: submit/result overhead stays negligible next to the search itself.
OVERSUBSCRIPTION = 4

#: Alignment of every array inside a published segment; keeps the views
#: friendly to vectorized loads regardless of the preceding array's size.
_ALIGN = 64


def _cpu_count() -> int:
    """Scheduler-visible core count (patchable seam for tests).

    Tests on small CI boxes patch this to exercise the multi-process
    paths that clamping would otherwise turn into serial loops.
    """
    return os.cpu_count() or 1


def effective_workers(requested: int) -> Tuple[int, int]:
    """``(effective, cpu_count)`` after clamping ``requested`` workers.

    Oversubscribing cores is how the original benchmark recorded its
    regression (``workers=4`` on a 1-core runner); the fan-out never
    runs more workers than the machine has cores.
    """
    requested = int(requested or 0)
    cpu = _cpu_count()
    return (min(requested, cpu), cpu)


# ----------------------------------------------------------------------
# Context publishing (parent side)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _ArraySpec:
    """Location of one array inside a published segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ContextDescriptor:
    """The small picklable handle a task ships instead of a context.

    Everything a worker needs to rebuild an equivalent
    :class:`~repro.check.paths_engine.PathEngineContext`: the shared
    segment holding the large arrays, where each array lives inside it,
    and the scalar/config fields.  ``token`` identifies the publish (it
    keys the worker-side cache of attached contexts).
    """

    token: str
    segment: str
    arrays: Tuple[_ArraySpec, ...]
    reward_levels: Tuple[float, ...]
    impulse_levels: Tuple[float, ...]
    time_bound: float
    reward_bound: float
    rate: float
    lam_t: float
    w: float
    depth_limit: Optional[int]
    strategy: str
    truncation: str
    num_states: int


_PUBLISH_LOCK = threading.Lock()
_SEGMENTS: Dict[str, Any] = {}  # token -> parent-side SharedMemory
_PUBLISHED: Dict[int, ContextDescriptor] = {}  # id(context) -> descriptor
_TOKENS = itertools.count()


def _release_segment(context_id: int, token: str) -> None:
    with _PUBLISH_LOCK:
        _PUBLISHED.pop(context_id, None)
        segment = _SEGMENTS.pop(token, None)
    if segment is None:
        return
    try:
        segment.close()
    except Exception:  # pragma: no cover - defensive
        pass
    try:
        segment.unlink()
    except Exception:  # pragma: no cover - already unlinked / shutdown
        pass


def _release_all_segments() -> None:
    with _PUBLISH_LOCK:
        segments = list(_SEGMENTS.values())
        _SEGMENTS.clear()
        _PUBLISHED.clear()
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def _context_arrays(context) -> "OrderedDict[str, np.ndarray]":
    """The context's large arrays, in a stable publishing order."""
    if context.succ_indptr is None or context.psi_mask is None:
        raise CheckError(
            "cannot publish a context without its CSR successor arrays; "
            "build it through prepare_path_engine"
        )
    dead_mask = np.zeros(context.num_states, dtype=bool)
    for state in context.dead:
        dead_mask[state] = True
    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    arrays["pmf"] = np.ascontiguousarray(context.pmf)
    arrays["heads"] = np.ascontiguousarray(context.heads)
    if context.maxpois is not None:
        arrays["maxpois"] = np.ascontiguousarray(context.maxpois)
    arrays["succ_indptr"] = np.ascontiguousarray(context.succ_indptr)
    arrays["succ_targets"] = np.ascontiguousarray(context.succ_targets)
    arrays["succ_probs"] = np.ascontiguousarray(context.succ_probs)
    arrays["succ_moves"] = np.ascontiguousarray(context.succ_moves)
    arrays["psi_mask"] = np.ascontiguousarray(context.psi_mask)
    arrays["state_level"] = np.asarray(context.state_level, dtype=np.int64)
    arrays["dead_mask"] = dead_mask
    return arrays


def publish_context(context) -> ContextDescriptor:
    """Publish a context's arrays to shared memory, once per context.

    Returns the (cached) :class:`ContextDescriptor`.  The segment lives
    until the context is garbage collected or the interpreter exits;
    workers that are still attached keep their mapping valid either way
    (POSIX shared memory survives unlink until the last close).
    """
    with _PUBLISH_LOCK:
        cached = _PUBLISHED.get(id(context))
        if cached is not None and cached.token in _SEGMENTS:
            return cached

    from multiprocessing import shared_memory

    arrays = _context_arrays(context)
    specs: List[_ArraySpec] = []
    offset = 0
    for name, array in arrays.items():
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append(
            _ArraySpec(
                name=name,
                dtype=str(array.dtype),
                shape=tuple(int(n) for n in array.shape),
                offset=offset,
            )
        )
        offset += array.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for spec, array in zip(specs, arrays.values()):
        if not array.size:
            continue
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf, offset=spec.offset
        )
        view[...] = array
        del view

    token = f"{os.getpid()}-{next(_TOKENS)}"
    descriptor = ContextDescriptor(
        token=token,
        segment=segment.name,
        arrays=tuple(specs),
        reward_levels=tuple(float(r) for r in context.reward_levels),
        impulse_levels=tuple(float(i) for i in context.impulse_levels),
        time_bound=float(context.time_bound),
        reward_bound=float(context.reward_bound),
        rate=float(context.rate),
        lam_t=float(context.lam_t),
        w=float(context.w),
        depth_limit=context.depth_limit,
        strategy=context.strategy,
        truncation=context.truncation,
        num_states=int(context.num_states),
    )
    with _PUBLISH_LOCK:
        _SEGMENTS[token] = segment
        _PUBLISHED[id(context)] = descriptor
    weakref.finalize(context, _release_segment, id(context), token)
    return descriptor


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Attached contexts by descriptor token (per worker process).  Bounded:
#: a long-lived worker serving many formulas drops its oldest mapping.
_WORKER_CONTEXTS: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()
_WORKER_CACHE_LIMIT = 8


def _attach_context(descriptor: ContextDescriptor):
    """Map a published segment and rebuild the engine context (cached).

    Attaching re-registers the segment with the resource tracker on
    Python < 3.13 (bpo-39959), but under ``fork`` the workers share the
    parent's tracker process and its name cache is a set — the extra
    registration is a no-op, and the parent's unlink-time unregister
    keeps the books straight.  (Explicitly unregistering here would
    *remove* the parent's entry from the shared tracker instead.)
    """
    cached = _WORKER_CONTEXTS.get(descriptor.token)
    if cached is not None:
        _WORKER_CONTEXTS.move_to_end(descriptor.token)
        return cached[0]

    from multiprocessing import shared_memory

    from repro.check.paths_engine import ClassTable, PathEngineContext

    segment = shared_memory.SharedMemory(name=descriptor.segment)
    arrays: Dict[str, np.ndarray] = {}
    for spec in descriptor.arrays:
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        view.flags.writeable = False
        arrays[spec.name] = view

    psi = frozenset(int(s) for s in np.flatnonzero(arrays["psi_mask"]))
    dead = frozenset(int(s) for s in np.flatnonzero(arrays["dead_mask"]))
    state_level = [int(level) for level in arrays["state_level"]]
    num_impulses = len(descriptor.impulse_levels)

    context = PathEngineContext(
        psi=psi,
        dead=dead,
        state_level=state_level,
        reward_levels=list(descriptor.reward_levels),
        impulse_levels=list(descriptor.impulse_levels),
        time_bound=descriptor.time_bound,
        reward_bound=descriptor.reward_bound,
        rate=descriptor.rate,
        lam_t=descriptor.lam_t,
        w=descriptor.w,
        depth_limit=descriptor.depth_limit,
        strategy=descriptor.strategy,
        truncation=descriptor.truncation,
        pmf=arrays["pmf"],
        heads=arrays["heads"],
        maxpois=arrays.get("maxpois"),
        num_states=descriptor.num_states,
        calculators=OmegaRegistry.for_reward_levels(descriptor.reward_levels),
        succ_indptr=arrays["succ_indptr"],
        succ_targets=arrays["succ_targets"],
        succ_probs=arrays["succ_probs"],
        succ_moves=arrays["succ_moves"],
        psi_mask=arrays["psi_mask"],
        class_table=ClassTable(len(descriptor.reward_levels), num_impulses),
    )
    _WORKER_CONTEXTS[descriptor.token] = (context, segment)
    while len(_WORKER_CONTEXTS) > _WORKER_CACHE_LIMIT:
        _, (_, old_segment) = _WORKER_CONTEXTS.popitem(last=False)
        try:
            old_segment.close()
        except BufferError:  # views still alive somewhere; GC unmaps later
            pass
    return context


@dataclass
class _ShardTask:
    """One unit of stealable work: a shard plus its execution envelope.

    ``deadline`` is an *absolute* ``time.monotonic()`` instant (the
    monotonic clock is shared across fork), ``mem_budget`` the parent
    guard's byte budget; the worker reconstructs a guard from them so
    budget trips inside a worker behave exactly like serial ones.
    ``observe`` asks the worker to record telemetry and ship a snapshot.
    """

    descriptor: ContextDescriptor
    states: List[int]
    observe: bool = False
    deadline: Optional[float] = None
    mem_budget: Optional[int] = None
    # Correlation id of the originating request, if the parent run has
    # one: worker-side shard spans stamp it so a merged trace names the
    # same request end to end.
    request_id: Optional[str] = None


def _fan_out_initializer() -> None:
    """Per-worker setup hook; a patch point for fault injection."""


def _pool_initializer() -> None:
    # Resolved in the worker so a (pre-fork) patched hook is honored.
    _fan_out_initializer()


def _shard_guard(task: _ShardTask) -> Optional[Guard]:
    if task.deadline is None and task.mem_budget is None:
        return None
    remaining = None
    if task.deadline is not None:
        remaining = max(task.deadline - time.monotonic(), 1e-6)
    return Guard(deadline_s=remaining, mem_budget_bytes=task.mem_budget)


def _fan_out_shard(task: _ShardTask):
    """Evaluate one shard in a worker; returns ``(pairs, snapshot)``.

    The context arrives as a :class:`ContextDescriptor` — a shared-memory
    handle, never a pickled context — and is attached (or served from
    the worker's cache) before the searches run.  The ambient guard and
    collector are installed *explicitly* from the task envelope: a
    persistent worker's fork-inherited thread locals are a stale snapshot
    of whatever the parent was doing when the pool was created, so
    nothing here relies on them.  ``snapshot`` is ``None`` when the
    parent was not observing; a recording worker ships its collector
    snapshot back for clock-offset-normalized merging.
    """
    from repro.check.paths_engine import joint_distribution_from_context

    context = _attach_context(task.descriptor)
    guard = _shard_guard(task)
    if not task.observe:
        with use_guard(guard), use_collector(None):
            pairs = [
                (state, joint_distribution_from_context(context, state))
                for state in task.states
            ]
        return pairs, None
    collector = Collector(request_id=task.request_id)
    with use_guard(guard), use_collector(collector):
        with collector.span("pool.shard", states=len(task.states), pid=os.getpid()):
            pairs = [
                (state, joint_distribution_from_context(context, state))
                for state in task.states
            ]
    return pairs, collector.snapshot()


def _noop() -> int:
    """Warm-up task: forces worker processes to exist before timing."""
    return os.getpid()


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------

def plan_shards(context, states: Sequence[int], workers: int) -> List[List[int]]:
    """Split ``states`` into small cost-balanced contiguous shards.

    Targets about :data:`OVERSUBSCRIPTION` shards per worker so the
    executor's shared queue gives idle workers something to steal; the
    cost estimate of a state is its out-degree (from ``succ_indptr``) —
    a proxy for its frontier growth — so one expensive state does not
    drag a whole rigid ``len/workers`` slice behind it.
    """
    states = [int(state) for state in states]
    if workers <= 1 or len(states) <= 1:
        return [states] if states else []
    target = min(len(states), int(workers) * OVERSUBSCRIPTION)
    indptr = context.succ_indptr
    if indptr is not None:
        costs = [
            max(int(indptr[state + 1]) - int(indptr[state]), 1) for state in states
        ]
    else:
        costs = [1] * len(states)
    total = float(sum(costs))
    closed = 0.0
    shards: List[List[int]] = []
    current: List[int] = []
    acc = 0.0
    for state, cost in zip(states, costs):
        # Close *before* the shard would overshoot its quota, and
        # re-derive the quota from the cost still unassigned to closed
        # shards — together these keep shards at or under their fair
        # share and stop one overfull early shard from starving the
        # tail below ``target``.
        quota = (total - closed) / (target - len(shards))
        if current and acc + cost > quota and len(shards) < target - 1:
            shards.append(current)
            closed += acc
            current = []
            acc = 0.0
        current.append(state)
        acc += cost
    if current:
        shards.append(current)
    return shards


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

def _terminate_workers(executor) -> None:
    """Best-effort kill of a pool's worker processes.

    Needed on the timeout path: a hung worker would otherwise survive
    ``shutdown(wait=False)`` and block interpreter exit at the atexit
    join.  Reaches into executor internals deliberately — there is no
    public kill switch — and tolerates their absence.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass


def _unpack_shard_part(part):
    """Split a worker return into ``(pairs, snapshot)``.

    Tolerates bare ``(state, result)`` pair lists (pre-telemetry shard
    functions, fault-injection stubs) by treating them as having no
    snapshot.
    """
    if (
        isinstance(part, tuple)
        and len(part) == 2
        and (part[1] is None or isinstance(part[1], dict))
    ):
        return part[0], part[1]
    return part, None


class PersistentWorkerPool:
    """A process-lifetime ``fork`` pool shared across fan-out calls.

    The executor is created lazily on first use and kept alive between
    calls; :meth:`run_shards` marks it broken on dead-worker or timeout
    failures so the next call (or retry) transparently gets a fresh one.
    Thread-safe: one call runs the executor at a time per pool instance
    (the lock covers ensure/rebuild; submissions themselves are safe).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._size = 0
        self._broken = False

    # -- lifecycle ------------------------------------------------------
    def _spawn_locked(self, size: int) -> None:
        if self._executor is not None:
            _terminate_workers(self._executor)
            self._executor.shutdown(wait=False, cancel_futures=True)
        fork = multiprocessing.get_context("fork")
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=size,
            mp_context=fork,
            initializer=_pool_initializer,
        )
        self._size = size
        self._broken = False

    def _ensure_executor(self, workers: int) -> concurrent.futures.ProcessPoolExecutor:
        workers = max(int(workers), 1)
        with self._lock:
            if self._executor is None or self._broken or self._size < workers:
                self._spawn_locked(max(workers, self._size))
            return self._executor

    def reset(self) -> None:
        """Terminate the workers and drop the executor (respawns lazily)."""
        with self._lock:
            if self._executor is not None:
                _terminate_workers(self._executor)
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self._size = 0
            self._broken = False

    @property
    def alive(self) -> bool:
        """Whether a usable executor currently exists."""
        with self._lock:
            return self._executor is not None and not self._broken

    def worker_pids(self) -> List[int]:
        """Pids of the current worker processes (may be empty)."""
        with self._lock:
            executor = self._executor
        if executor is None:
            return []
        return sorted((getattr(executor, "_processes", None) or {}).keys())

    def warm(self, workers: int) -> int:
        """Fork the workers ahead of time; returns the effective count.

        Benchmarks call this before timing so the measurement covers the
        steady state the persistent pool exists to provide, not the
        one-time fork cost.
        """
        effective, _ = effective_workers(workers)
        if effective <= 1:
            return effective
        executor = self._ensure_executor(effective)
        futures = [executor.submit(_noop) for _ in range(effective * 2)]
        concurrent.futures.wait(futures, timeout=60.0)
        return effective

    # -- execution ------------------------------------------------------
    def run_shards(
        self,
        context,
        shards: Sequence[Tuple[int, List[int]]],
        timeout_s: float,
        workers: int,
    ) -> Tuple[Dict[int, Any], List[Dict], List[Tuple[int, List[int], WorkerError]], List[int]]:
        """One pool attempt over ``(shard_index, states)`` shards.

        Returns the merged results of the shards that completed, the
        telemetry snapshots workers shipped back with them, an
        ``(shard_index, shard, WorkerError)`` list for the shards that
        did not — a dead worker (OOM-kill, nonzero exit, crashing
        initializer: all surface as ``BrokenProcessPool``), a failed
        submission into an already-broken pool, or the watchdog — and
        the pids of the pool's worker processes.  The watchdog is one
        *absolute* deadline across all futures of the call: ``k`` hung
        shards cost one ``timeout_s``, not ``k`` of them.  A failed
        shard contributes neither results nor a snapshot — its partial
        trace dies with the worker, so nothing half-recorded can merge.
        Guard trips and out-of-memory conditions raised *by the engine
        code in a worker* are not worker failures; they propagate so the
        caller's degradation cascade handles them exactly as in a serial
        run, and the pool stays alive.
        """
        results: Dict[int, Any] = {}
        snapshots: List[Dict] = []
        failures: List[Tuple[int, List[int], WorkerError]] = []
        # Bound before any submission: an executor whose submit raises
        # must surface *that* failure, not an UnboundLocalError.
        worker_pids: List[int] = []

        try:
            executor = self._ensure_executor(workers)
            descriptor = publish_context(context)
        except Exception as error:
            reason = f"pool unavailable: {error}"
            return (
                results,
                snapshots,
                [
                    (index, list(shard), WorkerError(reason, shard=list(shard)))
                    for index, shard in shards
                ],
                worker_pids,
            )

        guard = get_guard()
        remaining = guard.remaining_time()
        deadline = None if remaining is None else time.monotonic() + remaining
        mem_budget = guard.mem_budget_bytes
        observe = get_collector().enabled
        request_id = getattr(get_collector(), "request_id", None)

        future_map: Dict[concurrent.futures.Future, Tuple[int, List[int]]] = {}
        try:
            for index, shard in shards:
                task = _ShardTask(
                    descriptor=descriptor,
                    states=list(shard),
                    observe=observe,
                    deadline=deadline,
                    mem_budget=mem_budget,
                    request_id=request_id,
                )
                future_map[executor.submit(_fan_out_shard, task)] = (
                    index,
                    list(shard),
                )
        except Exception as error:
            # An already-broken pool refuses submissions; the shards that
            # never made it in fail like dead-worker shards.
            self._broken = True
            submitted = {index for index, _ in future_map.values()}
            for index, shard in shards:
                if index not in submitted:
                    failures.append(
                        (
                            index,
                            list(shard),
                            WorkerError(
                                f"pool submit failed: {error}", shard=list(shard)
                            ),
                        )
                    )
        worker_pids = sorted((getattr(executor, "_processes", None) or {}).keys())

        watchdog_deadline = time.monotonic() + float(timeout_s)
        pending = set(future_map)
        timed_out = False
        while pending:
            budget = watchdog_deadline - time.monotonic()
            if budget <= 0.0:
                done: Iterable[concurrent.futures.Future] = ()
            else:
                done, _ = concurrent.futures.wait(
                    pending,
                    timeout=budget,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
            if not done:
                timed_out = True
                for future in pending:
                    future.cancel()
                    index, shard = future_map[future]
                    failures.append(
                        (
                            index,
                            shard,
                            WorkerError(
                                f"shard timed out after {timeout_s:g}s",
                                shard=shard,
                            ),
                        )
                    )
                break
            for future in done:
                pending.discard(future)
                index, shard = future_map[future]
                try:
                    part = future.result()
                except BrokenProcessPool as error:
                    self._broken = True
                    failures.append(
                        (
                            index,
                            shard,
                            WorkerError(f"worker died: {error}", shard=shard),
                        )
                    )
                except (GuardExceeded, MemoryError):
                    # A budget tripped inside the worker's engine code —
                    # the run is over for every shard; surface it to the
                    # cascade.  The workers are healthy: abandon the
                    # remaining futures (their own shipped deadlines
                    # stop them) and keep the pool.
                    for other in pending:
                        other.cancel()
                    raise
                else:
                    pairs, snapshot = _unpack_shard_part(part)
                    for state, result in pairs:
                        results[state] = result
                    if snapshot is not None:
                        snapshots.append(snapshot)
        if timed_out:
            # Hung workers cannot be reused (and would block interpreter
            # exit); kill them now and respawn lazily on the next call.
            self.reset()
        return results, snapshots, failures, worker_pids


_DEFAULT_POOL: Optional[PersistentWorkerPool] = None
_DEFAULT_POOL_LOCK = threading.Lock()


def default_pool() -> PersistentWorkerPool:
    """The process-wide pool used when no explicit pool is supplied."""
    global _DEFAULT_POOL
    with _DEFAULT_POOL_LOCK:
        if _DEFAULT_POOL is None:
            _DEFAULT_POOL = PersistentWorkerPool()
        return _DEFAULT_POOL


def reset_default_pool() -> None:
    """Tear down the process-wide pool (fresh workers on next use).

    Tests that patch the worker-side hooks (``_fan_out_initializer``)
    call this so the patch is part of the next fork snapshot.
    """
    global _DEFAULT_POOL
    with _DEFAULT_POOL_LOCK:
        pool, _DEFAULT_POOL = _DEFAULT_POOL, None
    if pool is not None:
        pool.reset()


def _atexit_cleanup() -> None:  # pragma: no cover - interpreter shutdown
    reset_default_pool()
    _release_all_segments()


atexit.register(_atexit_cleanup)
