"""Tests for the persistent shared-memory worker pool (repro.check.pool).

Fault-injection coverage (dead workers, hung shards, crashing
initializers, broken submissions) lives in test_failure_injection.py;
trace merging in test_trace.py.  This module covers the pool's own
contracts: contexts travel as shared-memory descriptors (never pickles),
worker clamping, pool persistence across calls, shard planning, and the
publish/attach roundtrip.
"""

import pickle

import numpy as np
import pytest

from repro.check import pool
from repro.check.paths_engine import (
    PathEngineContext,
    joint_distribution_many,
    prepare_path_engine,
)
from repro.models import build_tmr
from repro.obs import Collector, use_collector

ENGINE = dict(
    time_bound=4.0,
    reward_bound=20.0,
    truncation_probability=1e-7,
)


def _context(model, strategy="paths"):
    return prepare_path_engine(
        model,
        psi_states={model.num_states - 1},
        strategy=strategy,
        **ENGINE,
    )


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the box has cores so clamping cannot serialize the test."""
    monkeypatch.setattr(pool, "_cpu_count", lambda: 4)
    yield
    pool.reset_default_pool()


class TestEffectiveWorkers:
    def test_clamps_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(pool, "_cpu_count", lambda: 2)
        assert pool.effective_workers(4) == (2, 2)
        assert pool.effective_workers(2) == (2, 2)
        assert pool.effective_workers(1) == (1, 2)
        assert pool.effective_workers(0) == (0, 2)

    def test_single_core_serializes(self, monkeypatch):
        monkeypatch.setattr(pool, "_cpu_count", lambda: 1)
        assert pool.effective_workers(8) == (1, 1)


class TestPlanShards:
    def test_order_preserving_partition(self):
        model = build_tmr(3)
        context = _context(model)
        states = list(range(model.num_states - 1))
        shards = pool.plan_shards(context, states, workers=2)
        assert all(shard for shard in shards)
        assert [s for shard in shards for s in shard] == states
        assert len(shards) <= 2 * pool.OVERSUBSCRIPTION

    def test_hits_target_when_states_allow(self):
        model = build_tmr(3)
        context = _context(model)
        states = list(range(model.num_states - 1))
        target = min(len(states), 2 * pool.OVERSUBSCRIPTION)
        assert len(pool.plan_shards(context, states, workers=2)) == target

    def test_fewer_states_than_target(self):
        model = build_tmr(3)
        context = _context(model)
        shards = pool.plan_shards(context, [0, 1, 2], workers=4)
        assert shards == [[0], [1], [2]]

    def test_serial_and_empty(self):
        model = build_tmr(3)
        context = _context(model)
        assert pool.plan_shards(context, [4, 2, 7], workers=1) == [[4, 2, 7]]
        assert pool.plan_shards(context, [], workers=4) == []


class TestContextTransfer:
    def test_context_is_never_pickled(self, multicore, monkeypatch):
        """The fan-out must ship descriptors, not pickled contexts.

        The original pool re-pickled the whole context (Poisson tables,
        CSR arrays, successor lists) into every worker via ``initargs``;
        poisoning pickling proves the rebuilt fan-out never does.
        """

        def _boom(self):
            raise AssertionError("PathEngineContext must never be pickled")

        model = build_tmr(3)
        context = _context(model)
        states = list(range(model.num_states - 1))
        serial = joint_distribution_many(context, states)

        monkeypatch.setattr(PathEngineContext, "__reduce__", _boom, raising=False)
        with pytest.raises(Exception):
            pickle.dumps(context)
        parallel = joint_distribution_many(context, states, workers=2)

        assert set(parallel) == set(serial)
        for state in serial:
            assert parallel[state].probability == serial[state].probability
            assert parallel[state].error_bound == serial[state].error_bound

    def test_publish_is_cached_per_context(self):
        model = build_tmr(3)
        context = _context(model)
        first = pool.publish_context(context)
        second = pool.publish_context(context)
        assert first is second

    def test_publish_attach_roundtrip(self):
        model = build_tmr(3)
        context = _context(model)
        descriptor = pool.publish_context(context)
        attached = pool._attach_context(descriptor)
        try:
            assert attached.psi == context.psi
            assert attached.dead == context.dead
            assert attached.state_level == list(context.state_level)
            assert attached.num_states == context.num_states
            assert attached.strategy == context.strategy
            assert attached.pmf.tobytes() == np.ascontiguousarray(
                context.pmf
            ).tobytes()
            assert attached.heads.tobytes() == np.ascontiguousarray(
                context.heads
            ).tobytes()
            for name in ("succ_indptr", "succ_targets", "succ_probs", "succ_moves"):
                assert np.array_equal(
                    getattr(attached, name), getattr(context, name)
                )
            assert not attached.pmf.flags.writeable
        finally:
            entry = pool._WORKER_CONTEXTS.pop(descriptor.token, None)
            del attached
            if entry is not None:
                _, segment = entry
                del entry
                try:
                    segment.close()
                except BufferError:
                    pass

    def test_publish_requires_csr(self):
        import dataclasses

        from repro.exceptions import CheckError

        model = build_tmr(3)
        context = _context(model, strategy="paths")
        stripped = dataclasses.replace(context, succ_indptr=None)
        with pytest.raises(CheckError):
            pool.publish_context(stripped)


class TestWorkerClamping:
    def test_oversubscription_is_clamped_with_event(self, monkeypatch):
        monkeypatch.setattr(pool, "_cpu_count", lambda: 1)
        model = build_tmr(3)
        context = _context(model)
        states = list(range(model.num_states - 1))
        serial = joint_distribution_many(context, states)

        collector = Collector()
        with use_collector(collector):
            clamped = joint_distribution_many(context, states, workers=4)

        (event,) = collector.events_named("pool.workers-clamped")
        assert event["requested"] == 4
        assert event["cpu_count"] == 1
        assert event["effective"] == 1
        for state in serial:
            assert clamped[state].probability == serial[state].probability


class TestPersistence:
    def test_pool_reuses_workers_across_calls(self, multicore):
        worker_pool = pool.PersistentWorkerPool()
        try:
            model = build_tmr(3)
            context = _context(model)
            states = list(range(model.num_states - 1))
            first = joint_distribution_many(
                context, states, workers=2, pool=worker_pool
            )
            pids_after_first = worker_pool.worker_pids()
            second = joint_distribution_many(
                context, states, workers=2, pool=worker_pool
            )
            pids_after_second = worker_pool.worker_pids()
        finally:
            worker_pool.reset()

        assert pids_after_first
        assert pids_after_first == pids_after_second
        assert worker_pool.worker_pids() == []
        for state in first:
            assert first[state].probability == second[state].probability

    def test_warm_forks_ahead_of_time(self, multicore):
        worker_pool = pool.PersistentWorkerPool()
        try:
            assert worker_pool.worker_pids() == []
            effective = worker_pool.warm(2)
            assert effective == 2
            assert len(worker_pool.worker_pids()) >= 1
        finally:
            worker_pool.reset()

    def test_engine_cache_owns_a_pool(self):
        from repro.check.engine_cache import EngineCache

        cache = EngineCache()
        assert cache.worker_pool() is pool.default_pool()
        own = pool.PersistentWorkerPool()
        assert EngineCache(worker_pool=own).worker_pool() is own


class TestAtexitCleanup:
    def test_default_pool_workers_die_at_interpreter_exit(self, tmp_path):
        """Regression for the atexit hook: forked default-pool workers
        must not outlive the parent interpreter (a daemon embedding the
        pool would otherwise leak one orphan set per restart)."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        script = tmp_path / "warm_and_exit.py"
        script.write_text(
            "from repro.check import pool\n"
            "pool._cpu_count = lambda: 8\n"
            "warmed = pool.default_pool().warm(2)\n"
            "assert warmed == 2, warmed\n"
            "pids = pool.default_pool().worker_pids()\n"
            "assert pids\n"
            "print(' '.join(str(p) for p in pids), flush=True)\n"
            # Normal interpreter exit: the atexit hook must reap them.
        )
        repo_src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_src)
        output = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert output.returncode == 0, output.stderr
        pids = [int(p) for p in output.stdout.split()]
        assert pids
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                alive.append(pid)
            if not alive:
                return
            time.sleep(0.05)
        raise AssertionError(f"workers outlived the parent: {alive}")
