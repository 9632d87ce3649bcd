"""sweep-j2: a Table 5.3/5.4-style bound sweep on TMR-9 through the
persistent two-worker pool, then the same sequence serially."""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Tuple

from repro.check import CheckOptions, EngineCache, ModelChecker
from repro.check.pool import default_pool, reset_default_pool

import bench_models
import corpus
from common import median, rss_hwm_mb, self_peak_rss_mb
from harness import RunContext, run_cli

WORKERS = 2
SETUP_REPEATS = 3
#: Cold CLI runs after each (pool pass, serial pass) pair.
CLI_PER_PAIR = 2
#: Seconds one (pool pass, serial pass) pair takes at the seed.
PAIR_SECONDS = 10


def pairs(seconds: int) -> int:
    return max(1, seconds // PAIR_SECONDS)


def options(workers: int) -> CheckOptions:
    return CheckOptions(workers=workers, **dict(corpus.SWEEP_OPTIONS))


def set_up(first: corpus.Query):
    """Model build, pool fork and one check per mode (lazy imports).

    ``first`` is the same query for every seed, so set-up does the same
    work whatever the draw."""
    model = bench_models.build("tmr9")
    default_pool().warm(WORKERS)
    for workers in (WORKERS, 0):
        ModelChecker(model, options(workers), engine_cache=EngineCache()).check(
            first.formula
        )
    return model


def sweep(ctx: RunContext, model, queries, workers: int) -> Tuple[float, List[float], list]:
    """One pass on a fresh checker and cache: (wall, per-query, values)."""
    checker = ModelChecker(model, options(workers), engine_cache=EngineCache())
    times, values = [], []
    start = time.perf_counter()
    for query in queries:
        begin = time.perf_counter()
        result = checker.check(query.formula)
        times.append(time.perf_counter() - begin)
        values.append(result.probabilities)
        problem = ctx.references.verify(
            query, result.probabilities, result.states,
            result.report.error_budget.total,
        )
        ctx.tally.record(problem)
    return time.perf_counter() - start, times, values


def run(ctx: RunContext, import_s: float) -> Dict[str, object]:
    queries = corpus.sweep_queries(ctx.seed)
    warm_up = min(queries, key=lambda q: q.body)
    setups = []
    for _ in range(SETUP_REPEATS):
        reset_default_pool()
        gc.collect()
        start = time.perf_counter()
        model = set_up(warm_up)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + median(setups)

    cli_queries = corpus.sweep_cli_queries(ctx.seed, pairs(ctx.seconds) * CLI_PER_PAIR)
    pooled, serial, per_query, slowest, cli_times = [], [], [], [], []
    for index in range(pairs(ctx.seconds)):
        order = (WORKERS, 0) if index % 2 == 0 else (0, WORKERS)
        values = {}
        for workers in order:
            wall, times, values[workers] = sweep(ctx, model, queries, workers)
            (pooled if workers else serial).append(wall)
            if workers:
                per_query += times
                slowest.append(max(times))
        # The fan-out promises bitwise-identical results.
        ctx.tally.record(
            None if values[WORKERS] == values[0]
            else "workers=2 values differ from workers=0",
            "nondeterminism",
        )
        for _ in range(CLI_PER_PAIR):
            elapsed, problem = run_cli(ctx, cli_queries.pop(), "u=1e-9", ("-j", str(WORKERS)))
            cli_times.append(elapsed)
            ctx.tally.record(problem, "cli")
    worker_rss = [rss_hwm_mb(pid) or 0.0 for pid in default_pool().worker_pids()]
    nproc = os.cpu_count() or 1

    batch_s = median(pooled)
    notes = [
        "latency_ms.tail = slowest query of a workers=2 pass (median over passes)",
        f"batch_s.serial = {median(serial):.4f} s (n={len(serial)}); "
        f"pool speed-up {median(serial) / batch_s:.3f}x",
        f"largest pool worker RSS high-water: {max(worker_rss, default=0.0):.1f} MiB",
    ]
    if nproc < WORKERS:
        notes.append(
            f"NOT COMPARABLE: nproc={nproc} < workers={WORKERS}; the fan-out "
            "figures measure a clamped pool"
        )
    return {
        "metrics": {
            "setup_s": (setup_s, "s", SETUP_REPEATS),
            "batch_s": (batch_s, "s", len(pooled)),
            "latency_ms.p50": (median(per_query) * 1e3, "ms", len(per_query)),
            "latency_ms.tail": (median(slowest) * 1e3, "ms", len(slowest)),
            "cli_cold_s.p50": (median(cli_times), "s", len(cli_times)),
            "peak_rss_mb": (self_peak_rss_mb(), "MiB", 1),
        },
        "notes": notes,
        "figures": {
            "batch_s": (batch_s, "s", len(pooled)),
            "batch_s.serial": (median(serial), "s", len(serial)),
            "query_s.p50": (median(per_query), "s", len(per_query)),
            "pool_worker_peak_rss_mb": (max(worker_rss, default=0.0), "MiB", len(worker_rss)),
        },
    }
