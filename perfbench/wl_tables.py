"""tables-cold: the paper's Chapter 5 experiments, serial, every query on
a fresh ``ModelChecker`` and ``EngineCache``, plus cold CLI runs."""

from __future__ import annotations

import random
import time
from typing import Dict, List

from repro.check import CheckOptions, EngineCache, ModelChecker

import bench_models
import corpus
from common import median, self_peak_rss_mb
from harness import Rounds, RunContext, run_cli, time_setup

MODELS = ("tmr3", "tmr11", "tmr11v", "cluster.mrm", "queue", "phone")
#: Cold CLI runs per round, so the CLI samples spread over the run.
CLI_PER_ROUND = 1
#: Cheap queries run once before the clock starts, one per engine and
#: operator, so that lazy imports and first calls are not timed (the
#: first check of a process costs ~0.8 s more; the cold CLI runs and the
#: set-up samples still pay it).
WARM_UP = ("5.3 t=100", "5.8 t=50", "cluster until", "cluster.mrm S", "cluster.mrm X")
#: Rounds a run may hold at most (a round takes 6-15 s on a 2-core box).
MAX_ROUNDS = 64
#: A fresh process that imports the benchmark's checker stack and builds
#: the models: one set-up sample per round.
SETUP_CODE = "import wl_tables; wl_tables.build_models()"


def build_models() -> Dict[str, object]:
    return {name: bench_models.build(name) for name in MODELS}


def check_query(models, query: corpus.Query):
    options = CheckOptions(**dict(query.options))
    checker = ModelChecker(models[query.model], options, engine_cache=EngineCache())
    return checker.check(query.formula)


def verify(ctx: RunContext, query: corpus.Query, result) -> None:
    budget = result.report.error_budget.total
    problem = ctx.references.verify(query, result.probabilities, result.states, budget)
    if problem is None and query.paper_state is not None:
        problem = ctx.references.paper_check(
            query, result.probabilities[query.paper_state], budget
        )
    ctx.tally.record(problem)


def run(ctx: RunContext, import_s: float) -> Dict[str, object]:
    models = build_models()
    ctx.references  # noqa: B018 - loaded before the clock starts
    queries = corpus.tables_queries(ctx.seed)
    for query in queries:
        if query.label in WARM_UP:
            verify(ctx, query, check_query(models, query))
    order = random.Random(f"tables-cold/order/{ctx.seed}")
    cli_queries = corpus.tables_cli_queries(ctx.seed, MAX_ROUNDS * CLI_PER_ROUND)
    per_query: List[List[float]] = [[] for _ in queries]
    pass_walls, cli_times, setups = [], [], []
    rounds = Rounds(ctx.seconds)
    while rounds.another() and len(pass_walls) < MAX_ROUNDS:
        # One pass over the query set, in a seeded order of its own.
        batch = list(range(len(queries)))
        order.shuffle(batch)
        batch_start = time.perf_counter()
        for index in batch:
            start = time.perf_counter()
            result = check_query(models, queries[index])
            per_query[index].append(time.perf_counter() - start)
            verify(ctx, queries[index], result)
        pass_walls.append(time.perf_counter() - batch_start)
        for _ in range(CLI_PER_ROUND):
            elapsed, problem = run_cli(ctx, cli_queries.pop(), "u=1e-11")
            cli_times.append(elapsed)
            ctx.tally.record(problem, "cli")
        setups.append(time_setup(ctx, SETUP_CODE))
        rounds.done()

    medians = [median(times) for times in per_query]
    slowest = max(range(len(queries)), key=lambda i: medians[i])
    n = len(pass_walls)
    return {
        "metrics": {
            "setup_s": (median(setups), "s", len(setups)),
            "batch_s": (median(pass_walls), "s", n),
            "latency_ms.p50": (median(medians) * 1e3, "ms", len(medians)),
            "latency_ms.tail": (medians[slowest] * 1e3, "ms", n),
            "cli_cold_s.p50": (median(cli_times), "s", len(cli_times)),
            "peak_rss_mb": (self_peak_rss_mb(), "MiB", 1),
        },
        "notes": [
            f"{n} rounds; batch_s = median over the rounds of one pass's wall time "
            f"over the {len(queries)} queries",
            "latency_ms.p50 = median over the queries of their median times; "
            f"latency_ms.tail = the slowest query's median time ({queries[slowest].label})",
            "engine-cache hit ratio is 0 by construction (fresh cache per query)",
            "per round: pass wall " + " ".join(f"{v:.2f}" for v in pass_walls)
            + " s; slowest query " + " ".join(f"{v:.2f}" for v in per_query[slowest])
            + " s; cold CLI " + " ".join(f"{v:.3f}" for v in cli_times)
            + " s; set-up " + " ".join(f"{v:.3f}" for v in setups) + " s",
        ],
        "figures": {
            "batch_s": (median(pass_walls), "s", n),
            "query_s.p50": (median(medians), "s", len(medians)),
            "cli_cold_s.p50": (median(cli_times), "s", len(cli_times)),
        },
    }
