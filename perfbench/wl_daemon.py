"""daemon-mixed: a real ``mrmc-impulse serve`` on a Unix socket under a
seeded open loop of mixed requests (see ``corpus.DaemonMix``)."""

from __future__ import annotations

import os
import time
from typing import Dict, List

import corpus
import loadgen
from common import median, percentile
from harness import Daemon, RunContext, run_cli

SETUP_REPEATS = 3
#: Closed-loop passes over one connection: every request waits only for
#: its own service, so these give the gated batch and latency figures.
#: A service round is one pass and one cold CLI run; rounds run before
#: the low leg, before the high leg, before the ladder and after it, so
#: the samples spread over the run.  The counts are fixed, so the daemon
#: serves the same work up to the ladder on every run (its RSS high-water
#: mark is read there), and the run takes about a minute on a quiet 2-core
#: box.
SERVICE_ROUNDS = (2, 2, 1, 1)
SERVICE_REQUESTS = 400
#: Requests per open-loop leg: p99 then has ten samples beyond it.
LEG_REQUESTS = 1000
#: The fixed rates (requests/s) and the rung tried above the high one.
#: Fixed numbers, set once from the seed on a 2-core box without numba,
#: where one connection's closed loop serves this mix at ~175/s when the
#: shared host is quiet and at ~110-130/s when it is busy: the high rate
#: stays below the busy figure.
LOW_RPS = 80.0
HIGH_RPS = 100.0
LADDER_ABOVE = (130.0,)
#: p99 latency limit for the rate legs and the ladder.
LIMIT_MS = 250.0


def connections() -> int:
    return max(1, min(os.cpu_count() or 1, 4))


def prime(ctx: RunContext, ledger: corpus.AnswerLedger, daemon: Daemon,
          requests: List[corpus.Request]) -> None:
    with daemon.client() as client:
        for request in requests:
            params = request.params()
            result = client.check(params["model"], params["formula"],
                                  options=params["options"])
            verify(ctx, ledger, request, result)


def verify(ctx: RunContext, ledger: corpus.AnswerLedger, request: corpus.Request,
           result: dict) -> None:
    budget = result.get("error_budget", {}).get("total", 0.0)
    ctx.tally.record(ledger.verify(
        request.query, result.get("probabilities"), result.get("states", ()), budget
    ))


def check_leg(ctx: RunContext, ledger: corpus.AnswerLedger, leg: loadgen.Leg,
              fixed_rate: bool) -> None:
    """Count the leg's operations.  Errors and wrong answers always fail;
    on a fixed-rate leg (not an exploratory rung above the high rate)
    refusals and lost replies fail too, and when the leg's p99 misses
    the limit so does every request over it."""
    over_p99 = fixed_rate and not leg.meets_latency(LIMIT_MS)
    for sample in leg.samples:
        if sample.result is not None:
            verify(ctx, ledger, sample.request, sample.result)
            if over_p99 and sample.latency_s * 1e3 > LIMIT_MS:
                ctx.tally.fail(f"{sample.latency_s * 1e3:.1f} ms > limit", "latency-limit")
        elif sample.error is not None and not sample.refused:
            ctx.tally.record(f"error {sample.error.get('code')}: "
                             f"{str(sample.error.get('message', ''))[:200]}", "error")
        elif fixed_rate:
            ctx.tally.record("refused" if sample.refused else "no reply",
                             "refused" if sample.refused else "lost")


def run(ctx: RunContext, import_s: float) -> Dict[str, object]:
    mix = corpus.DaemonMix(ctx.seed)
    setups = []
    for index in range(SETUP_REPEATS):
        ledger = corpus.AnswerLedger(ctx.references)
        start = time.perf_counter()
        daemon = Daemon(ctx, f"daemon{index}")
        daemon.wait_ready()
        prime(ctx, ledger, daemon, mix.priming())
        setups.append(time.perf_counter() - start)
        if index < SETUP_REPEATS - 1:
            daemon.stop()

    service, cli_times = [], []

    def service_rounds(count: int) -> None:
        for _ in range(count):
            requests = [r for group in mix.events(SERVICE_REQUESTS) for r in group]
            service.append(loadgen.closed_loop(daemon.socket, requests, 1))
            check_leg(ctx, ledger, service[-1], fixed_rate=False)
            elapsed, problem = run_cli(ctx, mix.cli_query(), "u=1e-8")
            cli_times.append(elapsed)
            ctx.tally.record(problem, "cli")

    links = connections()
    legs = {}
    for rounds, (name, rate) in zip(SERVICE_ROUNDS, (("low", LOW_RPS), ("high", HIGH_RPS))):
        service_rounds(rounds)
        legs[name] = loadgen.open_loop(daemon.socket, mix.events(LEG_REQUESTS),
                                       rate, ctx.seed * 7919 + int(rate), links)
        check_leg(ctx, ledger, legs[name], fixed_rate=True)
    service_rounds(SERVICE_ROUNDS[2])
    # The ladder serves as many requests as the machine allows: read the
    # high-water mark before it, after the same work on every run.
    rss = daemon.peak_rss_mb() or 0.0
    passing = [legs[name] for name in ("low", "high") if legs[name].meets(LIMIT_MS)]
    if len(passing) == 2:
        for rate in LADDER_ABOVE:
            # A rung stops sending once its p99 can no longer meet the limit.
            leg = loadgen.open_loop(daemon.socket, mix.events(LEG_REQUESTS), rate,
                                    ctx.seed * 7919 + int(rate), links,
                                    abort_over_ms=LIMIT_MS)
            check_leg(ctx, ledger, leg, fixed_rate=False)
            legs[f"rung {rate:g}"] = leg
            if not leg.meets(LIMIT_MS):
                break
            passing.append(leg)
    best = passing[-1] if passing else None
    service_rounds(SERVICE_ROUNDS[3])
    service_ms = [v for leg in service for v in leg.latencies_ms()]
    service_walls = [leg.wall_s for leg in service]
    daemon.stop()

    summaries = {name: leg.summary(LIMIT_MS) for name, leg in legs.items()}
    low, high = summaries["low"], summaries["high"]
    max_rate = best.achieved_rps() if best is not None else 0.0
    notes = [
        f"batch_s = closed-loop pass of {SERVICE_REQUESTS} requests over one "
        f"connection (median of {len(service)}); latency_ms.p50 and "
        "latency_ms.tail = p50 and p99 of those passes' requests",
        f"open loop over {links} connections at {LOW_RPS:g}/s and {HIGH_RPS:g}/s, "
        f"then {', '.join(f'{r:g}' for r in LADDER_ABOVE)}/s; limit p99 <= "
        f"{LIMIT_MS:g} ms",
        f"max_rate_rps = achieved rate at the highest rung meeting the limit "
        f"({best.rate:g}/s nominal)" if best is not None else
        "max_rate_rps = 0: no rung met the latency limit",
    ]
    notes.append("service pass walls " + " ".join(f"{v:.2f}" for v in service_walls)
                 + " s; cli " + " ".join(f"{v:.3f}" for v in cli_times) + " s")
    for name, summary in summaries.items():
        notes.append(
            f"{name}: n={summary['n']} p50={summary.get('p50_ms', 0):.2f} ms "
            f"p99={summary.get('p99_ms', 0):.2f} ms ({summary.get('beyond_p99', 0)} "
            f"beyond) refused={summary['refused']} backlog_grew="
            f"{summary['backlog_grew']} lag_max={summary['lag_max_ms']:.2f} ms "
            f"achieved={summary['achieved_rps']:.1f}/s"
        )
    if ledger.underreported:
        notes.append(
            f"KNOWN DEFECT: {ledger.underreported} answers served from the checker's "
            "value cache reported error budget 0; their values hold only within "
            "the budget of the run that computed them (not counted as failures)")
    return {
        "metrics": {
            "setup_s": (median(setups), "s", SETUP_REPEATS),
            "batch_s": (median(service_walls), "s", len(service_walls)),
            "latency_ms.p50": (percentile(service_ms, 50), "ms", len(service_ms)),
            "latency_ms.tail": (percentile(service_ms, 99), "ms", len(service_ms)),
            "cli_cold_s.p50": (median(cli_times), "s", len(cli_times)),
            "peak_rss_mb": (rss, "MiB", 1),
        },
        "notes": notes,
        "figures": {
            "low.latency_ms.p50": (low["p50_ms"], "ms", low["completed"]),
            "low.latency_ms.p99": (low["p99_ms"], "ms", low["completed"]),
            "high.latency_ms.p50": (high["p50_ms"], "ms", high["completed"]),
            "high.latency_ms.p99": (high["p99_ms"], "ms", high["completed"]),
            "max_rate_rps": (max_rate, "req/s", len(best.samples) if best else 0),
        },
    }
