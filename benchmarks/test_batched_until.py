"""Batched all-states until vs. the per-state loop, and the parallel fan-out.

The batched entry point (:func:`repro.check.until.until_probabilities`)
answers ``P(s, Phi U^I_J Psi)`` for every pending state from one shared
precomputation: the discretization engine runs a single adjoint
(backward) sweep instead of one forward recursion per initial state,
and the uniformization engine reuses one prepared context (uniformized
process, Poisson tables, Omega memos) across all starts.

Two benchmarks:

* ``test_batched_until`` — both engines agree with the per-state loop
  to 1e-10 and the batched discretization sweep is at least 3x faster
  on a multi-state formula (TMR with five pending ``Sup`` states).
* ``test_parallel_fanout`` — ``workers=4`` fan-out through the
  persistent shared-memory pool (warmed before timing) against the
  serial loop; results must be bitwise identical.  Parallel timings are
  only *recorded* as honest on machines with >= ``workers`` cores,
  where the sweep must reach a 2x speedup; on smaller machines the
  clamp runs the sweep serially and the entry is marked
  ``recorded: false``.

The engine benchmarks here land in ``BENCH_2.json`` at the repo root.
Set ``BENCH_QUICK=1`` for a seconds-scale smoke run (used by CI);
assertions on agreement are kept, wall-clock assertions are retained
only where still meaningful.
"""

import os
import time

import numpy as np

from repro.check.paths_engine import joint_distribution_all
from repro.check.until import until_probabilities, until_probability
from repro.models import build_tmr, build_wavelan_modem
from repro.numerics.intervals import Interval

from _bench_utils import BENCH_2_JSON, print_table, update_bench_json

BENCH_QUICK = os.environ.get("BENCH_QUICK", "").strip() not in ("", "0")


def _loop(model, pending, phi, psi, tb, rb, **kwargs):
    return {
        state: until_probability(model, state, phi, psi, tb, rb, **kwargs)
        for state in sorted(pending)
    }


def test_batched_until(benchmark):
    tmr = build_tmr(9)
    sup = tmr.states_with_label("Sup")
    failed = tmr.states_with_label("failed")
    phi = sup | failed
    tb, rb = Interval.upto(40.0), Interval.upto(1000.0)
    disc = dict(engine="discretization", discretization_step=0.25)
    unif = dict(engine="uniformization", truncation_probability=1e-9)

    rows = []

    def run():
        results = {}
        for label, model, phi_s, psi_s, bounds, opts in (
            ("tmr disc", tmr, phi, failed, (tb, rb), disc),
            ("tmr unif", tmr, phi, failed, (tb, rb), unif),
            (
                "wavelan unif",
                build_wavelan_modem(),
                build_wavelan_modem().states_with_label("idle")
                | build_wavelan_modem().states_with_label("busy"),
                build_wavelan_modem().states_with_label("busy"),
                (Interval.upto(2.0), Interval.upto(2000.0)),
                unif,
            ),
        ):
            pending = phi_s - psi_s
            start = time.perf_counter()
            values, _, _ = until_probabilities(
                model, phi_s, psi_s, *bounds, **opts
            )
            batched_time = time.perf_counter() - start
            start = time.perf_counter()
            singles = _loop(model, pending, phi_s, psi_s, *bounds, **opts)
            loop_time = time.perf_counter() - start
            diff = max(
                abs(float(values[s]) - r.probability) for s, r in singles.items()
            )
            results[label] = (len(pending), batched_time, loop_time, diff)
            rows.append(
                (
                    label,
                    len(pending),
                    f"{batched_time:.3f}",
                    f"{loop_time:.3f}",
                    f"{loop_time / batched_time:.1f}x",
                    f"{diff:.2e}",
                )
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Batched all-states until vs per-state loop",
        ["workload", "starts", "batched s", "loop s", "speedup", "max |diff|"],
        rows,
    )
    for pending, _, _, diff in results.values():
        assert diff < 1e-10
    starts, batched_time, loop_time, _ = results["tmr disc"]
    assert starts >= 4
    assert loop_time >= 3.0 * batched_time


def _engine_sweep(model, states, reward_bound, strategy):
    """All-states joint distribution under one engine strategy."""
    start = time.perf_counter()
    results = joint_distribution_all(
        model,
        states,
        psi_states=frozenset(range(model.num_states)),
        time_bound=600.0,
        reward_bound=reward_bound,
        truncation_probability=1e-9,
        strategy=strategy,
        truncation="safe",
    )
    elapsed = time.perf_counter() - start
    paths = sum(r.paths_generated for r in results.values())
    return results, elapsed, paths


def test_parallel_fanout(benchmark):
    """``workers=4`` fan-out vs. the serial all-states loop.

    The probabilities, error bounds and path counts must be bitwise
    identical (the per-state search is deterministic and independent of
    the shared memo state).  The persistent pool is warmed before the
    timed region, so the measurement covers the steady state the pool
    provides — not the one-time fork.

    Honesty rule: this benchmark only *records* parallel timings into
    ``BENCH_2.json`` when the machine actually has ``workers`` cores.
    On a smaller box the worker clamp turns the parallel run into the
    serial path, so a "speedup" measured there would say nothing about
    the fan-out — the entry is marked ``recorded: false`` with the
    clamped timings kept for reference.  On a qualifying machine in
    full mode the sweep speedup must reach 2x; on a clamped machine the
    parallel run must stay within 5% of serial (the clamp's whole
    point).
    """
    tmr = build_tmr(9)
    sup = tmr.states_with_label("Sup")
    failed = tmr.states_with_label("failed")
    time_bound, reward_bound = Interval.upto(40.0), Interval.upto(1000.0)
    states = list(range(7, 11)) if BENCH_QUICK else list(range(4, 11))
    workers = 4
    cpu_count = os.cpu_count() or 1
    honest = cpu_count >= workers

    if honest:
        from repro.check.pool import default_pool

        default_pool().warm(workers)

    def run():
        serial_start = time.perf_counter()
        serial, _, _ = until_probabilities(
            tmr,
            sup | failed,
            failed,
            time_bound,
            reward_bound,
            engine="uniformization",
            truncation_probability=1e-9,
            strategy="merged",
        )
        serial_time = time.perf_counter() - serial_start
        parallel_start = time.perf_counter()
        parallel, _, _ = until_probabilities(
            tmr,
            sup | failed,
            failed,
            time_bound,
            reward_bound,
            engine="uniformization",
            truncation_probability=1e-9,
            strategy="merged",
            workers=workers,
        )
        parallel_time = time.perf_counter() - parallel_start
        assert np.array_equal(np.asarray(serial), np.asarray(parallel))
        all_results, sweep_time, sweep_paths = _engine_sweep(
            tmr, states, 3000.0, "merged"
        )
        parallel_sweep_start = time.perf_counter()
        parallel_results = joint_distribution_all(
            tmr,
            states,
            psi_states=frozenset(range(tmr.num_states)),
            time_bound=600.0,
            reward_bound=3000.0,
            truncation_probability=1e-9,
            strategy="merged",
            truncation="safe",
            workers=workers,
        )
        parallel_sweep_time = time.perf_counter() - parallel_sweep_start
        for state in states:
            assert parallel_results[state].probability == all_results[state].probability
            assert parallel_results[state].error_bound == all_results[state].error_bound
            assert (
                parallel_results[state].paths_generated
                == all_results[state].paths_generated
            )
        return serial_time, parallel_time, sweep_time, parallel_sweep_time, sweep_paths

    serial_time, parallel_time, sweep_time, parallel_sweep_time, sweep_paths = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    mode = "honest" if honest else f"CLAMPED to {min(workers, cpu_count)}"
    print_table(
        f"Serial vs workers={workers} fan-out (TMR-9, {cpu_count} cores, {mode})",
        ["workload", "serial s", "parallel s", "speedup"],
        [
            (
                "until formula",
                f"{serial_time:.3f}",
                f"{parallel_time:.3f}",
                f"{serial_time / parallel_time:.2f}x",
            ),
            (
                "all-states sweep",
                f"{sweep_time:.3f}",
                f"{parallel_sweep_time:.3f}",
                f"{sweep_time / parallel_sweep_time:.2f}x",
            ),
        ],
    )
    payload = {
        "model": "tmr-9",
        "workers": workers,
        "cpu_count": cpu_count,
        "quick": BENCH_QUICK,
        "recorded": honest,
        "until_serial_seconds": serial_time,
        "until_parallel_seconds": parallel_time,
        "sweep_serial_seconds": sweep_time,
        "sweep_parallel_seconds": parallel_sweep_time,
        "sweep_paths_per_sec_serial": sweep_paths / sweep_time,
        "sweep_paths_per_sec_parallel": sweep_paths / parallel_sweep_time,
        "sweep_speedup": sweep_time / parallel_sweep_time,
    }
    if not honest:
        payload["reason"] = (
            f"machine has {cpu_count} cores < workers={workers}: the clamp "
            "ran the 'parallel' sweep serially, so these timings measure "
            "the clamp overhead, not the fan-out"
        )
    update_bench_json("parallel_fanout", payload, path=BENCH_2_JSON)
    if not BENCH_QUICK:
        if honest:
            assert sweep_time / parallel_sweep_time >= 2.0
        else:
            # The clamp must make oversubscription harmless: the
            # "parallel" run degrades to serial plus one event.
            assert sweep_time / parallel_sweep_time >= 0.95
