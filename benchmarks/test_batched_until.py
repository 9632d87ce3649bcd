"""Batched all-states until vs. the per-state loop, and engine shoot-outs.

The batched entry point (:func:`repro.check.until.until_probabilities`)
answers ``P(s, Phi U^I_J Psi)`` for every pending state from one shared
precomputation: the discretization engine runs a single adjoint
(backward) sweep instead of one forward recursion per initial state,
and the uniformization engine reuses one prepared context (uniformized
process, Poisson tables, Omega memos) across all starts.

Four benchmarks:

* ``test_batched_until`` — both engines agree with the per-state loop
  to 1e-10 and the batched discretization sweep is at least 3x faster
  on a multi-state formula (TMR with five pending ``Sup`` states).
* ``test_columnar_vs_legacy`` — the vectorized columnar merged engine
  (``strategy="merged"``) against the dict-frontier dynamic program it
  replaced (``"merged-legacy"``) on TMR-9; asserts a >= 3x speedup on
  the frontier-dominated workload.
* ``test_kernel_backends`` — the compiled kernel backends
  (``repro.kernels``) against the NumPy reference path, timing the
  frontier merge kernel and the (NumPy-only) Omega pass *separately*
  (synthetic microbenchmarks at engine scale) as well as end to end on
  the two TMR-9 workloads; lands under the ``kernels`` key of
  ``BENCH_2.json`` so the speedup claim is attributable to a specific
  loop.  All backends must agree bitwise.  Only numpy/numba are timed —
  the ``"python"`` backend is a test shim, orders of magnitude slower.
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


def test_columnar_vs_legacy(benchmark):
    """Vectorized columnar merged engine vs. the PR-1 dict frontier.

    Two TMR-9 workloads: a frontier-dominated one (reward bound below
    every reachable accumulation, so Omega never fires and the sweep
    cost is pure frontier algebra) and an Omega-heavy one (positive
    thresholds, nonzero probabilities).  The columnar engine must agree
    with the legacy dynamic program to 1e-12 on probabilities and error
    bounds and match its path/class counts exactly; the >= 3x
    acceptance bar is asserted on the frontier-dominated workload,
    where the frontier rebuild is the whole story.
    """
    tmr = build_tmr(9)
    states = list(range(7, 11)) if BENCH_QUICK else list(range(4, 11))
    workloads = [("frontier rb=3000", 3000.0)]
    if not BENCH_QUICK:
        workloads.append(("omega rb=5000", 5000.0))

    rows = []

    def run():
        measured = {}
        for label, reward_bound in workloads:
            legacy, legacy_time, legacy_paths = _engine_sweep(
                tmr, states, reward_bound, "merged-legacy"
            )
            columnar, columnar_time, columnar_paths = _engine_sweep(
                tmr, states, reward_bound, "merged"
            )
            assert columnar_paths == legacy_paths
            for state in states:
                assert (
                    abs(legacy[state].probability - columnar[state].probability)
                    <= 1e-12
                )
                assert (
                    abs(legacy[state].error_bound - columnar[state].error_bound)
                    <= 1e-12
                )
                assert legacy[state].classes == columnar[state].classes
                assert legacy[state].max_depth == columnar[state].max_depth
            measured[label] = (legacy_time, columnar_time, columnar_paths)
            rows.append(
                (
                    label,
                    len(states),
                    f"{legacy_time:.3f}",
                    f"{columnar_time:.3f}",
                    f"{legacy_time / columnar_time:.1f}x",
                    f"{columnar_paths / columnar_time:,.0f}",
                )
            )
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Columnar merged engine vs legacy dict frontier (TMR-9)",
        ["workload", "starts", "legacy s", "columnar s", "speedup", "paths/s"],
        rows,
    )
    update_bench_json(
        "columnar_vs_legacy",
        {
            "model": "tmr-9",
            "initial_states": states,
            "quick": BENCH_QUICK,
            "workloads": {
                label: {
                    "legacy_seconds": legacy_time,
                    "columnar_seconds": columnar_time,
                    "speedup": legacy_time / columnar_time,
                    "paths_per_sec_legacy": paths / legacy_time,
                    "paths_per_sec_columnar": paths / columnar_time,
                }
                for label, (legacy_time, columnar_time, paths) in measured.items()
            },
        },
        path=BENCH_2_JSON,
    )
    legacy_time, columnar_time, _ = measured["frontier rb=3000"]
    assert legacy_time >= 3.0 * columnar_time


def _random_frontier(rng, frontier, num_states, mean_degree):
    """A synthetic CSR model + frontier at engine scale for the merge micro."""
    degrees = rng.integers(1, 2 * mean_degree, size=num_states)
    indptr = np.zeros(num_states + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(degrees)
    num_edges = int(indptr[-1])
    num_moves = 6
    arrays = dict(
        indptr=indptr,
        targets=rng.integers(0, num_states, size=num_edges).astype(np.int64),
        probs=rng.random(num_edges),
        moves=rng.integers(0, num_moves, size=num_edges).astype(np.int64),
        move_lo=rng.integers(0, 1 << 20, size=num_moves).astype(np.int64),
        move_hi=np.zeros(num_moves, dtype=np.int64),
        states=rng.integers(0, num_states, size=frontier).astype(np.int64),
        class_lo=rng.integers(0, 1 << 40, size=frontier).astype(np.int64),
        class_hi=np.zeros(frontier, dtype=np.int64),
        mass=rng.random(frontier),
    )
    arrays["total"] = int(degrees[arrays["states"]].sum())
    return arrays


def _merge_numpy(a):
    """The engine's NumPy reference block over a synthetic frontier."""
    degrees = a["indptr"][1:] - a["indptr"][:-1]
    reps = degrees[a["states"]]
    parents = np.repeat(np.arange(a["states"].shape[0]), reps)
    edges = np.concatenate(
        [np.arange(a["indptr"][s], a["indptr"][s + 1]) for s in a["states"]]
    ).astype(np.int64)
    child_states = a["targets"][edges]
    child_lo = a["class_lo"][parents] + a["move_lo"][a["moves"][edges]]
    child_hi = a["class_hi"][parents] + a["move_hi"][a["moves"][edges]]
    child_mass = a["mass"][parents] * a["probs"][edges]
    order = np.lexsort((child_states, child_lo, child_hi))
    s_states = child_states[order]
    s_lo = child_lo[order]
    s_hi = child_hi[order]
    s_mass = child_mass[order]
    boundary = np.empty(a["total"], dtype=bool)
    boundary[0] = True
    boundary[1:] = (
        (s_states[1:] != s_states[:-1])
        | (s_lo[1:] != s_lo[:-1])
        | (s_hi[1:] != s_hi[:-1])
    )
    starts = np.flatnonzero(boundary)
    return (
        s_states[starts],
        s_lo[starts],
        s_hi[starts],
        np.add.reduceat(s_mass, starts),
    )


def _merge_kernel(kernel, a):
    group_states, group_lo, group_hi, sorted_mass, group_starts = kernel.expand_merge(
        a["states"], a["class_lo"], a["class_hi"], a["mass"], a["indptr"],
        a["targets"], a["probs"], a["moves"], a["move_lo"], a["move_hi"], a["total"],
    )
    return group_states, group_lo, group_hi, np.add.reduceat(sorted_mass, group_starts)


def test_kernel_backends(benchmark):
    """Compiled kernel backends vs. the NumPy reference, attributably.

    Measurements, all asserted bitwise identical to the NumPy path: a
    frontier-merge microbenchmark per backend on a synthetic CSR
    frontier at engine scale, an Omega-pass microbenchmark
    (``value_many`` on a fresh calculator per run, so the memo build is
    part of the measurement; Omega has no compiled kernel, so NumPy
    only), and the two end-to-end TMR-9 workloads of
    ``test_columnar_vs_legacy`` run with ``kernels=<backend>``.  When
    numba is installed (full mode), the frontier-dominated workload
    must not regress under the numba merge kernel.
    """
    from repro import kernels as kernels_mod
    from repro.numerics.orderstat import OmegaCalculator

    numba_ok = kernels_mod.numba_available()
    backends = ["numpy"] + (["numba"] if numba_ok else [])
    compile_seconds = 0.0
    if numba_ok:
        # Compile + warm outside every timed region.
        compile_seconds = kernels_mod.kernel_set("numba").compile_seconds

    rng = np.random.default_rng(7)
    merge_rows = 20_000 if BENCH_QUICK else 400_000
    frontier = _random_frontier(rng, merge_rows, num_states=64, mean_degree=4)
    omega_rows = 5_000 if BENCH_QUICK else 120_000
    coefficients = [0.0, 1.0, 2.0, 3.0, 5.0]
    threshold = 6.5
    counts = rng.integers(0, 25, size=(omega_rows, len(coefficients)))

    tmr = build_tmr(9)
    states = list(range(7, 11)) if BENCH_QUICK else list(range(4, 11))
    workloads = [("frontier rb=3000", 3000.0)]
    if not BENCH_QUICK:
        workloads.append(("omega rb=5000", 5000.0))

    def best_of(callable_, repeats=3):
        elapsed = []
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = callable_()
            elapsed.append(time.perf_counter() - start)
        return result, min(elapsed)

    rows = []

    def run():
        measured = {"merge": {}, "omega": {}, "workloads": {}}
        merge_reference, merge_numpy_s = best_of(lambda: _merge_numpy(frontier))
        measured["merge"]["numpy"] = merge_numpy_s
        _, omega_numpy_s = best_of(
            lambda: OmegaCalculator(coefficients, threshold).value_many(counts)
        )
        measured["omega"]["numpy"] = omega_numpy_s
        if numba_ok:
            kernel = kernels_mod.kernel_set("numba")
            merged, merge_numba_s = best_of(lambda: _merge_kernel(kernel, frontier))
            for ours, ref in zip(merged, merge_reference):
                assert np.array_equal(ours, ref)
            measured["merge"]["numba"] = merge_numba_s
        for kind, sizes in (("merge", merge_rows), ("omega", omega_rows)):
            for backend, seconds in measured[kind].items():
                rows.append(
                    (
                        f"{kind} micro",
                        backend,
                        f"{seconds:.4f}",
                        f"{measured[kind]['numpy'] / seconds:.1f}x",
                        f"{sizes / seconds:,.0f}",
                    )
                )
        for label, reward_bound in workloads:
            per_backend = {}
            reference = None
            for backend in backends:
                start = time.perf_counter()
                results = joint_distribution_all(
                    tmr,
                    states,
                    psi_states=frozenset(range(tmr.num_states)),
                    time_bound=600.0,
                    reward_bound=reward_bound,
                    truncation_probability=1e-9,
                    strategy="merged",
                    truncation="safe",
                    kernels=backend,
                )
                elapsed = time.perf_counter() - start
                if reference is None:
                    reference = results
                else:
                    for state in states:
                        assert results[state].probability == reference[state].probability
                        assert results[state].error_bound == reference[state].error_bound
                        assert (
                            results[state].paths_generated
                            == reference[state].paths_generated
                        )
                paths = sum(r.paths_generated for r in results.values())
                per_backend[backend] = (elapsed, paths)
                rows.append(
                    (
                        label,
                        backend,
                        f"{elapsed:.3f}",
                        f"{per_backend['numpy'][0] / elapsed:.1f}x",
                        f"{paths / elapsed:,.0f}",
                    )
                )
            measured["workloads"][label] = per_backend
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Kernel backends vs NumPy reference"
        + ("" if numba_ok else " (numba not installed: numpy only)"),
        ["workload", "backend", "seconds", "vs numpy", "items/s"],
        rows,
    )
    update_bench_json(
        "kernels",
        {
            "numba_available": numba_ok,
            "compile_seconds": compile_seconds,
            "quick": BENCH_QUICK,
            "merge_micro": {
                "rows": merge_rows,
                "seconds": measured["merge"],
            },
            "omega_micro": {
                "rows": omega_rows,
                "seconds": measured["omega"],
            },
            "workloads": {
                label: {
                    backend: {
                        "seconds": elapsed,
                        "paths_per_sec": paths / elapsed,
                    }
                    for backend, (elapsed, paths) in per_backend.items()
                }
                for label, per_backend in measured["workloads"].items()
            },
        },
        path=BENCH_2_JSON,
    )
    if numba_ok and not BENCH_QUICK:
        merge = measured["workloads"]["frontier rb=3000"]
        assert merge["numba"][0] <= 1.1 * merge["numpy"][0]


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
