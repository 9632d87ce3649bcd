"""The repository's benchmark: cold paper tables, a warm daemon under an
open loop, and a two-worker bound sweep.

Run from the checkout root::

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each workload runs in a child process of its own session.  This
supervisor enforces a time limit, forwards SIGINT/SIGTERM, and after
every run checks that no process of the run's sessions survived and no
shared-memory segment it created remains; either leftover is removed,
counted as a failure and fails the command.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

#: A run must end within 180 s; leave room for the clean-up after it.
CHILD_TIMEOUT_S = 160.0
#: How long processes of a finished run may take to exit on their own
#: (the shared-memory resource tracker exits when its parent does).
SETTLE_S = 3.0


class _Stop(Exception):
    pass


def _on_signal(signum, _frame):
    raise _Stop(signum)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in its own session; returns the verdict."""
    run_dir = common.RUNS_DIR / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    shm_before = common.shm_segments()
    command = [
        common.python(), str(common.BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    child = subprocess.Popen(command, cwd=run_dir, env=common.child_env(),
                             stdin=subprocess.DEVNULL, start_new_session=True)
    common.record_session(run_dir, child.pid)
    verdict = {"workload": workload, "problems": []}
    interrupted = None
    try:
        child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        verdict["problems"].append(f"timed out after {CHILD_TIMEOUT_S:g} s")
    except _Stop as stop:
        interrupted = stop
    finally:
        if child.poll() is None:
            # Let the child unwind (it stops its daemons), then force.
            os.killpg(child.pid, signal.SIGTERM)
            try:
                child.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        sessions = common.read_sessions(run_dir)
        survivors = common.wait_sessions_empty(sessions, SETTLE_S)
        if survivors:
            verdict["problems"].append(f"surviving processes {survivors}")
        stuck = common.kill_sessions(sessions)
        if stuck:
            verdict["problems"].append(f"unkillable processes {stuck}")
        leaked = common.shm_segments() - shm_before
        if leaked:
            verdict["problems"].append(f"leaked shared memory {sorted(leaked)}")
            common.remove_shm(leaked)
    if interrupted is not None:
        raise interrupted
    if child.returncode != 0:
        verdict["problems"].append(f"workload exited with {child.returncode}")
    result_path = run_dir / common.RESULT_FILE
    if result_path.exists():
        verdict["result"] = json.loads(result_path.read_text())
    if not verdict["problems"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    return verdict


def summarize(verdicts) -> dict:
    attempted = failed = 0
    metrics = {}
    correct = True
    for verdict in verdicts:
        result = verdict.get("result")
        problems = len(verdict["problems"])
        if result is None:
            attempted += 1 + problems
            failed += 1 + problems
            correct = False
            continue
        attempted += result["attempted"] + problems
        failed += result["failed"] + problems
        correct = correct and result["failed"] == 0 and problems == 0
        prefix = "" if len(verdicts) == 1 else f"{verdict['workload']}/"
        for name, (value, unit, _n) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*common.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro").is_dir() or not common.MODELS.is_dir():
        print(f"error: no program to measure under {common.ROOT}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    verdicts = []
    try:
        for workload in workloads:
            verdict = run_workload(workload, args.seed, args.seconds, args.trace)
            for problem in verdict["problems"]:
                print(f"  FAILED ({workload}): {problem}")
            verdicts.append(verdict)
    except _Stop as stop:
        print(f"interrupted by signal {stop.args[0]}; run stopped", file=sys.stderr)
        return 128 + int(stop.args[0])
    summary = summarize(verdicts)
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0 if all(not v["problems"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
