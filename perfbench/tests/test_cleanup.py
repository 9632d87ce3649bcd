"""The benchmark leaves no process and no shared-memory segment behind,
also when a run is killed mid-workload, and it refuses to run without
the program.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
Each test starts real runs, so the file takes a minute or two.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import common  # noqa: E402
import corpus  # noqa: E402


def _start(workload: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "30", "--trace", "0"],
        cwd=common.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )


def _wait_for(predicate, timeout_s: float):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError("condition not reached in time")


@pytest.mark.parametrize(
    "workload, victim",
    [
        ("daemon-mixed", "supervisor"),  # SIGTERM to run.py
        ("daemon-mixed", "workload"),  # SIGKILL to the workload process
        ("sweep-j2", "supervisor"),  # with pool workers and shm segments
    ],
)
def test_killed_run_leaves_nothing(workload, victim):
    shm_before = common.shm_segments()
    run = _start(workload)
    run_dir = common.RUNS_DIR / f"run-{run.pid}-{workload}"
    try:
        if workload == "daemon-mixed":
            # The workload process and its first daemon are both up.
            sessions = _wait_for(
                lambda: len(common.read_sessions(run_dir)) >= 2
                and common.read_sessions(run_dir), 60)
        else:
            sessions = _wait_for(lambda: common.read_sessions(run_dir), 60)
            # Pool workers forked and a context published to /dev/shm.
            _wait_for(lambda: common.shm_segments() - shm_before, 90)
        time.sleep(0.5)
        if victim == "supervisor":
            run.send_signal(signal.SIGTERM)
        else:
            os.kill(sessions[0], signal.SIGKILL)
        output, _ = run.communicate(timeout=90)
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
    sessions = common.read_sessions(run_dir) or sessions
    assert run.returncode != 0
    if victim == "supervisor":
        # Interrupted: no result line at all.
        assert '"metrics"' not in output
    else:
        assert json.loads(output.strip().splitlines()[-1])["correct"] is False
    assert common.session_members(sessions) == []
    assert common.shm_segments() - shm_before == set()


def test_refuses_without_the_program(tmp_path):
    """A copy holding only BENCHMARK.json and the benchmark fails fast."""
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "tables-cold",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_inputs_follow_the_seed():
    def daemon(seed):
        return [[r.query.formula for r in group]
                for group in corpus.DaemonMix(seed).events(200)]

    assert corpus.tables_queries(5) == corpus.tables_queries(5)
    assert corpus.sweep_queries(5) == corpus.sweep_queries(5)
    assert daemon(5) == daemon(5)
    assert daemon(5) != daemon(6)
    assert corpus.tables_queries(5) != corpus.tables_queries(6)


def test_daemon_mix_proportions():
    requests = [r for group in corpus.DaemonMix(1).events(1000) for r in group]
    kinds = {kind: sum(1 for r in requests if r.kind == kind)
             for kind in ("requery", "fresh-bound", "fresh-model", "pair")}
    assert kinds == {"requery": 700, "fresh-bound": 150, "fresh-model": 50, "pair": 100}
    fresh = [r.query.body for r in requests if r.kind == "fresh-bound"]
    assert len(set(fresh)) == len(fresh)
