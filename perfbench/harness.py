"""What every workload run shares: the run context (seed, run directory,
the daemons it started), the pass/fail tally, the daemon handle, and
cold CLI invocations."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
from corpus import Query, References, cli_model_args

#: Daemon flags: quotas wide enough that the fixed rates are never shed
#: at the seed, so a refusal is a regression, not the configuration.
DAEMON_FLAGS = ("--log-format", "json", "--max-in-flight", "512", "--max-queue", "1024")


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.examples: List[str] = []

    def record(self, problem: Optional[str], kind: str = "wrong-answer") -> None:
        self.attempted += 1
        if problem is not None:
            self.fail(problem, kind)

    def fail(self, problem: str, kind: str) -> None:
        self.failed += 1
        self.reasons[kind] += 1
        if len(self.examples) < 5:
            self.examples.append(problem)


class Rounds:
    """Rounds of a workload's measurement within ``seconds``: the first
    always runs, and another starts only while a round of the median
    length so far still fits."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = time.perf_counter()
        self._round_started = self.started
        self.lengths: List[float] = []

    def another(self) -> bool:
        now = time.perf_counter()
        self._round_started = now
        if not self.lengths:
            return True
        return now - self.started + common.median(self.lengths) <= self.seconds

    def done(self) -> None:
        self.lengths.append(time.perf_counter() - self._round_started)


class RunContext:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 run_dir: Path, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.started = started
        self.tally = Tally()
        self.daemons: List["Daemon"] = []
        self._references: Optional[References] = None

    @property
    def references(self) -> References:
        if self._references is None:
            self._references = References.load()
        return self._references

    def close(self) -> None:
        """Stop every daemon and the library's worker pool."""
        for daemon in self.daemons:
            daemon.stop()
        import sys

        if "repro.check.pool" in sys.modules:
            from repro.check.pool import reset_default_pool

            reset_default_pool()


class Daemon:
    """``mrmc-impulse serve`` in a session of its own, logging to files."""

    def __init__(self, ctx: RunContext, name: str) -> None:
        self.ctx = ctx
        self.socket = f"{name}.sock"  # relative: the run dir is the cwd
        self.log = open(ctx.run_dir / f"{name}.log", "wb")
        command = [
            common.python(), "-m", "repro.cli.main", "serve",
            "--socket", self.socket, "--model-root", str(common.MODELS),
            *DAEMON_FLAGS,
        ]
        self.process = subprocess.Popen(
            command, cwd=ctx.run_dir, env=common.child_env(),
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
            start_new_session=True,
        )
        common.record_session(ctx.run_dir, self.process.pid)
        ctx.daemons.append(self)

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        from repro.server import ServerClient

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            if os.path.exists(self.ctx.run_dir / self.socket):
                try:
                    with ServerClient(socket_path=self.socket, timeout=5.0) as client:
                        client.ping()
                    return
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("daemon did not become ready")

    def client(self):
        from repro.server import ServerClient

        return ServerClient(socket_path=self.socket, timeout=60.0)

    def metrics(self) -> Dict[str, object]:
        with self.client() as client:
            return client.metrics()

    def peak_rss_mb(self) -> Optional[float]:
        return common.rss_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM the daemon's group, wait, then SIGKILL stragglers."""
        if self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                pass
        common.kill_sessions([self.process.pid], grace_s=5.0)
        if self.process.poll() is None:
            self.process.wait(timeout=5.0)
        self.log.close()
        if self in self.ctx.daemons:
            self.ctx.daemons.remove(self)


def time_setup(ctx: RunContext, code: str) -> float:
    """Wall seconds of one fresh interpreter running ``code`` (with the
    benchmark's modules importable): a cold set-up sample."""
    command = [common.python(), "-c",
               f"import sys; sys.path.insert(0, {str(common.BENCH_DIR)!r}); {code}"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ctx.run_dir, env=common.child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - start
    ctx.tally.record(
        None if done.returncode == 0
        else f"set-up exited {done.returncode}: {done.stderr.strip()[-200:]}",
        "setup",
    )
    return elapsed


def run_cli(ctx: RunContext, query: Query, method: str,
            extra: Tuple[str, ...] = ()) -> Tuple[float, Optional[str]]:
    """One cold ``python -m repro.cli.main`` run; (seconds, problem)."""
    model_args = cli_model_args(query.model)
    report = ctx.run_dir / "cli-report.json"
    command = [
        common.python(), "-m", "repro.cli.main", model_args[0], method,
        *model_args[1:], *extra, "--report", str(report), "-f", query.formula,
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ctx.run_dir, env=common.child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        return elapsed, f"cli exited {done.returncode}: {done.stderr.strip()[-200:]}"
    values: Dict[int, float] = {}
    states: List[int] = []
    for line in done.stdout.splitlines():
        line = line.strip()
        if line.startswith("state "):
            index, _, value = line[len("state "):].partition(":")
            values[int(index)] = float(value)
        elif line.startswith("satisfying states:"):
            listed = line.split(":", 1)[1].strip()
            states = [int(s) for s in listed.split(",") if s.strip().isdigit()]
    with open(report, "r", encoding="utf-8") as handle:
        budget = json.load(handle)["reports"][0]["error_budget"]["total"]
    probabilities = [values[i] for i in sorted(values)]
    # The CLI prints 1-based states and 12 significant digits.
    problem = ctx.references.verify(query, probabilities, states, budget + 1e-11, base=1)
    return elapsed, problem
