"""Shared helpers: checkout paths, statistics, the machine block, and
process bookkeeping (sessions, RSS high-water marks, shared memory).

Nothing here imports the program under test, so the supervisor
(``run.py``) can use it before it knows whether ``src/`` exists.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODELS = ROOT / "examples" / "models"
REFERENCES = BENCH_DIR / "references.json"
#: Scratch space of all runs, inside the checkout (and git-ignored).
RUNS_DIR = ROOT / ".perfbench"

WORKLOADS = ("tables-cold", "daemon-mixed", "sweep-j2")

#: Where ``multiprocessing.shared_memory`` segments appear on Linux, and
#: the prefix Python gives them.  ``repro.check.pool`` publishes its
#: context arrays through such segments.
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "psm_"

#: File in a run directory listing one session id per line: the run's
#: own process and every daemon it started in a session of its own.
SESSIONS_FILE = "sessions"
RESULT_FILE = "result.json"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# machine block
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_block(seed: int) -> Dict[str, object]:
    """What a reader needs to compare two results, plus the seed."""
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count() or 1,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """Environment for every process a run starts: the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONWARNINGS"] = "ignore::RuntimeWarning:runpy"
    return env


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "r") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name sits in parentheses and may contain spaces.
    return text[text.rfind(")") + 2 :].split()


def session_members(sids: Iterable[int]) -> List[int]:
    """Live (non-zombie) processes whose session id is in ``sids``."""
    wanted = {int(s) for s in sids}
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields: state ppid pgrp session ...
        if fields is None or fields[0] == "Z":
            continue
        if int(fields[3]) in wanted:
            members.append(int(entry))
    return members


def _signal_all(pids: Iterable[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, PermissionError):
            pass


def wait_sessions_empty(sids: Iterable[int], timeout_s: float) -> List[int]:
    """Poll until no process of ``sids`` lives; returns the survivors."""
    sids = list(sids)
    deadline = time.monotonic() + timeout_s
    while True:
        alive = session_members(sids)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def kill_sessions(sids: Iterable[int], grace_s: float = 5.0) -> List[int]:
    """SIGTERM every process of ``sids``, wait, SIGKILL the stragglers.

    Returns the pids that were still alive after the SIGKILL wait (an
    empty list when everything ended).
    """
    sids = list(sids)
    alive = session_members(sids)
    if not alive:
        return []
    _signal_all(alive, signal.SIGTERM)
    alive = wait_sessions_empty(sids, grace_s)
    if alive:
        _signal_all(alive, signal.SIGKILL)
        alive = wait_sessions_empty(sids, grace_s)
    return alive


def read_sessions(run_dir: Path) -> List[int]:
    path = run_dir / SESSIONS_FILE
    try:
        lines = path.read_text().split()
    except OSError:
        return []
    return [int(line) for line in lines if line.strip().isdigit()]


def record_session(run_dir: Path, sid: int) -> None:
    with open(run_dir / SESSIONS_FILE, "a") as handle:
        handle.write(f"{sid}\n")
        handle.flush()
        os.fsync(handle.fileno())


def shm_segments() -> Set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def remove_shm(names: Iterable[str]) -> None:
    for name in names:
        try:
            os.unlink(SHM_DIR / name)
        except OSError:
            pass


def rss_hwm_mb(pid: int) -> Optional[float]:
    """A live process's RSS high-water mark (``VmHWM``) in MiB."""
    try:
        with open(f"/proc/{pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def self_peak_rss_mb() -> float:
    """This process's RSS high-water mark in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def python() -> str:
    return sys.executable
