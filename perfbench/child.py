"""One workload run, in a process and session of its own.

Started by ``run.py`` (never directly): it runs the workload, prints the
human-readable report, and writes the result for the supervisor to
``result.json`` in its run directory (its working directory).  SIGTERM
and SIGINT unwind through ``finally`` so daemons and the worker pool are
stopped on every exit path.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

sys.path.insert(0, str(common.SRC))

MODULES = {"tables-cold": "wl_tables", "daemon-mixed": "wl_daemon", "sweep-j2": "wl_sweep"}


class Interrupted(BaseException):
    """Raised from the SIGTERM/SIGINT handler to unwind the run."""


_MAIN_PID = os.getpid()


def _interrupt(signum, _frame):
    if os.getpid() != _MAIN_PID:
        # A forked pool worker inherited this handler: die as by default.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    raise Interrupted(signum)


def _print_report(workload: str, outcome: dict) -> None:
    print(f"== {workload} ==")
    for key, value in outcome["machine"].items():
        print(f"  machine.{key}: {value}")
    kind = "per-layer" if outcome["trace"] else "end-to-end"
    print(f"  {kind} metrics:")
    for name, (value, unit, n) in outcome["metrics"].items():
        print(f"    {name:<40} {value:>14.6g} {unit:<6} n={n}")
    if outcome.get("figures"):
        print("  workload figures:")
    for name, (value, unit, n) in outcome.get("figures", {}).items():
        print(f"    {name:<40} {value:>14.6g} {unit:<6} n={n}")
    for line in outcome.get("notes", ()):
        print(f"  note: {line}")
    for line in outcome.get("lines", ()):
        print(f"  {line}")
    print(
        f"  attempted={outcome['attempted']} failed={outcome['failed']} "
        f"failed_frac={outcome['failed'] / max(outcome['attempted'], 1):.6g} "
        f"reasons={dict(outcome['reasons'])}"
    )
    for example in outcome["examples"]:
        print(f"  failure: {example}")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)

    workload = importlib.import_module(MODULES[args.workload])
    import_s = time.perf_counter() - STARTED
    from harness import RunContext

    run_dir = Path.cwd()
    ctx = RunContext(args.workload, args.seed, args.seconds, bool(args.trace),
                     run_dir, STARTED)
    try:
        if args.trace:
            import layers

            outcome = layers.run(ctx, args.workload)
        else:
            outcome = workload.run(ctx, import_s)
    finally:
        ctx.close()
    outcome.update(
        trace=bool(args.trace),
        attempted=ctx.tally.attempted,
        failed=ctx.tally.failed,
        reasons=dict(ctx.tally.reasons),
        examples=ctx.tally.examples,
        machine=common.machine_block(args.seed),
    )
    _print_report(args.workload, outcome)
    tmp = run_dir / (common.RESULT_FILE + ".tmp")
    tmp.write_text(json.dumps(outcome, default=str))
    tmp.rename(run_dir / common.RESULT_FILE)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Interrupted:
        sys.exit(130)
