"""``mrmc-impulse`` — the command-line model checker.

Usage mirrors the paper's appendix::

    mrmc-impulse model.tra model.lab model.rewr model.rewi [u=1e-8 | d=0.03125] [NP]

or, with a guarded-command model description::

    mrmc-impulse model.mrm [u=1e-8 | d=0.03125] [NP] [-c NAME=VALUE ...]

* ``u=<w>`` selects uniformization with truncation probability ``w`` for
  reward-bounded until formulas; ``d=<step>`` selects discretization with
  factor ``step``.  The default is uniformization with ``w = 1e-8``
  (the appendix default).
* ``NP`` suppresses the computed probabilities; only satisfying states
  are printed.
* ``-c/--const NAME=VALUE`` overrides a ``const`` declaration of a
  ``.mrm`` model (repeatable).
* ``-j/--workers N`` fans the uniformization engine's per-initial-state
  searches out over ``N`` worker processes (clamped to the machine's
  core count; the workers form a persistent shared-memory pool reused
  across formulas, and results are identical to a serial run).
* ``--timeout SECONDS`` and ``--mem-budget BYTES`` (``K``/``M``/``G``
  suffixes accepted) bound each formula's evaluation; on a tripped
  budget the checker degrades through cheaper engine tiers instead of
  aborting, and the printed ``trust`` line says how the answer was
  produced (``exact``, ``degraded`` or ``partial``).  ``--no-degrade``
  turns the cascade off: a tripped budget then fails the formula.
* ``--verbose/-v`` prints a per-phase timing table, engine-cache
  activity, and the error budget of each formula after its result.
* ``--report FILE`` writes the structured run reports of all checked
  formulas to ``FILE`` as JSON (schema ``repro.run-report/3``).
* ``--trace FILE`` writes a Chrome trace-event JSON file covering every
  checked formula — the span tree of the ``Sat()`` recursion, worker
  shard spans, and instant events — loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.
* ``--metrics FILE`` writes a Prometheus text-exposition snapshot of
  the same runs (phase timings, counters, error-budget gauges).

A ``report`` subcommand compares two saved report files::

    mrmc-impulse report diff OLD.json NEW.json

printing wall-clock, phase, error-budget and trust deltas for the
formulas the two runs share.

A ``lint`` subcommand checks sources without running the checker::

    mrmc-impulse lint [--format {text,json}] FILE...

``.mrm`` files run the full front-end pipeline (lex/parse with
multi-error recovery, semantic checks, compile, model lints); any
other file is read as CSRL formulas, one per line (``#`` comments and
blank lines skipped).  Text output uses the classic caret format
(``file:line:col: severity[CODE]: message`` plus a source excerpt);
``--format json`` emits the ``repro.diagnostics/1`` document described
in ``docs/diagnostics.md``.  Exit status is 1 when any *error* was
found (warnings alone exit 0), 2 for unreadable files.

``serve`` and ``client`` subcommands run the checker as a persistent
daemon (newline-delimited JSON-RPC over TCP or a Unix socket) and talk
to it::

    mrmc-impulse serve --socket /tmp/mrmc.sock --mem-ceiling 2G
    mrmc-impulse client --socket /tmp/mrmc.sock check model.mrm -f "P(>0.5) [a U[0,4][0,3] b]"

See :mod:`repro.server` and the "Running as a service" section of
``docs/api.md`` for the protocol, tenancy and coalescing semantics.

When a parse fails in the main checking pipeline, the same caret
diagnostics are printed to stderr after the one-line summary.

Formulas are read one per line, either from ``--formula/-f`` arguments
or from standard input.  Empty lines and lines starting with ``#`` are
skipped.  States in the output are 1-based, matching the file formats.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.check.checker import CheckOptions, ModelChecker
from repro.diag import (
    diagnostics_payload,
    lint_formula_source,
    lint_model_source,
    render_diagnostics,
)
from repro.exceptions import ReproError
from repro.io.bundle import load_mrm
from repro.lang.compiler import load_model
from repro.obs import (
    REPORT_SCHEMA,
    RunReport,
    chrome_trace,
    diff_reports,
    load_report_file,
    prometheus_exposition,
)

__all__ = ["main"]


def _build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrmc-impulse",
        description="CSRL model checker for Markov reward models with impulse rewards",
    )
    parser.add_argument(
        "tra", help="transition file (.tra) or guarded-command model (.mrm)"
    )
    parser.add_argument("lab", nargs="?", default=None, help="labeling file (.lab)")
    parser.add_argument("rewr", nargs="?", default=None, help="state reward file (.rewr)")
    parser.add_argument("rewi", nargs="?", default=None, help="impulse reward file (.rewi)")
    parser.add_argument(
        "method",
        nargs="?",
        default=None,
        help="until engine: u=<truncation probability> or d=<discretization factor>",
    )
    parser.add_argument(
        "np_flag",
        nargs="?",
        default=None,
        metavar="NP",
        help="suppress probability output",
    )
    parser.add_argument(
        "--formula",
        "-f",
        action="append",
        default=[],
        help="CSRL formula to check (repeatable); otherwise read from stdin",
    )
    parser.add_argument(
        "--const",
        "-c",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a const declaration of a .mrm model (repeatable)",
    )
    parser.add_argument(
        "--workers",
        "-j",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for the uniformization engine's "
        "per-initial-state fan-out (default: serial; clamped to the "
        "machine's core count)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per formula; on exhaustion the checker "
        "degrades to cheaper engines instead of aborting",
    )
    parser.add_argument(
        "--mem-budget",
        default=None,
        metavar="BYTES",
        help="memory budget per formula (K/M/G suffixes accepted, "
        "e.g. 512M); enforced at the engines' checkpoints",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail a formula when a budget trips instead of stepping "
        "down through cheaper engine tiers",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="print per-phase timings, cache activity and the error "
        "budget after each formula",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        default=None,
        help="write structured run reports for all formulas to FILE as JSON",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON file (Perfetto-loadable) "
        "covering all checked formulas",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a Prometheus text-exposition metrics snapshot "
        "covering all checked formulas",
    )
    return parser


def _report_main(argv: List[str]) -> int:
    """The ``report`` subcommand (currently: ``diff OLD NEW``)."""
    if len(argv) != 3 or argv[0] != "diff":
        print("usage: mrmc-impulse report diff OLD.json NEW.json", file=sys.stderr)
        return 2
    try:
        old_reports = load_report_file(argv[1])
        new_reports = load_report_file(argv[2])
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.stdout.write(diff_reports(old_reports, new_reports))
    return 0


def _rebase_line(diagnostic, line_offset: int):
    """Shift a diagnostic's span down by ``line_offset`` lines.

    Formula files are linted one line at a time, so the per-line spans
    (always line 1) must be re-anchored to the file line.
    """
    if diagnostic.span is None or line_offset == 0:
        return diagnostic
    span = dataclasses.replace(
        diagnostic.span,
        line=diagnostic.span.line + line_offset,
        end_line=diagnostic.span.end_line + line_offset,
    )
    return dataclasses.replace(diagnostic, span=span)


def _lint_file(path: str):
    """Diagnostics for one file (source text, diagnostic list)."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    if path.endswith(".mrm"):
        return source, lint_model_source(source)
    diagnostics = []
    for index, line in enumerate(source.splitlines()):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        for diagnostic in lint_formula_source(line.rstrip()):
            diagnostics.append(_rebase_line(diagnostic, index))
    return source, diagnostics


def _lint_main(argv: List[str]) -> int:
    """The ``lint`` subcommand: batch front-end checks, no model run."""
    parser = argparse.ArgumentParser(
        prog="mrmc-impulse lint",
        description="lint .mrm models and CSRL formula files without "
        "running the checker",
    )
    parser.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help=".mrm model, or a text file of CSRL formulas (one per line)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text with caret excerpts)",
    )
    args = parser.parse_args(argv)
    per_file = []
    sources = {}
    for path in args.files:
        try:
            source, diagnostics = _lint_file(path)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        sources[path] = source
        per_file.append((path, diagnostics))
    payload = diagnostics_payload(per_file)
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for path, diagnostics in per_file:
            if diagnostics:
                print(
                    render_diagnostics(
                        diagnostics, source=sources[path], filename=path
                    )
                )
        summary = payload["summary"]
        print(
            f"{summary['files']} file(s): "
            f"{summary['errors']} error(s), {summary['warnings']} warning(s)"
        )
    return 1 if payload["summary"]["errors"] else 0


def _print_error_diagnostics(error: BaseException, source: Optional[str]) -> None:
    """Caret excerpts for a raised ParseError, when it carries any."""
    diagnostics = getattr(error, "diagnostics", ())
    if diagnostics:
        print(render_diagnostics(diagnostics, source=source), file=sys.stderr)


def _print_report(report: RunReport) -> None:
    """Render one run report as the --verbose per-phase table."""
    print(f"  wall time: {report.wall_seconds * 1e3:.3f} ms")
    if report.phases:
        width = max(len(p.name) for p in report.phases)
        print("  phase timings:")
        for timing in report.phases:
            print(
                f"    {timing.name:<{width}}  "
                f"{timing.seconds * 1e3:10.3f} ms  x{timing.count}"
            )
    cache = report.cache
    print(
        "  engine cache: "
        f"{cache.get('hits', 0)} hits, {cache.get('misses', 0)} misses, "
        f"{cache.get('evictions', 0)} evictions, "
        f"{cache.get('entries', 0)} entries"
    )
    budget = report.error_budget
    print(
        "  error budget: "
        f"truncation {budget.truncation_mass:.3g} + "
        f"discretization {budget.discretization_defect:.3g} + "
        f"solver residual {budget.solver_residual:.3g} "
        f"= {budget.total:.3g}"
    )
    if report.degradations:
        print("  degradations:")
        for record in report.degradations:
            target = record.get("to") or "partial result"
            print(
                f"    [{record.get('kind', 'engine')}] "
                f"{record.get('from')} -> {target}: {record.get('reason')}"
            )


_SIZE_SUFFIXES = {"K": 1024, "M": 1024**2, "G": 1024**3}


def _parse_size(text: str) -> int:
    """A byte count like ``"2048"``, ``"512M"`` or ``"2G"``."""
    cleaned = text.strip().upper()
    factor = 1
    if cleaned and cleaned[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = float(cleaned)
    except ValueError as error:
        raise ReproError(
            f"bad size {text!r}: expected BYTES with optional K/M/G suffix"
        ) from error
    if value <= 0:
        raise ReproError(f"bad size {text!r}: must be positive")
    return int(value * factor)


def _parse_method(argument: Optional[str]) -> CheckOptions:
    if argument is None:
        return CheckOptions()
    text = argument.strip()
    if "=" not in text:
        raise ReproError(
            f"bad engine argument {argument!r}: expected u=<w> or d=<step>"
        )
    key, _, value = text.partition("=")
    key = key.strip().lower()
    try:
        number = float(value)
    except ValueError as error:
        raise ReproError(f"bad engine parameter {value!r}: {error}") from error
    if key == "u":
        return CheckOptions(until_engine="uniformization", truncation_probability=number)
    if key == "d":
        return CheckOptions(until_engine="discretization", discretization_step=number)
    raise ReproError(f"unknown engine {key!r}: expected 'u' or 'd'")


def _iter_formulas(args: argparse.Namespace, declared):
    """Formulas to check: explicit flags win; then a .mrm model's own
    ``formula`` declarations; stdin as the last resort."""
    if args.formula:
        for formula in args.formula:
            yield None, formula
        return
    if declared:
        for name, formula in declared.items():
            yield name, formula
        return
    for line in sys.stdin:
        text = line.strip()
        if text and not text.startswith("#"):
            yield None, text


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "lint":
        return _lint_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.server.daemon import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        from repro.server.client import client_main

        return client_main(argv[1:])
    parser = _build_argument_parser()
    args = parser.parse_args(argv)

    # A .mrm language model takes a single positional; shift the rest
    # into the method/NP slots.
    positionals = [args.lab, args.rewr, args.rewi, args.method, args.np_flag]
    if args.tra.endswith(".mrm"):
        tail = [p for p in positionals if p is not None]
        if len(tail) > 2:
            print(
                "error: a .mrm model takes at most engine and NP arguments",
                file=sys.stderr,
            )
            return 2
        method_slot = tail[0] if tail else None
        np_slot = tail[1] if len(tail) > 1 else None
    else:
        method_slot = args.method
        np_slot = args.np_flag

    # The positional tail is flexible: "NP" may appear in the method slot.
    method_argument = method_slot
    print_probabilities = True
    for candidate in (method_slot, np_slot):
        if candidate is not None and candidate.upper() == "NP":
            print_probabilities = False
            if candidate is method_slot:
                method_argument = None

    try:
        options = _parse_method(method_argument)
        if args.workers:
            if args.workers < 0:
                raise ReproError(f"bad --workers {args.workers}: must be >= 0")
            options = dataclasses.replace(options, workers=args.workers)
        if args.timeout is not None:
            if args.timeout <= 0:
                raise ReproError(f"bad --timeout {args.timeout}: must be > 0")
            options = dataclasses.replace(options, deadline_s=args.timeout)
        if args.mem_budget is not None:
            options = dataclasses.replace(
                options, mem_budget_bytes=_parse_size(args.mem_budget)
            )
        if args.no_degrade:
            options = dataclasses.replace(options, degrade=False)
        if args.tra.endswith(".mrm"):
            overrides = {}
            for item in args.const:
                name, separator, value = item.partition("=")
                if not separator:
                    raise ReproError(
                        f"bad --const {item!r}: expected NAME=VALUE"
                    )
                overrides[name.strip()] = float(value)
            compiled = load_model(args.tra, constants=overrides or None)
            model = compiled.mrm
            declared_formulas = compiled.formulas
        else:
            if args.lab is None:
                raise ReproError("a .tra model also needs a .lab file")
            model = load_mrm(args.tra, args.lab, args.rewr, args.rewi)
            declared_formulas = None
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        if args.tra.endswith(".mrm"):
            try:
                with open(args.tra, encoding="utf-8") as handle:
                    model_source = handle.read()
            except OSError:
                model_source = None
            _print_error_diagnostics(error, model_source)
        return 2

    checker = ModelChecker(model, options)
    status = 0
    reports = []
    for name, formula in _iter_formulas(args, declared_formulas):
        try:
            result = checker.check(formula)
        except ReproError as error:
            print(f"error: {formula}: {error}", file=sys.stderr)
            _print_error_diagnostics(error, formula)
            status = 1
            continue
        states = sorted(result.states)
        rendered = ", ".join(str(s + 1) for s in states) if states else "(none)"
        title = f"formula {name!r}: " if name else "formula: "
        print(f"{title}{result.formula}")
        print(f"satisfying states: {rendered}")
        if options.guarded or result.trust != "exact":
            print(f"trust: {result.trust}")
        if print_probabilities and result.probabilities is not None:
            for state, value in enumerate(result.probabilities):
                print(f"  state {state + 1}: {value:.12g}")
        if result.report is not None:
            reports.append(result.report)
            if args.verbose:
                _print_report(result.report)
    if args.report is not None:
        payload = {
            "schema": REPORT_SCHEMA,
            "reports": [report.to_dict() for report in reports],
        }
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 2
    if args.trace is not None:
        try:
            with open(args.trace, "w", encoding="utf-8") as handle:
                json.dump(chrome_trace(reports), handle)
                handle.write("\n")
        except OSError as error:
            print(f"error: cannot write trace: {error}", file=sys.stderr)
            return 2
    if args.metrics is not None:
        try:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(prometheus_exposition(reports))
        except OSError as error:
            print(f"error: cannot write metrics: {error}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
