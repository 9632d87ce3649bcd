"""Structured run reports: what a ``check()`` did and how trustworthy it is.

A :class:`RunReport` condenses one :class:`~repro.obs.Collector` into a
JSON-serializable record with three audiences:

* **perf tracking** — per-phase wall-clock timings and engine-cache
  hit/miss deltas, so regressions in any engine phase show up run over
  run (``BENCH_3.json`` stores the instrumentation overhead itself);
* **numerical trust** — the :class:`ErrorBudget`: the Poisson/path
  truncation mass given up by the uniformization engine, the
  discretization scheme's mass-defect bound, and the *true* linear-solver
  residual ``‖b − Ax‖∞`` (PAPER.md Ch. 5 reports exactly these
  alongside every probability);
* **debugging** — the raw counters and events, including solver
  fallbacks and cache activity.

The report schema (``repro.run-report/3``) is documented in
``docs/api.md``; :meth:`RunReport.to_dict` emits it and
:meth:`RunReport.from_dict` round-trips it.  Earlier payloads still
load: schema 1 had no ``degradations``/``trust`` (defaults apply) and
schema 2 had no ``trace``/``series`` sections (they default to empty —
those runs simply recorded no span tree or time-series).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.collector import Collector, NullCollector

__all__ = ["ErrorBudget", "PhaseTiming", "RunReport", "REPORT_SCHEMA"]

#: Schema identifier embedded in every serialized report.
REPORT_SCHEMA = "repro.run-report/3"

#: Counter names the engines use to feed the error budget.
TRUNCATION_COUNTER = "error.truncation_mass"
DEFECT_COUNTER = "error.discretization_defect"
#: Event name carrying linear-solver diagnostics (field ``residual``).
LINSOLVE_EVENT = "linsolve"
#: Event names feeding the ``degradations`` report section.
DEGRADATION_EVENT = "guard.degradation"
PARTIAL_EVENT = "guard.partial"
POOL_FAILURE_EVENT = "pool.worker-failure"
SOLVER_FALLBACK_EVENT = "linsolve.fallback"


@dataclass(frozen=True)
class ErrorBudget:
    """Per-formula numerical error decomposition.

    Attributes
    ----------
    truncation_mass:
        Total probability mass discarded by path/Poisson truncation
        (eq. 4.6 bounds plus the Fox–Glynn tail mass of transient
        analysis), summed over the quantitative sub-evaluations.
    discretization_defect:
        Total mass-defect bound of the discretization engine (per-step
        multi-jump probability times the number of steps), summed over
        sub-evaluations; 0 for uniformization-only formulas.
    solver_residual:
        Worst true residual ``‖b − Ax‖∞`` over all linear solves
        (steady-state and unbounded-until systems); 0 when no linear
        system was solved.
    """

    truncation_mass: float = 0.0
    discretization_defect: float = 0.0
    solver_residual: float = 0.0

    @property
    def total(self) -> float:
        """The summed budget — a single *indicative* error magnitude."""
        return self.truncation_mass + self.discretization_defect + self.solver_residual

    def to_dict(self) -> Dict[str, float]:
        return {
            "truncation_mass": self.truncation_mass,
            "discretization_defect": self.discretization_defect,
            "solver_residual": self.solver_residual,
            "total": self.total,
        }

    @staticmethod
    def from_collector(collector: Collector) -> "ErrorBudget":
        """Aggregate the budget from a collector's counters and events.

        Truncation mass and discretization defect accumulate additively
        in their counters; the solver residual is the *maximum* over all
        recorded ``linsolve`` events (residuals of separate systems do
        not add — the worst one dominates the trust statement).
        """
        residual = 0.0
        for event in collector.events_named(LINSOLVE_EVENT):
            value = event.get("residual")
            if value is not None:
                residual = max(residual, float(value))
        return ErrorBudget(
            truncation_mass=float(collector.counter(TRUNCATION_COUNTER)),
            discretization_defect=float(collector.counter(DEFECT_COUNTER)),
            solver_residual=residual,
        )

    @staticmethod
    def mark(collector: NullCollector) -> Optional[Tuple[float, float, float]]:
        """Where ``collector``'s budget stands now, for :meth:`since`."""
        if not isinstance(collector, Collector):
            return None
        return (
            collector.counter(TRUNCATION_COUNTER),
            collector.counter(DEFECT_COUNTER),
            time.perf_counter() - collector.epoch,
        )

    @staticmethod
    def since(
        collector: NullCollector, mark: Optional[Tuple[float, float, float]]
    ) -> "ErrorBudget":
        """The budget parts ``collector`` recorded after :meth:`mark`."""
        if mark is None or not isinstance(collector, Collector):
            return ErrorBudget()
        truncation, defect, start = mark
        residual = 0.0
        for event in collector.events_named(LINSOLVE_EVENT):
            value = event.get("residual")
            if value is not None and event.get("ts", start) >= start:
                residual = max(residual, float(value))
        return ErrorBudget(
            truncation_mass=collector.counter(TRUNCATION_COUNTER) - truncation,
            discretization_defect=collector.counter(DEFECT_COUNTER) - defect,
            solver_residual=residual,
        )

    def replay(self, collector: NullCollector) -> None:
        """Record these parts again, for an answer served from a cache."""
        if self.truncation_mass:
            collector.counter_add(TRUNCATION_COUNTER, self.truncation_mass)
        if self.discretization_defect:
            collector.counter_add(DEFECT_COUNTER, self.discretization_defect)
        if self.solver_residual:
            collector.event(LINSOLVE_EVENT, residual=self.solver_residual, cached=True)


@dataclass(frozen=True)
class PhaseTiming:
    """Aggregated wall-clock time of one named phase."""

    name: str
    seconds: float
    count: int

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seconds": self.seconds, "count": self.count}


@dataclass(frozen=True)
class RunReport:
    """The observable outcome of one ``ModelChecker.check()`` call.

    Attributes
    ----------
    formula:
        Rendered formula text.
    wall_seconds:
        End-to-end duration of the check (parse excluded — it happens
        before the collector is installed — and report assembly
        excluded).
    phases:
        Per-phase timings, insertion-ordered (outer phases first).
    counters:
        Raw counters (search statistics, cache activity, budget feeds).
    events:
        Raw event dicts (solver diagnostics, fallbacks, grid shapes).
    cache:
        Engine-cache activity *during this check* (hit/miss/eviction
        deltas plus the absolute entry count afterwards).
    error_budget:
        The aggregated numerical trust statement.
    trust:
        The run's trust qualification (``"exact"``, ``"degraded"`` or
        ``"partial"`` — see :class:`repro.check.SatResult`).
    degradations:
        Every degradation, fallback, budget trip and worker failure the
        run survived, in order: engine tier step-downs and partial
        fill-ins (``kind: "engine"``/``"partial"``), linear-solver
        direct fallbacks (``kind: "solver"``) and fan-out pool worker
        recoveries (``kind: "pool"``, carrying the shard index and the
        pool's worker pids).
    trace:
        Serialized :class:`~repro.obs.trace.SpanRecord` dicts — the
        hierarchical span tree of the run (one ``sat.*`` span per CSRL
        parse-tree node, engine phases beneath, worker shards merged in
        with their own pids).  Schema 3+; empty for older payloads.
    series:
        Serialized :class:`~repro.obs.series.SeriesChannel` dicts by
        name — bounded convergence time-series (solver residual per
        sweep, truncation mass per epoch, frontier sizes per merge).
        Schema 3+; empty for older payloads.
    """

    formula: str
    wall_seconds: float
    phases: List[PhaseTiming] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    cache: Dict[str, int] = field(default_factory=dict)
    error_budget: ErrorBudget = field(default_factory=ErrorBudget)
    trust: str = "exact"
    degradations: List[Dict[str, Any]] = field(default_factory=list)
    trace: List[Dict[str, Any]] = field(default_factory=list)
    series: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @staticmethod
    def degradations_from_collector(collector: Collector) -> List[Dict[str, Any]]:
        """The ``degradations`` section assembled from a collector's events.

        Engine/partial records are emitted by the checker's cascade as
        ``guard.degradation``/``guard.partial`` events and pass through
        unchanged (minus the event name); solver fallbacks and pool
        worker failures are normalized into the same shape.
        """
        records: List[Dict[str, Any]] = []
        for event in collector.events:
            name = event.get("event")
            if name in (DEGRADATION_EVENT, PARTIAL_EVENT):
                # "ts"/"pid" are trace envelope, not degradation payload.
                record = {
                    k: v for k, v in event.items() if k not in ("event", "ts", "pid")
                }
                record.setdefault(
                    "kind", "partial" if name == PARTIAL_EVENT else "engine"
                )
                records.append(record)
            elif name == SOLVER_FALLBACK_EVENT:
                records.append(
                    {
                        "kind": "solver",
                        "operator": "linsolve",
                        "from": str(event.get("method", "iterative")),
                        "to": "direct",
                        "reason": (
                            f"ConvergenceError: no convergence within "
                            f"{event.get('iterations')} iterations "
                            f"(residual {event.get('residual')})"
                        ),
                    }
                )
            elif name == POOL_FAILURE_EVENT:
                record = {
                    "kind": "pool",
                    "operator": "until",
                    "from": "fork-pool",
                    "to": str(event.get("recovery", "serial")),
                    "reason": str(event.get("reason", "worker failure")),
                }
                if "shard" in event:
                    record["shard"] = list(event["shard"])
                if "shard_index" in event:
                    record["shard_index"] = int(event["shard_index"])
                if "worker_pids" in event:
                    record["worker_pids"] = list(event["worker_pids"])
                records.append(record)
        return records

    @staticmethod
    def from_collector(
        formula: str,
        collector: Collector,
        wall_seconds: float,
        cache: Optional[Mapping[str, int]] = None,
        trust: str = "exact",
    ) -> "RunReport":
        """Condense a collector (plus cache deltas) into a report."""
        phases = [
            PhaseTiming(name=name, seconds=float(total), count=int(count))
            for name, (total, count) in collector.phases.items()
        ]
        return RunReport(
            formula=formula,
            wall_seconds=float(wall_seconds),
            phases=phases,
            counters=dict(collector.counters),
            events=[dict(e) for e in collector.events],
            cache=dict(cache or {}),
            error_budget=ErrorBudget.from_collector(collector),
            trust=str(trust),
            degradations=RunReport.degradations_from_collector(collector),
            trace=[span.to_dict() for span in getattr(collector, "spans", [])],
            series={
                name: channel.to_dict()
                for name, channel in getattr(collector, "series_channels", {}).items()
            },
        )

    # ------------------------------------------------------------------
    def phase(self, name: str) -> Optional[PhaseTiming]:
        """The timing entry for one phase name (None if absent)."""
        for entry in self.phases:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready representation (schema ``repro.run-report/3``)."""
        return {
            "schema": REPORT_SCHEMA,
            "formula": self.formula,
            "wall_seconds": self.wall_seconds,
            "phases": [p.to_dict() for p in self.phases],
            "counters": dict(self.counters),
            "events": [dict(e) for e in self.events],
            "cache": dict(self.cache),
            "error_budget": self.error_budget.to_dict(),
            "trust": self.trust,
            "degradations": [dict(d) for d in self.degradations],
            "trace": [dict(s) for s in self.trace],
            "series": {name: dict(ch) for name, ch in self.series.items()},
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Accepts older payloads too.  Schema 1 carried no ``trust`` or
        ``degradations`` keys, which default to ``"exact"`` and an empty
        list (schema 1 had no way to degrade, so those defaults are the
        truth, not a guess); schema 2 additionally carried no ``trace``
        or ``series`` sections, which default to empty (those runs
        recorded no span tree or time-series).
        """
        budget = payload.get("error_budget", {})
        return RunReport(
            formula=str(payload.get("formula", "")),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            phases=[
                PhaseTiming(
                    name=str(p["name"]),
                    seconds=float(p["seconds"]),
                    count=int(p["count"]),
                )
                for p in payload.get("phases", [])
            ],
            counters={str(k): float(v) for k, v in payload.get("counters", {}).items()},
            events=[dict(e) for e in payload.get("events", [])],
            cache={str(k): int(v) for k, v in payload.get("cache", {}).items()},
            error_budget=ErrorBudget(
                truncation_mass=float(budget.get("truncation_mass", 0.0)),
                discretization_defect=float(budget.get("discretization_defect", 0.0)),
                solver_residual=float(budget.get("solver_residual", 0.0)),
            ),
            trust=str(payload.get("trust", "exact")),
            degradations=[dict(d) for d in payload.get("degradations", [])],
            trace=[dict(s) for s in payload.get("trace", [])],
            series={
                str(name): dict(ch)
                for name, ch in payload.get("series", {}).items()
            },
        )
