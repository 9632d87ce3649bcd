"""The checking service behind the daemon: models, checkers, execution.

:class:`CheckerService` owns the warm state the daemon exists to keep
alive between requests:

* a bounded **model registry** keyed by content hash — every model
  source (inline or a ``.mrm`` path under the configured root) passes
  the :mod:`repro.diag` lint gate before it is compiled, so untrusted
  sources are rejected up front with their diagnostics instead of
  failing deep inside an engine;
* a bounded **checker registry** keyed by ``(model fingerprint, engine
  options)`` — one :class:`~repro.check.ModelChecker` per combination,
  so Algorithm 4.1's subformula cache and the path-operator value cache
  outlive single requests: P-formulas over the same model that differ
  only in comparison/bound share one batched ``until_probabilities``
  engine run even when they arrive in different requests;
* the shared, thread-safe :class:`~repro.check.EngineCache` (Poisson
  tables, contexts, grids, Omega memos) and, through it, the persistent
  shared-memory worker pool.

Execution is thread-pool based (the engines are synchronous NumPy
code); a per-checker lock serializes runs on one checker — its formula
caches are per-instance state — while distinct models/options execute
concurrently under their own ambient guards and collectors, both of
which are thread-local by design.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Tuple

from repro.check.checker import CheckOptions, ModelChecker
from repro.check.engine_cache import EngineCache
from repro.exceptions import CheckError, ModelError, ParseError
from repro.server.guards import RequestGuard
from repro.server.protocol import ServerError

__all__ = ["RequestSpec", "CheckerService"]

#: ``options`` keys a check request may carry.  ``deadline_s`` /
#: ``mem_budget_bytes`` / ``error_tolerance`` become the request guard
#: (after admission clipping); the rest configure the engines.
_ENGINE_OPTION_KEYS = (
    "until_engine",
    "truncation_probability",
    "discretization_step",
    "path_strategy",
    "truncation_mode",
    "linear_solver",
    "workers",
    "degrade",
)
_GUARD_OPTION_KEYS = ("deadline_s", "mem_budget_bytes", "error_tolerance")
ALLOWED_OPTION_KEYS = _ENGINE_OPTION_KEYS + _GUARD_OPTION_KEYS


@dataclass(frozen=True)
class RequestSpec:
    """One parsed, normalized check request (pre-admission)."""

    tenant: str
    model_key: str
    model_source: str
    constants: Optional[Tuple[Tuple[str, float], ...]]
    formula: str
    options: CheckOptions
    deadline_s: Optional[float]
    mem_budget_bytes: Optional[int]
    error_tolerance: Optional[float]
    include_report: bool = False

    @property
    def coalesce_key(self) -> Hashable:
        """Everything that determines the answer (never the budgets)."""
        opts = self.options
        return (
            self.model_key,
            self.formula,
            opts.until_engine,
            opts.truncation_probability,
            opts.discretization_step,
            opts.path_strategy,
            opts.truncation_mode,
            opts.linear_solver,
            opts.degrade,
        )


@dataclass
class _ModelEntry:
    """One compiled model in the registry."""

    key: str
    mrm: Any
    formulas: Dict[str, str] = field(default_factory=dict)


class CheckerService:
    """Warm model/checker state plus the request execution path."""

    def __init__(
        self,
        model_root: str = ".",
        engine_cache: Optional[EngineCache] = None,
        model_cache_entries: int = 32,
        checker_cache_entries: int = 32,
        max_workers: int = 0,
        default_degrade: bool = True,
    ) -> None:
        self._model_root = os.path.realpath(model_root)
        self._engine_cache = engine_cache if engine_cache is not None else EngineCache()
        self._models: "OrderedDict[str, _ModelEntry]" = OrderedDict()
        self._model_cache_entries = int(model_cache_entries)
        self._checkers: "OrderedDict[Hashable, Tuple[ModelChecker, threading.Lock]]" = (
            OrderedDict()
        )
        self._checker_cache_entries = int(checker_cache_entries)
        self._max_workers = int(max_workers)
        self._default_degrade = bool(default_degrade)
        self._lock = threading.RLock()
        # Test/fault-injection seam: called in the worker thread right
        # before the engine run, with the spec.  Exceptions it raises
        # are classified like any other execution failure.
        self.before_execute: Optional[Callable[[RequestSpec], None]] = None

    # ------------------------------------------------------------------
    @property
    def engine_cache(self) -> EngineCache:
        return self._engine_cache

    def cached_models(self) -> int:
        with self._lock:
            return len(self._models)

    def cached_checkers(self) -> int:
        with self._lock:
            return len(self._checkers)

    # ------------------------------------------------------------------
    # request parsing (event-loop side: cheap, no compilation)
    # ------------------------------------------------------------------
    def parse_request(self, params: Mapping[str, Any]) -> RequestSpec:
        """Validate and normalize a ``check`` request's parameters."""
        formula = params.get("formula")
        if not isinstance(formula, str) or not formula.strip():
            raise ServerError(
                "invalid-request", "'formula' must be a non-empty string"
            )
        tenant = params.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ServerError("invalid-request", "'tenant' must be a string")
        include_report = bool(params.get("include_report", False))
        source, constants = self._model_params(params.get("model"))
        options, deadline, mem_budget, tolerance = self._build_options(
            params.get("options")
        )
        digest = hashlib.sha256()
        digest.update(source.encode("utf-8"))
        if constants:
            digest.update(
                json.dumps(dict(constants), sort_keys=True).encode("utf-8")
            )
        return RequestSpec(
            tenant=tenant,
            model_key=digest.hexdigest(),
            model_source=source,
            constants=constants,
            formula=formula.strip(),
            options=options,
            deadline_s=deadline,
            mem_budget_bytes=mem_budget,
            error_tolerance=tolerance,
            include_report=include_report,
        )

    def _model_params(
        self, model: Any
    ) -> Tuple[str, Optional[Tuple[Tuple[str, float], ...]]]:
        if not isinstance(model, dict):
            raise ServerError(
                "invalid-request",
                "'model' must be an object with 'source' or 'path'",
            )
        constants_raw = model.get("constants")
        constants: Optional[Tuple[Tuple[str, float], ...]] = None
        if constants_raw is not None:
            if not isinstance(constants_raw, dict):
                raise ServerError(
                    "invalid-request", "model 'constants' must be an object"
                )
            try:
                constants = tuple(
                    sorted((str(k), float(v)) for k, v in constants_raw.items())
                )
            except (TypeError, ValueError):
                raise ServerError(
                    "invalid-request", "model constants must be numeric"
                )
        source = model.get("source")
        path = model.get("path")
        if (source is None) == (path is None):
            raise ServerError(
                "invalid-request",
                "'model' needs exactly one of 'source' or 'path'",
            )
        if source is not None:
            if not isinstance(source, str) or not source.strip():
                raise ServerError(
                    "invalid-request", "model 'source' must be .mrm text"
                )
            return source, constants
        if not isinstance(path, str) or not path.endswith(".mrm"):
            raise ServerError(
                "model-error",
                "model 'path' must name a .mrm file under the server's "
                "model root (use inline 'source' for other formats)",
            )
        resolved = os.path.realpath(os.path.join(self._model_root, path))
        if resolved != self._model_root and not resolved.startswith(
            self._model_root + os.sep
        ):
            raise ServerError(
                "model-error",
                f"model path {path!r} escapes the served model root",
            )
        try:
            with open(resolved, "r", encoding="utf-8") as handle:
                return handle.read(), constants
        except OSError as error:
            raise ServerError("model-error", f"cannot read model: {error}")

    def _build_options(
        self, options: Any
    ) -> Tuple[CheckOptions, Optional[float], Optional[int], Optional[float]]:
        if options is None:
            options = {}
        if not isinstance(options, dict):
            raise ServerError("invalid-request", "'options' must be an object")
        unknown = sorted(set(options) - set(ALLOWED_OPTION_KEYS))
        if unknown:
            raise ServerError(
                "invalid-request",
                f"unknown option(s) {', '.join(map(repr, unknown))} "
                f"(allowed: {', '.join(ALLOWED_OPTION_KEYS)})",
            )
        engine_kwargs = {
            key: options[key] for key in _ENGINE_OPTION_KEYS if key in options
        }
        engine_kwargs.setdefault("degrade", self._default_degrade)
        if self._max_workers >= 0 and "workers" in engine_kwargs:
            try:
                engine_kwargs["workers"] = min(
                    int(engine_kwargs["workers"]), self._max_workers
                )
            except (TypeError, ValueError):
                pass  # CheckOptions validation reports it with context
        try:
            built = CheckOptions(observe=True, **engine_kwargs)
        except (CheckError, TypeError) as error:
            raise ServerError("invalid-request", f"bad options: {error}")
        deadline = options.get("deadline_s")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ServerError(
                "invalid-request", "'deadline_s' must be a positive number"
            )
        mem_budget = options.get("mem_budget_bytes")
        if mem_budget is not None:
            if not isinstance(mem_budget, int) or mem_budget < 1:
                raise ServerError(
                    "invalid-request",
                    "'mem_budget_bytes' must be a positive integer",
                )
        tolerance = options.get("error_tolerance")
        if tolerance is not None and (
            not isinstance(tolerance, (int, float)) or tolerance < 0
        ):
            raise ServerError(
                "invalid-request", "'error_tolerance' must be non-negative"
            )
        return built, deadline, mem_budget, tolerance

    # ------------------------------------------------------------------
    # model + checker registries (worker-thread side)
    # ------------------------------------------------------------------
    def _resolve_model(self, spec: RequestSpec) -> _ModelEntry:
        with self._lock:
            entry = self._models.get(spec.model_key)
            if entry is not None:
                self._models.move_to_end(spec.model_key)
                return entry

        from repro.diag import lint_model_source
        from repro.lang.compiler import compile_model

        diagnostics = lint_model_source(spec.model_source)
        # MRM307 is the lint pass compiling with the *declared* constant
        # values; a request that overrides constants may legitimately
        # compile where the defaults do not, so the real compile below
        # stays the authority for that code alone.
        blocking = [
            d
            for d in diagnostics
            if d.severity == "error"
            and not (spec.constants and d.code == "MRM307")
        ]
        if blocking:
            raise ServerError(
                "model-error",
                f"model rejected by lint: {blocking[0].message}",
                data={
                    "diagnostics": [
                        {
                            "code": d.code,
                            "severity": d.severity,
                            "message": d.message,
                        }
                        for d in diagnostics
                    ]
                },
            )
        try:
            compiled = compile_model(
                spec.model_source,
                constants=dict(spec.constants) if spec.constants else None,
            )
        except (ModelError, ParseError, ValueError) as error:
            raise ServerError("model-error", f"model rejected: {error}")
        entry = _ModelEntry(
            key=spec.model_key,
            mrm=compiled.mrm,
            formulas=dict(compiled.formulas or {}),
        )
        with self._lock:
            self._models[spec.model_key] = entry
            while len(self._models) > self._model_cache_entries:
                self._models.popitem(last=False)
        return entry

    def _checker_for(
        self, entry: _ModelEntry, options: CheckOptions
    ) -> Tuple[ModelChecker, threading.Lock]:
        key = (
            entry.mrm.fingerprint(),
            options.until_engine,
            options.truncation_probability,
            options.discretization_step,
            options.path_strategy,
            options.truncation_mode,
            options.linear_solver,
            options.workers,
            options.degrade,
        )
        with self._lock:
            cached = self._checkers.get(key)
            if cached is not None:
                self._checkers.move_to_end(key)
                return cached
            checker = ModelChecker(
                entry.mrm, options, engine_cache=self._engine_cache
            )
            pair = (checker, threading.Lock())
            self._checkers[key] = pair
            while len(self._checkers) > self._checker_cache_entries:
                self._checkers.popitem(last=False)
            return pair

    # ------------------------------------------------------------------
    # execution (worker-thread side)
    # ------------------------------------------------------------------
    def execute(
        self,
        spec: RequestSpec,
        guard: Optional[RequestGuard] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run one admitted request; returns the JSON result body.

        ``request_id`` is the daemon-minted correlation id: it becomes
        the run collector's id (so every span of the trace carries it)
        and is echoed in the result body.

        Raises whatever the front end or engines raise — the daemon maps
        every exception to a typed error response via
        :func:`repro.server.protocol.classify_exception`.
        """
        entry = self._resolve_model(spec)
        formula = entry.formulas.get(spec.formula, spec.formula)
        checker, lock = self._checker_for(entry, spec.options)
        before = self.before_execute
        if before is not None:
            before(spec)
        with lock:
            result = checker.check(formula, guard=guard, request_id=request_id)
        body: Dict[str, Any] = {
            "formula": result.formula,
            "states": sorted(int(s) for s in result.states),
            "probabilities": (
                None
                if result.probabilities is None
                else [float(v) for v in result.probabilities]
            ),
            "trust": result.trust,
            "model_fingerprint": entry.mrm.fingerprint(),
        }
        if request_id is not None:
            body["request_id"] = request_id
        report = result.report
        if report is not None:
            body["wall_seconds"] = report.wall_seconds
            body["engine_cache"] = dict(report.cache)
            body["degradations"] = [dict(r) for r in report.degradations]
            body["error_budget"] = report.error_budget.to_dict()
            if spec.include_report:
                body["report"] = report.to_dict()
        return body
