"""The engine-degradation cascade: which tier to try after a failure.

When a quantitative engine trips a guard budget, runs out of memory, or
fails to converge, crashing the whole ``check()`` call wastes everything
already computed and tells the caller nothing.  Instead the checker
steps down through *engine tiers* — from the fastest, most
memory-hungry configuration toward the slowest, leanest one — re-running
only the failed sub-problem:

* within the uniformization path engine the strategies degrade
  ``merged`` (columnar, large frontiers in RAM) → ``merged-legacy``
  (dict DP, smaller constants) → ``paths`` (per-path truncation swept in
  bounded deepest-first blocks, bounded memory);
* across engines, uniformization and discretization fall back to each
  other (a tier whose preconditions the model violates — e.g.
  non-integral rewards for discretization — is skipped);
* iterative linear solvers already degrade to the direct sparse solve
  inside :func:`repro.numerics.linsolve.solve_linear_system`.

This module is pure configuration logic: it computes the tier sequence
for a starting configuration and formats degradation records.  The
cascade itself is driven by :class:`repro.check.ModelChecker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["EngineTier", "until_tiers", "degradation_record"]

#: Path-strategy ladder within the uniformization engine, fastest (and
#: hungriest) first.
_STRATEGY_LADDER = ("merged", "merged-legacy", "paths")


@dataclass(frozen=True)
class EngineTier:
    """One until-engine configuration the cascade may run.

    Attributes
    ----------
    engine:
        ``"uniformization"`` or ``"discretization"``.
    strategy:
        The path strategy (meaningful for uniformization only; carried
        unchanged for discretization tiers).
    label:
        Human-readable tier name used in degradation records, e.g.
        ``"uniformization/merged"`` or ``"discretization"``.
    """

    engine: str
    strategy: str
    label: str


def _uniformization_tier(strategy: str) -> EngineTier:
    return EngineTier(
        engine="uniformization",
        strategy=strategy,
        label=f"uniformization/{strategy}",
    )


def until_tiers(engine: str, strategy: str) -> List[EngineTier]:
    """The degradation sequence starting from a configuration.

    The first entry is always the configured ``(engine, strategy)``
    itself; later entries are strictly cheaper-in-memory fallbacks.
    Unknown names yield a single tier (validation happens in
    :class:`repro.check.CheckOptions`, not here).
    """
    tiers: List[EngineTier] = []
    if engine == "uniformization":
        start = (
            _STRATEGY_LADDER.index(strategy)
            if strategy in _STRATEGY_LADDER
            else len(_STRATEGY_LADDER) - 1
        )
        for name in _STRATEGY_LADDER[start:]:
            tiers.append(_uniformization_tier(name))
        tiers.append(EngineTier("discretization", strategy, "discretization"))
    elif engine == "discretization":
        tiers.append(EngineTier("discretization", strategy, "discretization"))
        # The bounded-block path sweep is the leanest uniformization
        # configuration.
        tiers.append(_uniformization_tier("paths"))
    else:
        tiers.append(EngineTier(engine, strategy, engine))
    return tiers


def degradation_record(
    operator: str,
    from_tier: str,
    to_tier: Optional[str],
    reason: BaseException,
    kind: str = "engine",
    elapsed_s: Optional[float] = None,
) -> Dict[str, Any]:
    """A JSON-ready record of one degradation step.

    ``to_tier`` is ``None`` when there was nothing left to fall back to
    (the result for the failed sub-problem is *partial*).
    """
    record: Dict[str, Any] = {
        "kind": kind,
        "operator": operator,
        "from": from_tier,
        "to": to_tier,
        "reason": f"{type(reason).__name__}: {reason}",
    }
    phase = getattr(reason, "phase", None)
    if phase is not None:
        record["phase"] = phase
    if elapsed_s is not None:
        record["elapsed_s"] = float(elapsed_s)
    return record
