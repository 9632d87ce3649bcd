"""Recompute ``references.json``: the values every answer is checked against.

Run from the checkout root (takes a few minutes on one core)::

    python3 perfbench/make_references.py            # recompute every entry
    python3 perfbench/make_references.py --missing  # only entries not stored yet

Settings are tighter than any the benchmark measures with: time- and
reward-bounded until uses the columnar ``merged`` engine at w = 1e-12
(1e-10 on the 11-module TMR, whose frontier at 1e-12 needs ~1 GB), next uses the loop reference ``next_probabilities_reference``
(independent of the vectorized operator the checker runs), and steady
state uses the direct linear solver.  Each entry stores the per-state
values and the error budget the reference run itself reported.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

sys.path.insert(0, str(common.SRC))

from repro.check import CheckOptions, EngineCache, ModelChecker  # noqa: E402
from repro.check.next_op import next_probabilities_reference  # noqa: E402
from repro.numerics.intervals import Interval  # noqa: E402

import bench_models  # noqa: E402
import corpus  # noqa: E402

UNTIL_OPTIONS = CheckOptions(path_strategy="merged", truncation_probability=1e-12)
LARGE_UNTIL_OPTIONS = CheckOptions(path_strategy="merged", truncation_probability=1e-10)
LARGE_MODELS = ("tmr11", "tmr11v")
STEADY_OPTIONS = CheckOptions(linear_solver="direct")
_NEXT = re.compile(r"X\[0,([^\]]+)\]\[0,([^\]]+)\] (\w+)")


def wanted_queries():
    """Every (model, kind, body) any workload can ask about."""
    queries = list(corpus._tables_templates())
    for model in ("cluster.mrm", "queue", "phone"):
        for t in corpus.NEXT_TIMES:
            for r in corpus.NEXT_REWARDS:
                queries.append(corpus.Query(model, "P", corpus.next_body(model, t, r)))
    for t in corpus.TABLE_5_8:
        queries.append(corpus.Query("tmr.mrm", "P", corpus._until(t, 3000)))
    for t in corpus.SWEEP_TIMES:
        for r in corpus.SWEEP_REWARDS:
            queries.append(corpus.Query("tmr9", "P", corpus._until(t, r, "TT")))
    for t in (50, 100):
        for r in (1000, 3000):
            queries.append(
                corpus.Query("tmr.mrm#N=9", "P", corpus._until(t, r, "TT"))
            )
    queries += corpus.daemon_base_queries()
    for t in corpus.FRESH_TIMES:
        queries.append(corpus.Query("tmr.mrm", "P", corpus._until(t, 3000)))
    for index in range(len(corpus.FRESH_FAILURE_RATES)):
        queries.append(
            corpus.Query(corpus.fresh_model_key(index), "P", corpus.FRESH_MODEL_BODY)
        )
    unique = {}
    for query in queries:
        unique.setdefault(query.ref_key, query)
    return list(unique.values())


def reference(model, query):
    if query.kind == "S":
        checker = ModelChecker(model, STEADY_OPTIONS, engine_cache=EngineCache())
        result = checker.check(query.formula)
        return list(result.probabilities), result.report.error_budget.total
    match = _NEXT.fullmatch(query.body)
    if match:
        values = next_probabilities_reference(
            model,
            model.states_with_label(match.group(3)),
            Interval.upto(float(match.group(1))),
            Interval.upto(float(match.group(2))),
        )
        return [float(v) for v in values], 0.0
    options = LARGE_UNTIL_OPTIONS if query.model in LARGE_MODELS else UNTIL_OPTIONS
    checker = ModelChecker(model, options, engine_cache=EngineCache())
    result = checker.check(query.formula)
    return list(result.probabilities), result.report.error_budget.total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--missing", action="store_true",
                        help="keep the stored entries; compute only the absent ones")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    models = {}
    values = {}
    if args.missing and common.REFERENCES.exists():
        values = json.loads(common.REFERENCES.read_text(encoding="utf-8"))["values"]
    for query in wanted_queries():
        if query.ref_key in values:
            continue
        model = models.get(query.model)
        if model is None:
            model = models[query.model] = bench_models.build(query.model)
        probabilities, budget = reference(model, query)
        values[query.ref_key] = {
            "p": [float(f"{p:.15g}") for p in probabilities],
            "budget": float(f"{budget:.3g}") if budget else 0.0,
        }
    payload = {
        "schema": "perfbench.references/1",
        "settings": {
            "until": "merged, truncation_mode=safe, w=1e-12 (1e-10 on tmr11*)",
            "next": "next_probabilities_reference",
            "steady": "linear_solver=direct",
        },
        "values": values,
    }
    with open(common.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"{len(values)} references in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
