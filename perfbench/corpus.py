"""The benchmark's inputs, made from ``--seed``, and their references.

A seed changes which comparison and bound each ``P``/``S`` query uses,
the order queries run in, the cheap next-operator intervals, and the
daemon's request mix and arrival times.  It never changes the engine
work of the paper tables or the sweep, so run-to-run spread measures
the machine, not the draw.

Every answer is compared with ``references.json`` (computed by
``make_references.py`` with tighter settings) within the error budget
the answer itself reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from common import MODELS, REFERENCES

# ----------------------------------------------------------------------
# the paper's printed rows (Ch. 5): t or n -> (P, E, T seconds)
# ----------------------------------------------------------------------
TABLE_5_3 = {
    50: (0.005087386344177422, 2.4358698148888235e-9, 0.01),
    100: (0.010200965534212462, 1.2515341178826049e-8, 0.02),
    150: (0.015292345758962047, 3.082240323341275e-8, 0.04),
    200: (0.020357846035241836, 9.586925654419818e-8, 0.08),
    250: (0.025397296769503298, 2.23071030162702e-7, 0.161),
    300: (0.0304108011763401, 3.719970665306907e-7, 0.29),
    350: (0.035398424356873154, 8.059405465802234e-7, 0.481),
    400: (0.037778881862768586, 1.8187796388985496e-5, 0.791),
    450: (0.035702997386052426, 2.09565155821465e-3, 1.142),
    500: (0.033399142731982794, 1.19809420907302e-2, 1.512),
}
#: Summed per-start T of Tables 5.5 and 5.7 (one all-states check here).
TABLE_5_5_T = 2.734
TABLE_5_7_T = 4.445
#: t -> (P, T seconds) of Table 5.8 (discretization, d = 0.25).
TABLE_5_8 = {
    50: (0.005061779415718182, 14.409),
    100: (0.010175568967901463, 88.118),
    150: (0.015267158582408371, 345.652),
    200: (0.020332872743413364, 1592.433),
}
#: Table 5.8's values match the paper's to this (rates fully specified).
TABLE_5_8_PAPER_TOL = 1e-6

TABLE_5_3_TIMES = (100, 200, 300, 500)
SWEEP_TIMES = tuple(range(50, 501, 50))
SWEEP_REWARDS = (1000, 3000, 5000)
NEXT_TIMES = (0.5, 1.0, 2.0, 5.0)
NEXT_REWARDS = (10, 50, 100)

#: Daemon fresh-request grids (each entry has a stored reference).
FRESH_TIMES = tuple(20 + k / 10 for k in range(2000))
FRESH_FAILURE_RATES = tuple(0.0004 * (1 + k / 2000) for k in range(1, 601))
FRESH_MODEL_BODY = "Sup U[0,100][0,3000] failed"

MERGED = (("path_strategy", "merged"),)
TABLE_5_3_OPTIONS = (
    ("path_strategy", "paths"),
    ("truncation_mode", "paper"),
    ("truncation_probability", 1e-11),
)
TABLE_5_5_OPTIONS = (
    ("path_strategy", "merged"),
    ("truncation_mode", "paper"),
    ("truncation_probability", 1e-8),
)
TABLE_5_8_OPTIONS = (
    ("until_engine", "discretization"),
    ("discretization_step", 0.25),
)
SWEEP_OPTIONS = (("path_strategy", "merged"), ("truncation_probability", 1e-9))

_OPS = (">", ">=", "<", "<=")


def fmt(number: float) -> str:
    """Shortest text that reads back as ``number``."""
    text = repr(float(number))
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class Query:
    """One CSRL query: ``P(op bound) [body]`` or ``S(op bound) body``."""

    model: str
    kind: str
    body: str
    options: Tuple[Tuple[str, Any], ...] = ()
    op: str = ">"
    bound: float = 0.5
    label: str = ""
    #: The paper's printed (P, E, T) for the state ``paper_state``.
    paper: Optional[Tuple[float, ...]] = None
    paper_state: Optional[int] = None

    @property
    def formula(self) -> str:
        if self.kind == "P":
            return f"P({self.op}{fmt(self.bound)}) [{self.body}]"
        return f"S({self.op}{fmt(self.bound)}) {self.body}"

    @property
    def ref_key(self) -> str:
        return f"{self.model}|{self.kind}|{self.body}"

    def with_threshold(self, rng: random.Random) -> "Query":
        return Query(
            self.model, self.kind, self.body, self.options,
            rng.choice(_OPS), round(rng.uniform(0.001, 0.999), 4),
            self.label, self.paper, self.paper_state,
        )


def _until(t: float, r: float, phi: str = "Sup", psi: str = "failed") -> str:
    return f"{phi} U[0,{fmt(t)}][0,{fmt(r)}] {psi}"


# ----------------------------------------------------------------------
# tables-cold
# ----------------------------------------------------------------------
def _tables_templates() -> List[Query]:
    queries = [
        Query("tmr3", "P", _until(t, 3000), TABLE_5_3_OPTIONS,
              label=f"5.3 t={t}", paper=TABLE_5_3[t], paper_state=3)
        for t in TABLE_5_3_TIMES
    ]
    queries.append(Query("tmr11", "P", "TT U[0,100][0,2000] allUp",
                         TABLE_5_5_OPTIONS, label="5.5 all n",
                         paper=(None, None, TABLE_5_5_T)))
    queries.append(Query("tmr11v", "P", "TT U[0,100][0,2000] allUp",
                         TABLE_5_5_OPTIONS, label="5.7 all n",
                         paper=(None, None, TABLE_5_7_T)))
    queries += [
        Query("tmr3", "P", _until(t, 3000), TABLE_5_8_OPTIONS,
              label=f"5.8 t={t}", paper=(TABLE_5_8[t][0], None, TABLE_5_8[t][1]),
              paper_state=3)
        for t in TABLE_5_8
    ]
    queries.append(Query("cluster.mrm", "P", _until(100, 500, "serving", "down"),
                         MERGED, label="cluster until"))
    queries.append(Query("phone", "P",
                         "(Call_Idle || Doze) U[0,24][0,600] Call_Initiated",
                         MERGED, label="phone until"))
    for model, label in (("cluster.mrm", "healthy"), ("queue", "congested"),
                         ("phone", "Call_Idle")):
        queries.append(Query(model, "S", label, label=f"{model} S"))
    return queries


def next_body(model: str, t: float, r: float) -> str:
    target = {"cluster.mrm": "down", "queue": "full", "phone": "Call_Initiated"}[model]
    return f"X[0,{fmt(t)}][0,{fmt(r)}] {target}"


def tables_queries(seed: int) -> List[Query]:
    """The tables-cold query set: fixed engine work, seeded thresholds,
    next-operator intervals and order."""
    rng = random.Random(f"tables-cold/{seed}")
    queries = [q.with_threshold(rng) for q in _tables_templates()]
    for model in ("cluster.mrm", "queue", "phone"):
        body = next_body(model, rng.choice(NEXT_TIMES), rng.choice(NEXT_REWARDS))
        queries.append(Query(model, "P", body, label=f"{model} X").with_threshold(rng))
    rng.shuffle(queries)
    return queries


def tables_cli_queries(seed: int, count: int) -> List[Query]:
    rng = random.Random(f"tables-cold/cli/{seed}")
    return [
        Query("tmr.mrm", "P", _until(rng.choice(tuple(TABLE_5_8)), 3000),
              label="cli").with_threshold(rng)
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# sweep-j2
# ----------------------------------------------------------------------
def sweep_queries(seed: int) -> List[Query]:
    rng = random.Random(f"sweep-j2/{seed}")
    queries = [
        Query("tmr9", "P", _until(t, r, "TT"), SWEEP_OPTIONS,
              label=f"t={t} r={r}").with_threshold(rng)
        for t in SWEEP_TIMES
        for r in SWEEP_REWARDS
    ]
    rng.shuffle(queries)
    return queries


def sweep_cli_queries(seed: int, count: int) -> List[Query]:
    rng = random.Random(f"sweep-j2/cli/{seed}")
    return [
        Query("tmr.mrm#N=9", "P",
              _until(rng.choice((50, 100)), rng.choice((1000, 3000)), "TT"),
              label="cli").with_threshold(rng)
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# daemon-mixed
# ----------------------------------------------------------------------
def daemon_base_queries() -> List[Query]:
    """Path formulas answered while priming; re-queries target them."""
    queries = [
        Query("tmr.mrm", "P", _until(t, r), MERGED)
        for t in (25, 50, 100, 150, 200)
        for r in (1000, 3000)
    ]
    queries += [Query("tmr.mrm", "P", _until(t, 3000, "TT", "vdown"), MERGED)
                for t in (50, 100)]
    queries += [
        Query("cluster.mrm", "P", _until(t, r, "serving", "down"), MERGED)
        for t in (10, 25)
        for r in (100, 500)
    ]
    queries.append(Query("cluster.mrm", "S", "healthy", MERGED))
    queries.append(Query("cluster.mrm", "P", "X[0,1][0,50] down", MERGED))
    return queries


def fresh_model_key(index: int) -> str:
    return f"tmr.mrm#module_failure={fmt(FRESH_FAILURE_RATES[index])}"


@dataclass
class Request:
    """One daemon ``check`` request and what its answer must match."""

    kind: str  # requery | fresh-bound | fresh-model | pair
    query: Query
    constants: Optional[Dict[str, float]] = None

    def params(self) -> Dict[str, Any]:
        path = self.query.model.split("#", 1)[0]
        model: Dict[str, Any] = {"path": path}
        if self.constants:
            model["constants"] = dict(self.constants)
        return {
            "model": model,
            "formula": self.query.formula,
            "options": dict(self.query.options),
        }


@dataclass
class DaemonMix:
    """Seeded generator of the daemon request mix.

    Fresh bounds and fresh models are drawn without replacement from the
    reference grids, so within one run they never repeat.  Every block
    of 20 requests holds 14 re-queries (70 %), 3 fresh time bounds
    (15 %), one fresh model (5 %) and one near-simultaneous duplicate
    pair (10 %).
    """

    seed: int
    rng: random.Random = field(init=False)
    base: List[Query] = field(init=False)
    _times: List[int] = field(init=False)
    _rates: List[int] = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(f"daemon-mixed/{self.seed}")
        self.base = daemon_base_queries()
        self._times = self.rng.sample(range(len(FRESH_TIMES)), len(FRESH_TIMES))
        self._rates = self.rng.sample(
            range(len(FRESH_FAILURE_RATES)), len(FRESH_FAILURE_RATES)
        )

    def _fresh_time(self) -> float:
        if not self._times:  # grid exhausted: repeats are no longer fresh
            self._times = self.rng.sample(range(len(FRESH_TIMES)), len(FRESH_TIMES))
        return FRESH_TIMES[self._times.pop()]

    def _fresh_rate(self) -> int:
        if not self._rates:
            self._rates = self.rng.sample(
                range(len(FRESH_FAILURE_RATES)), len(FRESH_FAILURE_RATES)
            )
        return self._rates.pop()

    def events(self, count: int) -> List[List[Request]]:
        """At least ``count`` requests grouped by arrival (a pair shares
        one), drawn in blocks of 20 with the exact mix in seeded order."""
        rng = self.rng
        events: List[List[Request]] = []
        while sum(len(group) for group in events) < count:
            block = ["requery"] * 14 + ["fresh-bound"] * 3 + ["fresh-model", "pair"]
            rng.shuffle(block)
            events += [self._event(kind) for kind in block]
        return events

    def _event(self, kind: str) -> List[Request]:
        rng = self.rng
        if kind == "requery":
            return [Request(kind, rng.choice(self.base).with_threshold(rng))]
        if kind == "fresh-model":
            index = self._fresh_rate()
            query = Query(fresh_model_key(index), "P", FRESH_MODEL_BODY,
                          MERGED).with_threshold(rng)
            return [Request(kind, query, {"module_failure": FRESH_FAILURE_RATES[index]})]
        query = Query("tmr.mrm", "P", _until(self._fresh_time(), 3000),
                      MERGED).with_threshold(rng)
        return [Request(kind, query)] * (2 if kind == "pair" else 1)

    def priming(self) -> List[Request]:
        return [Request("prime", q.with_threshold(self.rng)) for q in self.base]

    def cli_query(self) -> Query:
        """A cold CLI query: one of the TMR base formulas, new threshold."""
        body = self.rng.choice(self.base[:10]).body
        return Query("tmr.mrm", "P", body).with_threshold(self.rng)


# ----------------------------------------------------------------------
# references and answer checks
# ----------------------------------------------------------------------
#: Allowance for floating-point rounding on top of the reported budgets.
ROUNDING = 1e-10


class References:
    def __init__(self, data: Mapping[str, Any]) -> None:
        self.values: Dict[str, Dict[str, Any]] = dict(data["values"])

    @classmethod
    def load(cls) -> "References":
        with open(REFERENCES, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def verify(
        self,
        query: Query,
        probabilities: Optional[Sequence[float]],
        states: Sequence[int],
        budget: float,
        base: int = 0,
    ) -> Optional[str]:
        """``None`` when the answer holds, else why it does not.

        ``probabilities`` are per state (0-based); ``states`` is the
        satisfying set, numbered from ``base``.  Each value must lie
        within ``budget`` (the answer's own error budget) plus the
        reference's budget of the reference value; the satisfying set
        must agree with the reference on every state whose reference
        value is farther than that from the threshold.
        """
        entry = self.values.get(query.ref_key)
        if entry is None:
            return f"no reference for {query.ref_key}"
        reference = entry["p"]
        if probabilities is None or len(probabilities) != len(reference):
            return f"{query.label or query.ref_key}: wrong number of values"
        tolerance = float(budget) + float(entry["budget"]) + ROUNDING
        chosen = {int(s) - base for s in states}
        for state, (value, expected) in enumerate(zip(probabilities, reference)):
            if abs(float(value) - expected) > tolerance:
                return (
                    f"{query.label or query.formula}: state {state} value "
                    f"{value!r} vs reference {expected!r} exceeds the "
                    f"budget {tolerance:.3g}"
                )
            if abs(expected - query.bound) > tolerance:
                holds = _compare(expected, query.op, query.bound)
                if holds != (state in chosen):
                    return (
                        f"{query.label or query.formula}: state {state} "
                        f"membership disagrees with the reference"
                    )
        return None


    def paper_check(self, query: Query, value: float, budget: float) -> Optional[str]:
        """Compare a Table 5.3 or 5.8 row with the paper's printed P.

        Table 5.8 must agree to :data:`TABLE_5_8_PAPER_TOL`; a Table 5.3
        row within our budget plus the paper's printed E.
        """
        if query.paper is None or query.paper[0] is None:
            return None
        printed, printed_e = query.paper[0], query.paper[1]
        limit = TABLE_5_8_PAPER_TOL if printed_e is None else budget + printed_e
        gap = abs(value - printed)
        if gap > limit:
            return f"{query.label}: P {value!r} vs paper {printed!r} (gap {gap:.3g})"
        return None


class AnswerLedger:
    """Checks a stream of answers from one long-lived checker.

    A checker that answers a path formula from its value cache reports
    an error budget of 0 for that answer, although the value carries the
    truncation error of the run that computed it (a known defect; see
    README).  The ledger remembers the budget each path formula was
    first answered with.  An answer outside its own reported budget but
    inside that first budget is counted in ``underreported`` -- the
    known defect -- instead of as a wrong answer; outside both, it is
    wrong.
    """

    def __init__(self, references: References) -> None:
        self.references = references
        self.first_budget: Dict[Tuple[str, Tuple], float] = {}
        self.underreported = 0

    def verify(self, query: Query, probabilities, states, budget: float) -> Optional[str]:
        key = (query.ref_key, query.options)
        first = self.first_budget.setdefault(key, float(budget))
        problem = self.references.verify(query, probabilities, states, budget)
        if problem is None or first <= budget:
            return problem
        if self.references.verify(query, probabilities, states, first) is None:
            self.underreported += 1
            return None
        return problem


def _compare(value: float, op: str, bound: float) -> bool:
    return {
        ">": value > bound,
        ">=": value >= bound,
        "<": value < bound,
        "<=": value <= bound,
    }[op]


def cli_model_args(model: str) -> List[str]:
    path = str(MODELS / (model.split("#", 1)[0]))
    args = [path]
    if "#" in model:
        name, _, value = model.split("#", 1)[1].partition("=")
        args += ["-c", f"{name}={value}"]
    return args
