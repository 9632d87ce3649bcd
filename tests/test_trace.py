"""Tests for the hierarchical trace layer and its exports.

Covers the span tree (parenting, attributes, worker-snapshot merging
with clock-offset normalization), the bounded series channels and their
guard accounting, the checker's formula-tree spans, the fan-out
acceptance scenario (one merged trace from four worker processes), the
killed-worker flagging regression, run-report schema migration
(v1/v2/v3), and the Chrome-trace / Prometheus exporters plus their CLI
surface (``--trace``, ``--metrics``, ``report diff``).
"""

import json
import os
import pickle

import pytest

from repro.check import CheckOptions, EngineCache, ModelChecker, paths_engine
from repro.cli.main import main
from repro.guard import Guard, MemoryBudgetExceeded, NullGuard, use_guard
from repro.io.bundle import save_mrm
from repro.models import build_tmr
from repro.obs import (
    CHROME_REQUIRED_KEYS,
    Collector,
    NullCollector,
    RunReport,
    SeriesChannel,
    chrome_trace,
    diff_reports,
    load_report_file,
    prometheus_exposition,
    validate_chrome_trace,
    validate_prometheus_text,
)
from repro.obs.series import NULL_SERIES, NullSeries
from repro.obs.trace import SpanRecord


def _exit_hard(task):
    os._exit(3)


def spans_named(trace, name):
    return [s for s in trace if s["name"] == name]


def span_index(trace):
    return {s["span_id"]: s for s in trace}


class TestSpanTree:
    def test_parenting_and_attributes(self):
        collector = Collector()
        with collector.span("outer", kind="root") as outer:
            with collector.span("inner") as inner:
                collector.annotate(depth=1)
            with collector.span("inner"):
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.attributes == {"depth": 1}
        assert outer.attributes == {"kind": "root"}
        # Completion order: children close before their parents.
        assert [s.name for s in collector.spans] == ["inner", "inner", "outer"]
        ids = [s.span_id for s in collector.spans]
        assert len(set(ids)) == len(ids)
        for span in collector.spans:
            assert span.end >= span.start
            assert span.pid == os.getpid()

    def test_annotate_outside_span_is_noop(self):
        collector = Collector()
        collector.annotate(lost=True)  # no open span: swallowed
        assert collector.spans == []

    def test_span_record_round_trip(self):
        record = SpanRecord(
            span_id=7,
            parent_id=3,
            name="until",
            start=0.5,
            end=1.25,
            pid=42,
            tid=99,
            attributes={"engine": "paths"},
        )
        assert record.duration == pytest.approx(0.75)
        rebuilt = SpanRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt == record

    def test_span_exception_still_closes(self):
        collector = Collector()
        with pytest.raises(RuntimeError):
            with collector.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in collector.spans] == ["doomed"]
        assert collector.phases["doomed"][1] == 1


class TestSeriesChannel:
    def test_capacity_normalized_even_and_minimum(self):
        assert SeriesChannel("x", capacity=3).capacity == 8
        assert SeriesChannel("x", capacity=9).capacity == 10

    def test_under_capacity_keeps_everything(self):
        channel = SeriesChannel("x", capacity=8)
        for i in range(8):
            channel.append(float(i), float(i) * 2.0)
        assert channel.stride == 1
        assert channel.observed == 8
        assert list(channel.steps) == [float(i) for i in range(8)]
        assert list(channel.values) == [float(i) * 2.0 for i in range(8)]

    def test_stride_doubling_invariants(self):
        channel = SeriesChannel("x", capacity=8)
        total = 1000
        for i in range(total):
            channel.append(float(i), float(-i))
        assert channel.observed == total
        assert len(channel) <= channel.capacity
        assert channel.stride > 1
        steps = list(channel.steps)
        # Retained samples are exactly index-multiples of the stride:
        # evenly spaced, starting at the first offered point.
        assert steps[0] == 0.0
        assert all(int(s) % channel.stride == 0 for s in steps)
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)

    def test_merge_folds_points_and_observed(self):
        left = SeriesChannel("x", capacity=16)
        right = SeriesChannel("x", capacity=16)
        for i in range(4):
            left.append(float(i), 1.0)
        for i in range(4, 8):
            right.append(float(i), 2.0)
        left.merge(right.to_dict())
        assert left.observed == 8
        assert list(left.steps) == [float(i) for i in range(8)]

    def test_merge_counts_unsampled_observations(self):
        channel = SeriesChannel("x", capacity=8)
        channel.merge({"points": [[0.0, 1.0]], "observed": 50})
        assert channel.observed == 50
        assert len(channel) == 1

    def test_to_dict_shape(self):
        channel = SeriesChannel("residual", capacity=8)
        channel.append(0.0, 0.5)
        payload = json.loads(json.dumps(channel.to_dict()))
        assert payload["name"] == "residual"
        assert payload["capacity"] == 8
        assert payload["stride"] == 1
        assert payload["observed"] == 1
        assert payload["points"] == [[0.0, 0.5]]

    def test_null_series_is_inert(self):
        assert NULL_SERIES.enabled is False
        NULL_SERIES.append(1.0, 2.0)
        NULL_SERIES.merge({"points": [[1.0, 2.0]]})
        assert len(NULL_SERIES) == 0
        assert NULL_SERIES.to_dict()["points"] == []
        assert isinstance(NULL_SERIES, NullSeries)

    def test_collector_series_get_or_create(self):
        collector = Collector()
        first = collector.series("linsolve.residual")
        second = collector.series("linsolve.residual")
        assert first is second
        assert collector.series_channels == {"linsolve.residual": first}

    def test_null_collector_series_is_null(self):
        assert NullCollector().series("anything") is NULL_SERIES


class TestGuardReserve:
    def test_reserve_alone_trips_budget(self):
        guard = Guard(mem_budget_bytes=100)
        guard.reserve(50)
        with pytest.raises(MemoryBudgetExceeded, match="reserved"):
            guard.reserve(60, phase="obs.series")

    def test_checkpoint_includes_reserved(self):
        guard = Guard(mem_budget_bytes=100, rss_check_interval=0)
        guard.reserve(50)
        guard.checkpoint(phase="ok", mem_bytes=40)
        with pytest.raises(MemoryBudgetExceeded, match="reserved"):
            guard.checkpoint(phase="trip", mem_bytes=60)

    def test_null_guard_reserve_is_noop(self):
        NullGuard().reserve(10**15)

    def test_series_creation_charges_ambient_guard(self):
        # Default capacity is 512 points * 16 bytes = 8 KiB per channel.
        with use_guard(Guard(mem_budget_bytes=1024, rss_check_interval=0)):
            with pytest.raises(MemoryBudgetExceeded):
                Collector().series("too-big")
        guard = Guard(mem_budget_bytes=1 << 20, rss_check_interval=0)
        with use_guard(guard):
            channel = Collector().series("fits")
        assert guard._reserved == channel.nbytes


class TestSnapshotMerge:
    def make_worker(self):
        worker = Collector()
        worker.counter_add("paths.generated", 5)
        worker.event("linsolve", residual=1e-9)
        with worker.span("pool.shard", states=3):
            with worker.span("inner"):
                pass
        series = worker.series("until.truncation-mass")
        series.append(0.0, 0.5)
        return worker

    def test_snapshot_is_picklable(self):
        snapshot = self.make_worker().snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_merge_attaches_roots_under_open_span(self):
        worker = self.make_worker()
        parent = Collector()
        with parent.span("until.search") as site:
            parent.merge_snapshot(worker.snapshot())
        shard = [s for s in parent.spans if s.name == "pool.shard"]
        inner = [s for s in parent.spans if s.name == "inner"]
        assert len(shard) == 1 and len(inner) == 1
        assert shard[0].parent_id == site.span_id
        assert inner[0].parent_id == shard[0].span_id
        ids = [s.span_id for s in parent.spans]
        assert len(set(ids)) == len(ids)

    def test_merge_adds_counters_phases_events_series(self):
        worker = self.make_worker()
        parent = Collector()
        parent.counter_add("paths.generated", 2)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("paths.generated") == 7.0
        assert parent.phases["pool.shard"][1] == 1
        named = parent.events_named("linsolve")
        assert len(named) == 1
        # Worker events are stamped with the worker pid on merge.
        assert named[0]["pid"] == worker.pid
        assert len(parent.series("until.truncation-mass")) == 1

    def test_merge_rebases_timestamps_by_clock_offset(self):
        worker = self.make_worker()
        original = worker.snapshot()
        parent = Collector()
        parent.merge_snapshot(original, clock_offset=5.0)
        shard = [s for s in parent.spans if s.name == "pool.shard"][0]
        source = [s for s in original["spans"] if s["name"] == "pool.shard"][0]
        assert shard.start == pytest.approx(source["start"] + 5.0)
        assert shard.end == pytest.approx(source["end"] + 5.0)
        event = parent.events_named("linsolve")[0]
        source_event = original["events"][0]
        assert event["ts"] == pytest.approx(source_event["ts"] + 5.0)

    def test_default_offset_is_epoch_difference(self):
        worker = self.make_worker()
        snapshot = worker.snapshot()
        parent = Collector()
        parent.merge_snapshot(snapshot)
        expected = snapshot["epoch"] - parent.epoch
        shard = [s for s in parent.spans if s.name == "pool.shard"][0]
        source = [s for s in snapshot["spans"] if s["name"] == "pool.shard"][0]
        assert shard.start == pytest.approx(source["start"] + expected)


class TestCheckerTrace:
    def test_span_tree_mirrors_parse_tree(self, tmr3):
        checker = ModelChecker(tmr3, engine_cache=EngineCache())
        result = checker.check("P(>=0.1) [Sup U[0,1][0,100] failed]")
        trace = result.report.trace
        by_id = span_index(trace)

        (check,) = spans_named(trace, "check")
        (prob,) = spans_named(trace, "sat.prob")
        atoms = spans_named(trace, "sat.atomic")
        (until,) = spans_named(trace, "until")
        (search,) = spans_named(trace, "until.search")

        assert check["parent_id"] is None
        assert prob["parent_id"] == check["span_id"]
        assert len(atoms) == 2
        assert all(a["parent_id"] == prob["span_id"] for a in atoms)
        # The engine phases hang beneath the formula node that ran them.
        assert until["parent_id"] == prob["span_id"]
        assert search["parent_id"] == until["span_id"]
        # Every span's parent exists in the same trace.
        for span in trace:
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id

    def test_span_attributes_record_operator_engine_trust(self, tmr3):
        checker = ModelChecker(tmr3, engine_cache=EngineCache())
        result = checker.check("P(>=0.1) [Sup U[0,1][0,100] failed]")
        trace = result.report.trace
        (check,) = spans_named(trace, "check")
        (prob,) = spans_named(trace, "sat.prob")
        (until,) = spans_named(trace, "until")
        assert check["attributes"]["trust"] == result.trust
        assert prob["attributes"]["operator"] == "P"
        assert prob["attributes"]["engine"] == until["attributes"]["engine"]
        assert "tier" in until["attributes"]

    def test_cached_subformula_still_opens_span(self, tmr3):
        checker = ModelChecker(tmr3, engine_cache=EngineCache())
        # The atom repeats: the second occurrence hits the Sat cache but
        # must still open a span (flagged, not elided) so the trace
        # mirrors the parse tree, not the memoized DAG.
        trace = checker.check("failed && failed").report.trace
        atoms = spans_named(trace, "sat.atomic")
        assert len(atoms) == 2
        flags = [a["attributes"].get("cached") for a in atoms]
        assert flags.count(True) == 1
        (conj,) = spans_named(trace, "sat.and")
        assert all(a["parent_id"] == conj["span_id"] for a in atoms)

    @pytest.mark.parametrize("strategy", ["paths", "merged"])
    def test_frontier_and_omega_spans_per_state(self, tmr3, strategy):
        checker = ModelChecker(
            tmr3, CheckOptions(path_strategy=strategy), engine_cache=EngineCache()
        )
        report = checker.check("P(>0.5) [Sup U[0,100][0,3000] failed]").report
        spans = span_index(report.trace)
        (search,) = spans_named(report.trace, "until.search")
        pending = search["attributes"]["pending"]
        for name in ("until.frontier", "until.omega"):
            found = spans_named(report.trace, name)
            assert len(found) == pending
            assert all(spans[s["parent_id"]]["name"] == "until.search" for s in found)
            assert sorted(s["attributes"]["state"] for s in found) == sorted(
                s["attributes"]["state"] for s in spans_named(report.trace, "until.frontier")
            )
        assert report.phase("until.omega") is not None

    def test_residual_series_recorded_for_unbounded_until(self, tmr3):
        checker = ModelChecker(tmr3, engine_cache=EngineCache())
        report = checker.check("P(>=0.5) [Sup U failed]").report
        series = report.series.get("linsolve.residual")
        assert series is not None
        assert series["points"]
        assert series["observed"] >= len(series["points"])
        # Residuals are recorded, non-negative and finite.
        assert all(v >= 0.0 for _, v in series["points"])

    def test_truncation_mass_series_recorded(self, tmr3):
        checker = ModelChecker(tmr3, engine_cache=EngineCache())
        report = checker.check("P(>=0.1) [Sup U[0,1][0,100] failed]").report
        series = report.series.get("until.truncation-mass")
        assert series is not None
        assert series["points"]

    def test_frontier_series_recorded_by_merged_engine(self, tmr3):
        checker = ModelChecker(
            tmr3,
            CheckOptions(path_strategy="merged"),
            engine_cache=EngineCache(),
        )
        report = checker.check("P(>=0.1) [Sup U[0,1][0,100] failed]").report
        frontier = report.series.get("until.frontier")
        assert frontier is not None
        assert frontier["points"]
        # Frontier sizes are positive state counts.
        assert all(v >= 1.0 for _, v in frontier["points"])

    def test_paths_sweep_records_no_frontier_series(self, tmr3):
        checker = ModelChecker(
            tmr3,
            CheckOptions(path_strategy="paths"),
            engine_cache=EngineCache(),
        )
        report = checker.check("P(>=0.1) [Sup U[0,1][0,100] failed]").report
        assert "until.frontier" not in report.series
        assert report.series["until.truncation-mass"]["points"]

    def test_workers_produce_one_merged_trace(self, monkeypatch):
        # 11 modules: enough pending Sup-states for four genuine shards.
        # The clamp would serialize workers=4 on a small CI box, and the
        # work-stealing planner would cut ~4 shards per worker — pin
        # both seams so the trace shape is deterministic here.
        from repro.check import pool

        monkeypatch.setattr(pool, "_cpu_count", lambda: 4)
        monkeypatch.setattr(pool, "OVERSUBSCRIPTION", 1)
        model = build_tmr(11)
        checker = ModelChecker(
            model, CheckOptions(workers=4), engine_cache=EngineCache()
        )
        result = checker.check("P(>=0.1) [Sup U[0,40][0,1000] failed]")
        trace = result.report.trace

        shards = spans_named(trace, "pool.shard")
        assert len(shards) == 4
        worker_pids = {s["pid"] for s in shards}
        # The shard spans come from worker processes, not the parent
        # (scheduling may let one worker take two shards, but the
        # fan-out must genuinely run out-of-process).
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2
        (search,) = spans_named(trace, "until.search")
        assert all(s["parent_id"] == search["span_id"] for s in shards)
        assert search["attributes"]["workers"] == 4
        # Every pending state ran in exactly one shard.
        assert (
            sum(s["attributes"]["states"] for s in shards)
            == search["attributes"]["pending"]
        )

        # The tree is still rooted in the formula spans.
        (check,) = spans_named(trace, "check")
        (prob,) = spans_named(trace, "sat.prob")
        assert check["parent_id"] is None
        assert prob["parent_id"] == check["span_id"]

        # Worker-side series merged into the parent report.
        mass = result.report.series.get("until.truncation-mass")
        assert mass is not None
        assert mass["points"]


class TestKilledWorkerTrace:
    FANOUT = dict(
        psi_states={3},
        time_bound=1.0,
        reward_bound=10.0,
        truncation_probability=1e-7,
        strategy="paths",
    )

    def test_killed_worker_is_flagged_not_merged(self, wavelan, monkeypatch):
        from repro.check import pool

        monkeypatch.setattr(pool, "_cpu_count", lambda: 4)
        states = list(range(wavelan.num_states))
        collector = Collector()
        original = pool._fan_out_shard
        pool._fan_out_shard = _exit_hard
        try:
            from repro.obs import use_collector

            with use_collector(collector):
                paths_engine.joint_distribution_all(
                    wavelan, states, workers=2, **self.FANOUT
                )
        finally:
            pool._fan_out_shard = original
            pool.reset_default_pool()

        # A worker that dies ships no snapshot: its partial trace must
        # never appear in the merged span list.
        assert not [s for s in collector.spans if s.name == "pool.shard"]

        failures = collector.events_named("pool.worker-failure")
        assert failures
        for event in failures:
            assert isinstance(event["shard_index"], int)
            assert isinstance(event["worker_pids"], list)
            assert all(isinstance(pid, int) for pid in event["worker_pids"])
            assert os.getpid() not in event["worker_pids"]
        assert collector.counter("pool.worker-failures") == len(failures)

        serial = collector.events_named("pool.serial-reexecution")
        assert serial
        reexecuted = {event["shard_index"] for event in serial}
        assert reexecuted <= {event["shard_index"] for event in failures}

        # The degradation records surface both identifiers.
        records = RunReport.degradations_from_collector(collector)
        pool_records = [r for r in records if r["kind"] == "pool"]
        assert pool_records
        for record in pool_records:
            assert "shard_index" in record
            assert "worker_pids" in record


class TestSchemaMigration:
    V1 = {
        "schema": "repro.run-report/1",
        "formula": "P(>=0.5) [a U b]",
        "wall_seconds": 0.25,
        "phases": [{"name": "until", "seconds": 0.2, "count": 1}],
        "counters": {"paths.generated": 17.0},
        "events": [{"event": "linsolve", "residual": 1e-11}],
        "cache": {"hits": 1, "misses": 2, "evictions": 0, "entries": 3},
        "error_budget": {
            "truncation_mass": 1e-9,
            "discretization_defect": 0.0,
            "solver_residual": 1e-11,
            "total": 1e-9 + 1e-11,
        },
    }

    def test_v1_payload_loads_with_defaults(self):
        report = RunReport.from_dict(self.V1)
        assert report.trust == "exact"
        assert report.degradations == []
        assert report.trace == []
        assert report.series == {}
        assert report.counters["paths.generated"] == 17.0
        assert report.phase("until").count == 1

    def test_v2_payload_loads_without_trace(self):
        payload = dict(self.V1)
        payload["schema"] = "repro.run-report/2"
        payload["trust"] = "degraded"
        payload["degradations"] = [{"kind": "engine", "from": "paths", "to": "merged"}]
        report = RunReport.from_dict(payload)
        assert report.trust == "degraded"
        assert report.degradations[0]["to"] == "merged"
        assert report.trace == []
        assert report.series == {}

    def test_v3_round_trip_preserves_trace_and_series(self):
        collector = Collector()
        with collector.span("check", formula="busy"):
            with collector.span("sat.atomic"):
                pass
        collector.series("linsolve.residual").append(0.0, 1e-9)
        report = RunReport.from_collector("busy", collector, wall_seconds=0.01)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema"] == "repro.run-report/3"
        rebuilt = RunReport.from_dict(payload)
        assert rebuilt.trace == report.trace
        assert rebuilt.series == report.series
        assert [s["name"] for s in rebuilt.trace] == ["sat.atomic", "check"]

    def test_migrated_payload_reserializes_as_v3(self):
        report = RunReport.from_dict(self.V1)
        assert report.to_dict()["schema"] == "repro.run-report/3"


class TestChromeTraceExport:
    def make_report(self, formula="P(>=0.5) [a U b]"):
        collector = Collector()
        with collector.span("check", formula=formula):
            with collector.span("until", engine="paths"):
                pass
            collector.event("linsolve", residual=1e-9)
        return RunReport.from_collector(formula, collector, wall_seconds=0.125)

    def test_spans_become_complete_events(self):
        report = self.make_report()
        payload = chrome_trace(report)
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"check", "until"}
        for event in complete:
            for key in CHROME_REQUIRED_KEYS:
                assert key in event
            assert event["dur"] >= 0.0
            assert event["args"]["formula"] == report.formula
            assert event["pid"] == os.getpid()

    def test_events_become_instants(self):
        payload = chrome_trace(self.make_report())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "linsolve"
        assert instants[0]["s"] == "t"
        assert instants[0]["args"] == {"residual": 1e-9}

    def test_multiple_reports_lay_out_back_to_back(self):
        first = self.make_report("one")
        second = self.make_report("two")
        payload = chrome_trace([first, second])
        first_ts = [
            e["ts"] for e in payload["traceEvents"] if e["args"].get("formula") == "one"
        ]
        second_ts = [
            e["ts"] for e in payload["traceEvents"] if e["args"].get("formula") == "two"
        ]
        # wall_seconds = 0.125 s -> at least 125000 us of offset.
        assert min(second_ts) >= max(first_ts)
        assert min(second_ts) >= 0.125 * 1e6

    def test_validator_accepts_real_export(self):
        payload = chrome_trace(self.make_report())
        count = validate_chrome_trace(json.dumps(payload))
        assert count == 3

    def test_validator_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "i", "ts": 0}]})
        with pytest.raises(ValueError, match="bad dur"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {
                            "name": "x",
                            "ph": "X",
                            "ts": 0,
                            "pid": 1,
                            "tid": 1,
                            "dur": -2.0,
                        }
                    ]
                }
            )
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_chrome_trace("{nope")

    def test_accepts_report_dicts(self):
        payload = chrome_trace(self.make_report().to_dict())
        assert validate_chrome_trace(payload) == 3


class TestPrometheusExport:
    def make_report(self, formula="P(>=0.5) [a U b]", trust="exact"):
        collector = Collector()
        collector.counter_add("paths.generated", 17)
        with collector.span("until"):
            pass
        return RunReport.from_collector(
            formula, collector, wall_seconds=0.125, trust=trust
        )

    def test_exposition_validates_and_carries_families(self):
        text = prometheus_exposition([self.make_report(), self.make_report("busy")])
        assert validate_prometheus_text(text) > 0
        assert "# TYPE repro_checks_total counter" in text
        assert "repro_checks_total 2" in text
        assert 'repro_check_wall_seconds{formula="busy"} 0.125' in text
        assert 'counter="paths.generated"' in text
        assert 'repro_check_trust{formula="busy",trust="exact"} 1' in text

    def test_label_escaping_survives_validation(self):
        nasty = 'P(>=0.5) ["q\\uote" U b]\nnewline'
        text = prometheus_exposition(self.make_report(formula=nasty))
        assert validate_prometheus_text(text) > 0
        assert '\\"q' in text
        assert "\\n" in text

    def test_validator_rejects_bad_input(self):
        with pytest.raises(ValueError, match="no sample lines"):
            validate_prometheus_text("# HELP x y\n# TYPE x counter\n")
        with pytest.raises(ValueError, match="malformed sample"):
            validate_prometheus_text("this is not a metric line at all { }\n")
        with pytest.raises(ValueError, match="duplicate TYPE"):
            validate_prometheus_text(
                "# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n"
            )
        with pytest.raises(ValueError, match="bad TYPE"):
            validate_prometheus_text("# TYPE x flavour\nx 1\n")


class TestHistogramExposition:
    def render(self, counts, sum_value=1.5, bounds=(0.1, 1.0)):
        from repro.obs import ExpositionBuilder

        builder = ExpositionBuilder()
        builder.family("h_seconds", "histogram", "A latency histogram.")
        builder.histogram(
            "h_seconds", {"method": "check"}, bounds, counts, sum_value
        )
        return builder.text()

    def test_builder_emits_cumulative_buckets_and_inf(self):
        text = self.render(counts=[2, 3, 1])
        assert validate_prometheus_text(text) == 5
        assert 'h_seconds_bucket{method="check",le="0.1"} 2' in text
        assert 'h_seconds_bucket{method="check",le="1"} 5' in text
        assert 'h_seconds_bucket{method="check",le="+Inf"} 6' in text
        assert 'h_seconds_sum{method="check"} 1.5' in text
        assert 'h_seconds_count{method="check"} 6' in text

    def test_builder_rejects_count_shape_mismatch(self):
        with pytest.raises(ValueError, match="bucket"):
            self.render(counts=[2, 3])  # needs len(bounds) + 1 entries

    def test_validator_rejects_non_monotonic_buckets(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 6\n'
            "h_sum 1\n"
            "h_count 6\n"
        )
        with pytest.raises(ValueError, match="below the previous"):
            validate_prometheus_text(bad)

    def test_validator_rejects_missing_inf_bucket(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            "h_sum 1\n"
            "h_count 1\n"
        )
        with pytest.raises(ValueError, match=r"missing its \+Inf"):
            validate_prometheus_text(bad)

    def test_validator_rejects_inf_count_mismatch(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 1\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match="_count"):
            validate_prometheus_text(bad)

    def test_validator_rejects_missing_sum_and_count(self):
        with pytest.raises(ValueError, match="missing _sum"):
            validate_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 1\nh_count 1\n'
            )
        with pytest.raises(ValueError, match="missing _count"):
            validate_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 1\nh_sum 0.5\n'
            )

    def test_validator_rejects_bare_histogram_sample(self):
        with pytest.raises(ValueError, match="bare sample"):
            validate_prometheus_text("# TYPE h histogram\nh 1\n")

    def test_declared_but_empty_histogram_family_is_legal(self):
        text = "# TYPE h histogram\nother_metric 1\n"
        assert validate_prometheus_text(text) == 1

    def test_builder_escapes_label_values(self):
        from repro.obs import ExpositionBuilder

        builder = ExpositionBuilder()
        builder.family("g", "gauge", "g.")
        builder.sample("g", {"who": 'a"b\\c\nd'}, 1.0)
        text = builder.text()
        assert validate_prometheus_text(text) == 1
        assert r'who="a\"b\\c\nd"' in text


class TestDiffReports:
    def make(self, formula, wall, trust="exact"):
        return RunReport(formula=formula, wall_seconds=wall, trust=trust)

    def test_wall_delta_and_trust_change(self):
        old = [self.make("a", 1.0)]
        new = [self.make("a", 2.0, trust="degraded")]
        text = diff_reports(old, new)
        assert "= a" in text
        assert "+100.0%" in text
        assert "trust: exact -> degraded  [!]" in text

    def test_added_and_removed_formulas(self):
        text = diff_reports([self.make("gone", 1.0)], [self.make("fresh", 1.0)])
        assert "+ fresh  (new formula)" in text
        assert "- gone  (removed)" in text

    def test_empty_inputs(self):
        assert diff_reports([], []) == "no reports to compare\n"


class TestLoadReportFile:
    def test_loads_envelope_single_and_list(self, tmp_path):
        report = RunReport(formula="busy", wall_seconds=0.5).to_dict()
        envelope = tmp_path / "envelope.json"
        envelope.write_text(json.dumps({"schema": "x", "reports": [report, report]}))
        single = tmp_path / "single.json"
        single.write_text(json.dumps(report))
        listed = tmp_path / "list.json"
        listed.write_text(json.dumps([report]))
        assert len(load_report_file(str(envelope))) == 2
        assert load_report_file(str(single))[0].formula == "busy"
        assert len(load_report_file(str(listed))) == 1

    def test_rejects_non_report_payload(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("42")
        with pytest.raises(ValueError, match="not a run-report"):
            load_report_file(str(bogus))


class TestCliTraceAndMetrics:
    @pytest.fixture
    def wavelan_files(self, tmp_path, wavelan):
        return save_mrm(wavelan, str(tmp_path), "wavelan")

    def run(self, capsys, files, *extra, formulas=()):
        argv = [files["tra"], files["lab"], files["rewr"], files["rewi"], *extra]
        for formula in formulas:
            argv += ["--formula", formula]
        status = main(argv)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def test_trace_flag_writes_valid_chrome_trace(
        self, capsys, tmp_path, wavelan_files
    ):
        out_file = tmp_path / "trace.json"
        status, _, _ = self.run(
            capsys,
            wavelan_files,
            "--trace",
            str(out_file),
            formulas=["P(>0.1) [idle U[0,2][0,2000] busy]", "busy"],
        )
        assert status == 0
        text = out_file.read_text()
        assert validate_chrome_trace(text) > 0
        names = {e["name"] for e in json.loads(text)["traceEvents"]}
        assert "check" in names

    def test_metrics_flag_writes_valid_exposition(
        self, capsys, tmp_path, wavelan_files
    ):
        out_file = tmp_path / "metrics.prom"
        status, _, _ = self.run(
            capsys,
            wavelan_files,
            "--metrics",
            str(out_file),
            formulas=["busy"],
        )
        assert status == 0
        text = out_file.read_text()
        assert validate_prometheus_text(text) > 0
        assert "repro_checks_total 1" in text

    def test_trace_write_failure_is_reported(self, capsys, tmp_path, wavelan_files):
        status, _, err = self.run(
            capsys,
            wavelan_files,
            "--trace",
            str(tmp_path / "missing-dir" / "trace.json"),
            formulas=["busy"],
        )
        assert status == 2
        assert "cannot write trace" in err

    def test_report_diff_subcommand(self, capsys, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(
            json.dumps(
                {"reports": [RunReport(formula="busy", wall_seconds=1.0).to_dict()]}
            )
        )
        new.write_text(
            json.dumps(
                {"reports": [RunReport(formula="busy", wall_seconds=2.0).to_dict()]}
            )
        )
        status = main(["report", "diff", str(old), str(new)])
        out = capsys.readouterr().out
        assert status == 0
        assert "= busy" in out
        assert "+100.0%" in out

    def test_report_diff_usage_errors(self, capsys, tmp_path):
        assert main(["report", "frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "usage" in err
        missing = str(tmp_path / "nope.json")
        assert main(["report", "diff", missing, missing]) == 2
        assert capsys.readouterr().err
