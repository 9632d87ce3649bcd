"""Tests for the checker-as-a-service daemon (repro.server).

Fault-injection coverage (killed workers, floods, disconnects, SIGTERM
drain) lives in test_server_faults.py; this module covers the daemon's
functional contracts: the NDJSON protocol, request coalescing, admission
control, weighted fair queueing, typed errors and the metrics snapshot.
"""

import asyncio
import json
import threading
import time
from pathlib import Path

import pytest

from repro.check.checker import CheckOptions, ModelChecker
from repro.lang.compiler import compile_model
from repro.obs import validate_prometheus_text
from repro.server import (
    AdmissionController,
    FairQueue,
    ServerClient,
    ServerConfig,
    ServerError,
    TenantPolicy,
)
from repro.server.daemon import ReproServer

TMR_PATH = Path(__file__).resolve().parent.parent / "examples" / "models" / "tmr.mrm"
TMR_SOURCE = TMR_PATH.read_text(encoding="utf-8")
FORMULA = "P(>0.1) [Sup U[0,2][0,30] failed]"


@pytest.fixture
def server_factory(tmp_path):
    """Start in-process daemons on Unix sockets; drain them afterwards."""
    started = []

    def start(**config_kwargs):
        sock = str(tmp_path / f"srv{len(started)}.sock")
        config_kwargs.setdefault("model_root", str(TMR_PATH.parent))
        config_kwargs.setdefault("drain_timeout_s", 10.0)
        config = ServerConfig(socket_path=sock, **config_kwargs)
        server = ReproServer(config)
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(loop)

            async def main():
                await server.start()
                ready.set()
                await server._stopped.wait()

            loop.run_until_complete(main())
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10.0), "daemon failed to start"
        started.append((server, loop, thread))
        return server, sock

    yield start
    for server, loop, thread in started:
        if not server._stopped.is_set():
            future = asyncio.run_coroutine_threadsafe(
                server.shutdown(drain=False), loop
            )
            try:
                future.result(timeout=15.0)
            except Exception:
                pass
        thread.join(timeout=15.0)


def _wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestProtocolBasics:
    def test_ping(self, server_factory):
        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            pong = client.ping()
        assert pong["protocol"] == "repro.server/1"
        assert pong["draining"] is False

    def test_check_matches_direct_checker(self, server_factory):
        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            body = client.check({"source": TMR_SOURCE}, FORMULA)
        direct = ModelChecker(
            compile_model(TMR_SOURCE).mrm, CheckOptions()
        ).check(FORMULA)
        assert body["trust"] == direct.trust == "exact"
        assert body["states"] == sorted(int(s) for s in direct.states)
        assert body["coalesced"] is False

    def test_declared_formula_names_resolve(self, server_factory):
        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            body = client.check({"path": "tmr.mrm"}, "table_5_3")
        assert body["formula"].startswith("P(>0.1)")
        assert body["trust"] == "exact"

    def test_malformed_frames_keep_connection_alive(self, server_factory):
        server, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            client.send_raw(b"this is not json\n")
            with pytest.raises(ServerError) as excinfo:
                client.receive()
            assert excinfo.value.code == "invalid-request"
            client.send_raw(b"[1, 2, 3]\n")
            with pytest.raises(ServerError) as excinfo:
                client.receive()
            assert excinfo.value.code == "invalid-request"
            client.send_raw(b'{"id": 1, "method": "no-such-method"}\n')
            with pytest.raises(ServerError) as excinfo:
                client.receive()
            assert excinfo.value.code == "invalid-request"
            # The same connection still serves real requests.
            assert client.ping()["protocol"] == "repro.server/1"
        assert server.metrics.snapshot()["malformed_frames_total"] >= 3

    def test_oversized_frame_rejected_daemon_survives(self, server_factory):
        from repro.server.client import ClientTransportError

        server, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            # The server aborts the connection as soon as its read
            # buffer overflows — possibly mid-send, so the write and
            # the read may each fail at the transport level instead of
            # delivering the typed refusal.  Either way is a rejection.
            with pytest.raises(
                (ServerError, ClientTransportError, ConnectionError)
            ) as excinfo:
                client.send_raw(b"x" * (5 * 1024 * 1024) + b"\n")
                client.receive()
            if isinstance(excinfo.value, ServerError):
                assert excinfo.value.code == "invalid-request"
        # Fresh connections work: the daemon shrugged it off.
        assert _wait_for(
            lambda: server.metrics.snapshot()["malformed_frames_total"] >= 1
        )
        with ServerClient(socket_path=sock) as client:
            assert client.ping()["pid"] > 0

    def test_model_error_carries_diagnostics(self, server_factory):
        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            with pytest.raises(ServerError) as excinfo:
                client.check({"source": "var x : [0 .. ; nonsense"}, FORMULA)
        error = excinfo.value
        assert error.code == "model-error"
        assert error.data and "diagnostics" in error.data
        assert any(d["severity"] == "error" for d in error.data["diagnostics"])

    def test_parse_error_for_bad_formula(self, server_factory):
        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            with pytest.raises(ServerError) as excinfo:
                client.check({"source": TMR_SOURCE}, "P(>0.1) [Sup U[0,")
        assert excinfo.value.code == "parse-error"

    def test_unknown_option_rejected(self, server_factory):
        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            with pytest.raises(ServerError) as excinfo:
                client.check(
                    {"source": TMR_SOURCE}, FORMULA, options={"warp": 9}
                )
        assert excinfo.value.code == "invalid-request"
        assert "warp" in str(excinfo.value)

    def test_path_confined_to_model_root(self, server_factory):
        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            with pytest.raises(ServerError) as excinfo:
                client.check({"path": "../../etc/passwd.mrm"}, FORMULA)
        assert excinfo.value.code == "model-error"
        assert "escapes" in str(excinfo.value)

    def test_draining_server_refuses_new_checks(self, server_factory):
        server, sock = server_factory()
        server._draining = True
        try:
            with ServerClient(socket_path=sock) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.check({"source": TMR_SOURCE}, FORMULA)
            assert excinfo.value.code == "shutting-down"
        finally:
            server._draining = False


class TestCoalescing:
    def test_n_identical_requests_one_engine_run(self, server_factory):
        """The acceptance test: N concurrent identical requests trigger
        exactly one engine invocation and all N get the same result."""
        server, sock = server_factory(max_concurrent=1)
        n = 5
        release = threading.Event()
        calls = []

        def gate(spec):
            calls.append(spec.formula)
            release.wait(20.0)

        server.service.before_execute = gate
        try:
            with ServerClient(socket_path=sock) as client:
                for _ in range(n):
                    client.send(
                        "check",
                        {"model": {"source": TMR_SOURCE}, "formula": FORMULA},
                    )
                # All N are in flight: one leader entry, N waiters.
                assert _wait_for(
                    lambda: len(server.coalescer) == 1
                    and next(
                        iter(server.coalescer._inflight.values())
                    ).waiters == n
                )
                release.set()
                bodies = [client.receive() for _ in range(n)]
        finally:
            server.service.before_execute = None
            release.set()

        assert len(calls) == 1  # exactly one engine invocation
        assert server.coalescer.hits == n - 1
        assert server.metrics.coalesce_hits_total == n - 1
        flags = [body.pop("coalesced") for body in bodies]
        assert sorted(flags) == [False] + [True] * (n - 1)
        # Every waiter keeps its own request id; followers also carry
        # the leader's id (the one on the shared run's spans).  Beyond
        # the correlation fields the answers are identical.
        rids = [body.pop("request_id") for body in bodies]
        assert len(set(rids)) == n
        leader = flags.index(False)
        for index, body in enumerate(bodies):
            if index == leader:
                continue
            assert body.pop("run_request_id") == rids[leader]
            assert body == bodies[leader]

    def test_different_formulas_do_not_coalesce(self, server_factory):
        server, sock = server_factory()
        other = "P(>0.0) [Sup U[0,1][0,10] failed]"
        with ServerClient(socket_path=sock) as client:
            client.check({"source": TMR_SOURCE}, FORMULA)
            client.check({"source": TMR_SOURCE}, other)
        assert server.coalescer.hits == 0


class TestLoadShedding:
    def test_queue_overflow_sheds_typed(self, server_factory):
        server, sock = server_factory(max_concurrent=1, max_queue_depth=1)
        release = threading.Event()
        server.service.before_execute = lambda spec: release.wait(20.0)
        formulas = [
            f"P(>0.1) [Sup U[0,{b}][0,30] failed]" for b in (2, 3, 4)
        ]
        try:
            with ServerClient(socket_path=sock) as client:
                # First request occupies the single executor slot...
                client.send(
                    "check",
                    {"model": {"source": TMR_SOURCE}, "formula": formulas[0]},
                )
                assert _wait_for(lambda: server._active == 1)
                # ...second fills the queue's only slot...
                client.send(
                    "check",
                    {"model": {"source": TMR_SOURCE}, "formula": formulas[1]},
                )
                assert _wait_for(lambda: len(server.queue) == 1)
                # ...third is shed with a typed refusal + backoff hint.
                client.send(
                    "check",
                    {"model": {"source": TMR_SOURCE}, "formula": formulas[2]},
                )
                with pytest.raises(ServerError) as excinfo:
                    client.receive()
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.retry_after_s > 0
                release.set()
                first = client.receive()
                second = client.receive()
        finally:
            server.service.before_execute = None
            release.set()
        assert first["trust"] == "exact"
        assert second["trust"] == "exact"
        assert server.metrics.shed_total >= 1

    def test_tenant_quota_refuses_only_that_tenant(self, server_factory):
        server, sock = server_factory(
            max_concurrent=1,
            default_policy=TenantPolicy(max_in_flight=1),
        )
        release = threading.Event()
        server.service.before_execute = lambda spec: release.wait(20.0)
        try:
            with ServerClient(socket_path=sock) as busy, ServerClient(
                socket_path=sock
            ) as other:
                busy.send(
                    "check",
                    {
                        "model": {"source": TMR_SOURCE},
                        "formula": FORMULA,
                        "tenant": "alpha",
                    },
                )
                assert _wait_for(lambda: server.admission.in_flight("alpha") == 1)
                busy.send(
                    "check",
                    {
                        "model": {"source": TMR_SOURCE},
                        "formula": "P(>0.0) [Sup U[0,1][0,9] failed]",
                        "tenant": "alpha",
                    },
                )
                with pytest.raises(ServerError) as excinfo:
                    busy.receive()
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.data["tenant"] == "alpha"
                # A different tenant is still admitted (it queues).
                # A distinct formula so beta does not simply coalesce
                # onto alpha's identical in-flight run.
                other.send(
                    "check",
                    {
                        "model": {"source": TMR_SOURCE},
                        "formula": "P(>0.2) [Sup U[0,2][0,30] failed]",
                        "tenant": "beta",
                    },
                )
                assert _wait_for(lambda: server.admission.in_flight("beta") == 1)
                release.set()
                busy.receive()
                other.receive()
        finally:
            server.service.before_execute = None
            release.set()


class TestBudgets:
    def test_deadline_clipped_by_tenant_policy(self, server_factory):
        server, sock = server_factory(
            default_policy=TenantPolicy(max_deadline_s=0.000001),
        )
        with ServerClient(socket_path=sock) as client:
            with pytest.raises(ServerError) as excinfo:
                client.check(
                    {"source": TMR_SOURCE},
                    FORMULA,
                    options={"deadline_s": 3600.0, "degrade": False},
                )
        assert excinfo.value.code == "guard-exceeded"

    def test_mem_ceiling_sheds_when_committed(self, server_factory):
        server, sock = server_factory(mem_ceiling_bytes=64 * 1024 * 1024)
        release = threading.Event()
        server.service.before_execute = lambda spec: release.wait(20.0)
        try:
            with ServerClient(socket_path=sock) as hog, ServerClient(
                socket_path=sock
            ) as starved:
                # Commits the entire ceiling (no explicit ask = headroom).
                hog.send(
                    "check",
                    {"model": {"source": TMR_SOURCE}, "formula": FORMULA},
                )
                assert _wait_for(
                    lambda: server.admission.committed_bytes
                    == 64 * 1024 * 1024
                )
                starved.send(
                    "check",
                    {
                        "model": {"source": TMR_SOURCE},
                        "formula": "P(>0.0) [Sup U[0,1][0,9] failed]",
                    },
                )
                with pytest.raises(ServerError) as excinfo:
                    starved.receive()
                assert excinfo.value.code == "overloaded"
                release.set()
                hog.receive()
        finally:
            server.service.before_execute = None
            release.set()
        assert server.admission.committed_bytes == 0

    def test_degraded_run_reports_trust(self, server_factory):
        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            body = client.check(
                {"source": TMR_SOURCE},
                FORMULA,
                options={"deadline_s": 0.000001},
            )
        assert body["trust"] in ("degraded", "partial")
        assert body["degradations"]

    def test_cache_hits_report_the_computed_error_budget(self, server_factory):
        _, sock = server_factory()
        rebound = FORMULA.replace("P(>0.1)", "P(<0.2)")
        with ServerClient(socket_path=sock) as client:
            cold = client.check({"source": TMR_SOURCE}, FORMULA)
            repeat = client.check({"source": TMR_SOURCE}, FORMULA)
            other_bound = client.check({"source": TMR_SOURCE}, rebound)
        assert cold["error_budget"]["total"] > 0.0
        # Both answers come from the warm checker's caches (no engine
        # work) and still hold only within the computing run's budget.
        for body in (repeat, other_bound):
            assert body["engine_cache"]["misses"] == 0
            assert body["error_budget"] == cold["error_budget"]


class TestMetrics:
    def test_prometheus_snapshot_validates(self, server_factory):
        server, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            client.check({"source": TMR_SOURCE}, FORMULA)
            result = client.metrics()
        families = validate_prometheus_text(result["prometheus"])
        assert families >= 10
        assert "repro_server_coalesce_hits_total" in result["prometheus"]
        assert "repro_server_shed_total" in result["prometheus"]
        counters = result["counters"]
        assert counters["requests"]["check:ok"] == 1
        assert counters["tenant_requests"]["default"] == 1
        assert counters["tenant_spend_seconds"]["default"] > 0
        assert result["admission"]["committed_bytes"] == 0
        assert result["cached_models"] == 1
        assert result["cached_checkers"] == 1

    def test_latency_histograms_in_scrape(self, server_factory):
        server, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            client.check({"source": TMR_SOURCE}, FORMULA)
            client.ping()
            text = client.metrics()["prometheus"]
        validate_prometheus_text(text)
        # One check ran: its stage histograms each count exactly one
        # observation, and the +Inf bucket equals _count (the validator
        # enforces monotonicity and the +Inf invariant family-wide).
        for stage in ("queue_wait", "execution", "request"):
            assert f"# TYPE repro_server_{stage}_seconds histogram" in text
            assert (
                f'repro_server_{stage}_seconds_bucket'
                f'{{method="check",outcome="ok",le="+Inf"}} 1' in text
            )
            assert (
                f'repro_server_{stage}_seconds_count'
                f'{{method="check",outcome="ok"}} 1' in text
            )
        # Non-check methods get end-to-end totals only.
        assert 'repro_server_request_seconds_count{method="ping",outcome="ok"}' in text
        assert 'repro_server_execution_seconds_count{method="ping"' not in text

    def test_build_info_in_scrape(self, server_factory):
        import repro

        _, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            text = client.metrics()["prometheus"]
        assert (
            f'repro_server_build_info{{version="{repro.__version__}",'
            'protocol="repro.server/1"} 1' in text
        )

    def test_hostile_tenant_label_is_escaped(self, server_factory):
        """Backslashes, quotes and newlines in a tenant name must render
        as valid Prometheus label escapes, not corrupt the exposition."""
        server, sock = server_factory()
        hostile = 'ten"ant\\with\nnewline'
        with ServerClient(socket_path=sock) as client:
            client.check({"source": TMR_SOURCE}, FORMULA, tenant=hostile)
            text = client.metrics()["prometheus"]
        validate_prometheus_text(text)
        assert r'tenant="ten\"ant\\with\nnewline"' in text

    def test_histograms_can_be_disabled(self):
        from repro.server import ServerMetrics

        metrics = ServerMetrics(latency_histograms=False)
        metrics.observe_request("check", "ok", total_s=0.5)
        text = metrics.prometheus_text()
        validate_prometheus_text(text)
        assert "repro_server_request_seconds" not in text
        assert metrics.snapshot()["latency_seconds"]["request_seconds"] == {}

    def test_warm_checks_reuse_engine_state(self, server_factory):
        """The daemon's raison d'être: request N+1 is served from warm
        caches, orders of magnitude under the cold first run."""
        server, sock = server_factory()
        with ServerClient(socket_path=sock) as client:
            cold = client.check({"source": TMR_SOURCE}, FORMULA)
            warm = client.check({"source": TMR_SOURCE}, FORMULA)
        assert warm["states"] == cold["states"]
        # Not flaky timing: the warm run is answered from the checker's
        # subformula cache, so it builds no new engine artifacts at all
        # (the report's cache counters are per-run deltas).
        assert cold["engine_cache"]["misses"] > 0
        assert warm["engine_cache"]["misses"] == 0


class TestFairQueue:
    def test_weighted_drain_order_is_deterministic(self):
        queue = FairQueue(max_depth=16)
        for index in range(4):
            queue.push("heavy", 2.0, f"h{index}")
        for index in range(4):
            queue.push("light", 1.0, f"l{index}")
        order = []
        while True:
            popped = queue.pop()
            if popped is None:
                break
            order.append(popped[0])
        # Virtual times: heavy advances 0.5/pop, light 1.0/pop, ties
        # break alphabetically -> heavy drains twice as fast.
        assert order == [
            "heavy", "light", "heavy", "heavy", "light", "heavy",
            "light", "light",
        ]
        assert len(queue) == 0

    def test_idle_tenant_gets_no_credit(self):
        queue = FairQueue(max_depth=16)
        queue.push("a", 1.0, "a0")
        for _ in range(3):
            assert queue.pop()[0] == "a"
            break
        # "a" served 1; a newcomer does not get to replay that history.
        queue.push("b", 1.0, "b0")
        queue.push("a", 1.0, "a1")
        first, _ = queue.pop()
        second, _ = queue.pop()
        assert {first, second} == {"a", "b"}
        # "b" entered at the global virtual time, not at zero, so "a"
        # is not starved behind an idle tenant's backlog of credit.
        assert first == "b" or second == "b"

    def test_full_queue_refuses_typed(self):
        queue = FairQueue(max_depth=2)
        queue.push("a", 1.0, 1)
        queue.push("a", 1.0, 2)
        with pytest.raises(ServerError) as excinfo:
            queue.push("b", 1.0, 3)
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after_s > 0

    def test_drain_empties_everything(self):
        queue = FairQueue(max_depth=8)
        queue.push("a", 1.0, 1)
        queue.push("b", 2.0, 2)
        drained = queue.drain()
        assert sorted(item for _, item in drained) == [1, 2]
        assert len(queue) == 0
        assert queue.pop() is None


class TestAdmissionController:
    def test_budgets_clip_to_policy(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(
                max_deadline_s=10.0, max_mem_bytes=256 * 1024 * 1024
            )
        )
        ticket = controller.admit(
            "t", deadline_s=3600.0, mem_budget_bytes=16 * 1024 ** 3
        )
        assert ticket.deadline_s == 10.0
        assert ticket.mem_budget_bytes == 256 * 1024 * 1024
        controller.release(ticket)

    def test_policy_defaults_fill_missing_asks(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_deadline_s=5.0)
        )
        ticket = controller.admit("t")
        assert ticket.deadline_s == 5.0
        assert ticket.mem_budget_bytes is None
        controller.release(ticket)

    def test_ceiling_commits_and_releases(self):
        ceiling = 128 * 1024 * 1024
        controller = AdmissionController(mem_ceiling_bytes=ceiling)
        first = controller.admit("t", mem_budget_bytes=100 * 1024 * 1024)
        assert controller.committed_bytes == 100 * 1024 * 1024
        # 28 MiB headroom still beats the minimum grant; clipped to fit.
        second = controller.admit("t", mem_budget_bytes=100 * 1024 * 1024)
        assert second.mem_budget_bytes == 28 * 1024 * 1024
        with pytest.raises(ServerError) as excinfo:
            controller.admit("t", mem_budget_bytes=100 * 1024 * 1024)
        assert excinfo.value.code == "overloaded"
        controller.release(first)
        controller.release(second)
        assert controller.committed_bytes == 0

    def test_release_is_idempotent(self):
        controller = AdmissionController(mem_ceiling_bytes=256 * 1024 * 1024)
        ticket = controller.admit("t", mem_budget_bytes=64 * 1024 * 1024)
        controller.release(ticket)
        controller.release(ticket)
        assert controller.committed_bytes == 0
        assert controller.in_flight() == 0

    def test_unknown_tenant_uses_default_policy(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(weight=1.0),
            tenants={"vip": TenantPolicy(name="vip", weight=4.0)},
        )
        assert controller.policy_for("vip").weight == 4.0
        stranger = controller.policy_for("stranger")
        assert stranger.weight == 1.0
        assert stranger.name == "stranger"

    def test_in_flight_quota(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_in_flight=2)
        )
        tickets = [controller.admit("t") for _ in range(2)]
        with pytest.raises(ServerError) as excinfo:
            controller.admit("t")
        assert excinfo.value.code == "overloaded"
        assert controller.admit("other") is not None
        for ticket in tickets:
            controller.release(ticket)
