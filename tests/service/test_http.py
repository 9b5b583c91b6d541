"""FrontDoorHTTP: the stdlib wire adapter over the async front door.

Each test runs a real server on an ephemeral port and talks to it with
a raw asyncio client (helpers.http_get) — no web framework on either
side of the socket.
"""

import asyncio
import contextlib
import json
import socket
import threading
from urllib.parse import quote

import pytest

from repro.core import MaxTuplesPerRelation, PrecisEngine, WeightThreshold
from repro.datasets import movies_graph, paper_instance
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    FrontDoorHTTP,
    PrecisService,
    QueueFull,
    RetryPolicy,
    ServiceClosed,
    ServiceConfig,
    StaleRequest,
    TenantQuotaExceeded,
)
from repro.storage import PermanentStorageError, TransientStorageError

from .faults import gate_reads, make_flaky
from .helpers import Banner, http_get, run, spin

QUERY = '"Woody Allen"'
Q = quote(QUERY)


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


@pytest.fixture()
def service(engine):
    svc = PrecisService(engine, config=ServiceConfig(workers=1))
    yield svc
    svc.close()


@contextlib.asynccontextmanager
async def serving(service):
    async with AsyncFrontDoor(service) as frontdoor:
        async with FrontDoorHTTP(frontdoor, port=0) as http:
            yield http


class TestAsk:
    def test_ask_returns_engine_answer(self, engine, service):
        async def go():
            async with serving(service) as http:
                return await http_get(http.host, http.port, f"/ask?q={Q}")

        status, body = run(go())
        assert status == 200
        assert body == engine.ask(QUERY).to_dict()

    def test_ask_parameters_reach_the_engine(self, engine, service):
        async def go():
            async with serving(service) as http:
                return await http_get(
                    http.host,
                    http.port,
                    f"/ask?q={Q}&degree_weight=0.5&priority=batch",
                )

        status, body = run(go())
        assert status == 200
        assert body == engine.ask(QUERY, degree=WeightThreshold(0.5)).to_dict()

    def test_translate_zero_drops_narrative(self, service):
        async def go():
            async with serving(service) as http:
                return await http_get(
                    http.host, http.port, f"/ask?q={Q}&translate=0"
                )

        status, body = run(go())
        assert status == 200
        assert body["narrative"] is None

    def test_missing_query_is_400(self, service):
        async def go():
            async with serving(service) as http:
                return await http_get(http.host, http.port, "/ask")

        status, body = run(go())
        assert status == 400
        assert "'q'" in body["error"]

    def test_unparseable_parameter_is_400(self, service):
        async def go():
            async with serving(service) as http:
                return await http_get(
                    http.host,
                    http.port,
                    f"/ask?q={Q}&degree_weight=heavy",
                )

        status, body = run(go())
        assert status == 400
        assert "degree_weight" in body["error"]

    def test_unknown_priority_is_400(self, service):
        async def go():
            async with serving(service) as http:
                return await http_get(
                    http.host, http.port, f"/ask?q={Q}&priority=urgent"
                )

        status, body = run(go())
        assert status == 400
        assert "priority" in body["error"]

    def test_out_of_range_parameters_are_400(self, engine, service):
        """A value the constraint, the deadline or the generator
        rejects is the caller's fault: a 400 naming the parameter,
        refused before any worker runs the ask, and the server keeps
        answering."""
        bad = [
            "per_relation=-1",
            "total=-5",
            "degree_top=-1",
            "degree_length=-1",
            "degree_weight=2",
            "degree_weight=nan",
            "deadline_ms=nan",
            "strategy=bogus",
        ]

        async def go():
            async with serving(service) as http:
                refused = [
                    await http_get(http.host, http.port, f"/ask?q={Q}&{p}")
                    for p in bad
                ]
                executions = http.frontdoor.metrics.registry.counter(
                    "precis_service_executions_total"
                ).value
                good = await http_get(
                    http.host, http.port, f"/ask?q={Q}&per_relation=3"
                )
                return refused, executions, good

        refused, executions, (status, body) = run(go())
        for parameter, (bad_status, bad_body) in zip(bad, refused):
            assert bad_status == 400, parameter
            assert parameter.split("=")[0] in bad_body["error"], bad_body
        assert executions == 0
        assert status == 200
        expected = engine.ask(QUERY, cardinality=MaxTuplesPerRelation(3))
        assert body == expected.to_dict()

    def test_expired_deadline_is_408(self, service):
        async def go():
            async with serving(service) as http:
                return await http_get(
                    http.host, http.port, f"/ask?q={Q}&deadline_ms=-1"
                )

        status, body = run(go())
        assert status == 408
        assert body["error"] == "StaleRequest"


class _ShedFrontDoor:
    """A front door whose every submit raises *error*."""

    def __init__(self, error):
        self.error = error

    async def submit(self, query, **kwargs):
        raise self.error


class TestShedStatus:
    @pytest.mark.parametrize(
        "error, status",
        [
            (StaleRequest(0.0), 408),
            (QueueFull(1), 429),
            (TenantQuotaExceeded("acme", 1), 429),
            (ServiceClosed("front door is closed"), 503),
        ],
        ids=["stale", "full", "tenant_quota", "closed"],
    )
    def test_each_shed_has_its_status(self, error, status):
        async def go():
            async with FrontDoorHTTP(_ShedFrontDoor(error), port=0) as http:
                return await http_get(http.host, http.port, f"/ask?q={Q}")

        got, body = run(go())
        assert got == status
        assert body == {"error": type(error).__name__, "detail": str(error)}


class TestStorageFaults:
    """A broken store at the HTTP edge: the caller gets a 500 whose JSON
    body names the error class, and the next ask after the store heals
    is answered normally."""

    @pytest.mark.parametrize(
        "error, named",
        [
            (PermanentStorageError, "PermanentStorageError"),
            (TransientStorageError, "RetryExhausted"),
        ],
    )
    def test_fault_is_500_until_the_store_heals(self, error, named):
        db = paper_instance()
        engine = PrecisEngine(db, graph=movies_graph())
        expected = engine.ask(QUERY).to_dict()
        # every tuple read fails, more times than the retries allow
        wrappers = make_flaky(
            db, fail_times=10_000, methods={"get_many"}, error=error
        )
        service = PrecisService(
            engine,
            config=ServiceConfig(
                workers=1, retry=RetryPolicy(attempts=3, base_delay_s=0)
            ),
        )

        async def go():
            async with serving(service) as http:
                failed = await http_get(http.host, http.port, f"/ask?q={Q}")
                for wrapper in wrappers.values():
                    wrapper.heal()
                healed = await http_get(http.host, http.port, f"/ask?q={Q}")
                return failed, healed

        try:
            (status, body), (healed_status, healed_body) = run(go())
        finally:
            service.close()
        assert status == 500
        assert body["error"] == named
        assert any(w.failures["get_many"] for w in wrappers.values())
        assert healed_status == 200
        assert healed_body == expected


class TestRoutes:
    def test_unknown_route_is_404(self, service):
        async def go():
            async with serving(service) as http:
                return await http_get(http.host, http.port, "/nope")

        status, __ = run(go())
        assert status == 404

    def test_method_not_allowed(self, service):
        async def go():
            async with serving(service) as http:
                return await http_get(
                    http.host, http.port, f"/ask?q={Q}", method="PUT"
                )

        status, __ = run(go())
        assert status == 405

    def test_healthz(self, service):
        async def go():
            async with serving(service) as http:
                return await http_get(http.host, http.port, "/healthz")

        status, body = run(go())
        assert status == 200
        assert body == {"status": "ok", "pending": 0, "closed": False}

    def test_metrics_exposes_both_families(self, service):
        async def go():
            async with serving(service) as http:
                await http_get(http.host, http.port, f"/ask?q={Q}")
                return await http_get(http.host, http.port, "/metrics")

        status, text = run(go())
        assert status == 200
        # the one serving family: admission and execution series
        assert "precis_service_requests_total" in text
        assert "precis_service_executions_total" in text

    def test_shutdown_resolves_serve_until_shutdown(self, service):
        async def go():
            async with serving(service) as http:
                waiter = asyncio.ensure_future(
                    http.serve_until_shutdown()
                )
                status, body = await http_get(
                    http.host, http.port, "/shutdown"
                )
                await asyncio.wait_for(waiter, timeout=10)
                return status, body

        status, body = run(go())
        assert status == 200
        assert body == {"status": "shutting down"}

    def test_malformed_request_line_is_400(self, service):
        async def go():
            async with serving(service) as http:
                reader, writer = await asyncio.open_connection(
                    http.host, http.port
                )
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                return raw

        raw = run(go())
        assert raw.startswith(b"HTTP/1.1 400")


async def raw_exchange(host, port, payload: bytes) -> bytes:
    """Send *payload* on a fresh connection; everything read back (a
    reset after the response counts as the end of it)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    chunks = []
    with contextlib.suppress(ConnectionResetError):
        while chunk := await reader.read(65536):
            chunks.append(chunk)
    writer.close()
    with contextlib.suppress(ConnectionResetError, BrokenPipeError):
        await writer.wait_closed()
    return b"".join(chunks)


def status_and_body(raw: bytes):
    head, __, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestOversizedRequests:
    """Lines past the stream reader's 64 KiB limit get an answer, not
    an empty reply."""

    OVERSIZED = 70_000

    def test_request_line_over_limit_is_414(self, service):
        async def go():
            async with serving(service) as http:
                target = "/ask?q=" + "a" * self.OVERSIZED
                return await raw_exchange(
                    http.host,
                    http.port,
                    f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode(),
                )

        status, body = status_and_body(run(go()))
        assert status == 414
        assert "request line" in body["error"]

    def test_header_line_over_limit_is_431(self, service):
        async def go():
            async with serving(service) as http:
                header = "X-Padding: " + "a" * self.OVERSIZED
                raw = await raw_exchange(
                    http.host,
                    http.port,
                    f"GET /healthz HTTP/1.1\r\n{header}\r\n\r\n".encode(),
                )
                # the server keeps serving after the refusal
                after = await http_get(http.host, http.port, "/healthz")
                return raw, after

        raw, after = run(go())
        status, body = status_and_body(raw)
        assert status == 431
        assert "header" in body["error"]
        assert after[0] == 200


def gated_stack(workers=1, **frontdoor_config):
    """A pool whose tuple reads park on a gate (an executing ask stays
    executing until the test opens it) and the front door over it."""
    engine = PrecisEngine(paper_instance(), graph=movies_graph())
    engine.ask(QUERY)  # index built before the gate goes in
    gate = threading.Event()
    entered = gate_reads(engine.db, gate)
    service = PrecisService(engine, config=ServiceConfig(workers=workers))
    return service, FrontDoorConfig(**frontdoor_config), gate, entered


class _CountingHTTP(FrontDoorHTTP):
    """Signals each finished connection handler."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = 0
        self.changed = asyncio.Event()

    async def _handle(self, reader, writer):
        try:
            await super()._handle(reader, writer)
        finally:
            self.handled += 1
            self.changed.set()


class TestClientDisconnect:
    def test_disconnect_mid_flight_leaks_nothing(self):
        service, config, gate, entered = gated_stack(tenant_slots=1)

        async def go():
            loop = asyncio.get_running_loop()
            frontdoor = AsyncFrontDoor(service, config)
            http = _CountingHTTP(frontdoor, port=0)
            await http.start()
            clients = []
            try:
                for query in ("Allen", "comedy"):
                    __, writer = await asyncio.open_connection(
                        http.host, http.port
                    )
                    writer.write(
                        f"GET /ask?q={query}&tenant=acme HTTP/1.1\r\n"
                        "Host: t\r\n\r\n".encode()
                    )
                    await writer.drain()
                    clients.append(writer)
                    if query == "Allen":
                        # executing: its worker is parked on a read
                        assert await loop.run_in_executor(
                            None, entered.wait, 10
                        )
                # one executing, one pending: both flights in flight
                await spin(lambda: frontdoor.pending() == 2, "admission")
                for writer in clients:  # both callers hang up
                    writer.close()
                    with contextlib.suppress(ConnectionResetError):
                        await writer.wait_closed()
                gate.set()
                while http.handled < 2:
                    http.changed.clear()
                    await asyncio.wait_for(http.changed.wait(), 30)
                return {
                    "flights": len(frontdoor._flights),
                    "pending": frontdoor.pending(),
                    "slots": frontdoor.tenant_inflight("acme"),
                    "waiters": frontdoor.metrics.inflight.value,
                    "executions": frontdoor.metrics.registry.counter(
                        "precis_service_executions_total"
                    ).value,
                    "after": await http_get(http.host, http.port, "/healthz"),
                }
            finally:
                gate.set()
                await http.stop()
                await frontdoor.close()

        try:
            observed = run(go())
        finally:
            service.close()
        assert observed == {
            "flights": 0,
            "pending": 0,
            "slots": 0,
            "waiters": 0,
            "executions": 2,  # both ran to completion, unobserved
            "after": (200, {"status": "ok", "pending": 0, "closed": False}),
        }


def _get(port: int, target: str, send_only: bool = False):
    """A blocking single-shot client; returns the open socket when
    *send_only*, else (status, parsed body)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.sendall(f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    return sock if send_only else _read(sock)


def _read(sock):
    with sock:
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    return status_and_body(raw)


class TestShutdownWithWorkInFlight:
    def test_every_admitted_flight_resolves_and_the_server_exits(
        self, monkeypatch
    ):
        """``repro serve`` end to end: /shutdown arrives while one
        flight executes and one waits; both callers get answers and
        the command returns."""
        from repro import cli

        service_engine = PrecisEngine(paper_instance(), graph=movies_graph())
        service_engine.ask(QUERY)
        gate = threading.Event()
        entered = gate_reads(service_engine.db, gate)
        monkeypatch.setattr(
            cli, "_load_engine", lambda *args, **kwargs: service_engine
        )
        out = Banner()
        result = {}
        server = threading.Thread(
            target=lambda: result.update(
                code=cli.main(
                    ["serve", "unused", "--port", "0", "--workers", "1"],
                    out=out,
                )
            ),
            daemon=True,
        )
        server.start()
        try:
            assert out.ready.wait(30), out.getvalue()
            port = out.port
            executing = _get(port, f"/ask?q={Q}", send_only=True)
            assert entered.wait(30)
            pending = _get(port, "/ask?q=comedy", send_only=True)
            for __ in range(10_000):
                if _get(port, "/healthz")[1]["pending"] == 2:
                    break
            else:
                pytest.fail("second flight never admitted")
            assert _get(port, "/shutdown") == (
                200, {"status": "shutting down"}
            )
        finally:
            gate.set()
        first, second = _read(executing), _read(pending)
        server.join(30)
        assert not server.is_alive(), "server did not exit"
        assert result == {"code": 0}
        assert first[0] == second[0] == 200
        assert first[1]["query"] and second[1]["query"]
        assert "server stopped" in out.getvalue()
