"""Shared helpers for the serving-layer test battery.

Synchronization is event-based throughout, per the no-sleep discipline
of tests/obs/test_thread_safety.py: workers are parked on
:class:`GateDeadline` (a threading.Event inside the engine's
cooperative deadline check), the event loop waits for thread-side
events via ``run_in_executor``, and clock-dependent behaviour uses
:class:`FakeClock` deadlines — no wall ``time.sleep`` anywhere.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading

from repro.core import Deadline

__all__ = [
    "Banner",
    "GateDeadline",
    "FakeClock",
    "canonical",
    "entered",
    "http_get",
    "http_get_bytes",
    "run",
    "serve",
    "spin",
]


def run(coro):
    """Run one test coroutine on a fresh event loop (no pytest-asyncio
    in the toolchain — each test owns its loop explicitly)."""
    return asyncio.run(coro)


class GateDeadline(Deadline):
    """Never expires, but parks the asking worker on *gate* at its
    first ``expired()`` check — deterministic worker occupancy without
    sleeps. The front door never calls ``expired()`` on a deadline
    that cannot expire, so only the engine's first check parks."""

    def __init__(self, gate: threading.Event):
        super().__init__(None)
        self.gate = gate
        self.entered = threading.Event()

    def expired(self) -> bool:
        if not self.entered.is_set():
            self.entered.set()
            self.gate.wait(timeout=30)
        return False


async def entered(gate_deadline: GateDeadline) -> None:
    """Await (off-loop) until a worker is parked on *gate_deadline*."""
    loop = asyncio.get_running_loop()
    hit = await loop.run_in_executor(
        None, gate_deadline.entered.wait, 10
    )
    assert hit, "no worker ever reached the gated deadline"


class FakeClock:
    """A manually-advanced clock for injectable-clock deadlines:
    ``Deadline(expires_at, clock=FakeClock())`` expires exactly when
    the test advances past it — no wall time involved."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def canonical(answer) -> str:
    """Answer bytes for coherence comparison."""
    return json.dumps(answer.to_dict(), sort_keys=True)


async def spin(predicate, what="condition"):
    """Yield the loop until *predicate* holds (loop-side state only)."""
    for _ in range(100_000):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError(f"{what} never became true")


def serve(service, query, frontdoor_config=None, **submit_kwargs):
    """One ask through a fresh front door over *service* (blocking)."""
    from repro.service import AsyncFrontDoor

    async def go():
        async with AsyncFrontDoor(service, frontdoor_config) as frontdoor:
            return await frontdoor.submit(query, **submit_kwargs)

    return run(go())


async def http_get_bytes(
    host: str, port: int, target: str, method: str = "GET"
) -> tuple[int, bytes]:
    """A raw single-shot HTTP client on the test's own loop; returns
    (status, body bytes as sent)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{method} {target} HTTP/1.1\r\nHost: test\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    head, __, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


async def http_get(host: str, port: int, target: str, method: str = "GET"):
    """:func:`http_get_bytes` with the body parsed as JSON when it is
    JSON; returns (status, parsed-or-raw body)."""
    status, body = await http_get_bytes(host, port, target, method)
    try:
        parsed = json.loads(body)
    except ValueError:
        parsed = body.decode("utf-8", "replace")
    return status, parsed


class Banner(io.StringIO):
    """``repro serve``'s stdout: signals once the server announces its
    port."""

    def __init__(self):
        super().__init__()
        self.ready = threading.Event()

    def write(self, text):
        written = super().write(text)
        if "listening on http://" in self.getvalue():
            self.ready.set()
        return written

    @property
    def port(self) -> int:
        line = next(
            line for line in self.getvalue().splitlines()
            if "listening on" in line
        )
        return int(line.rsplit(":", 1)[1])
