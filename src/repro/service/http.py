"""A minimal HTTP endpoint over the async front door.

Pure-stdlib asyncio (``asyncio.start_server`` + hand-rolled HTTP/1.1
parsing) so the repository serves over the wire without any web
framework; when :mod:`aiohttp` is available nothing here changes — the
front door is the integration surface, this module is just the thinnest
possible wire adapter over :meth:`AsyncFrontDoor.submit`.

Routes (all GET; responses are JSON unless noted):

``/ask``
    Answer one précis query. Parameters: ``q`` (required, the query
    text), ``priority`` (``interactive``/``batch``), ``tenant``,
    ``deadline_ms``, ``degree_weight``, ``degree_top``,
    ``degree_length``, ``per_relation``, ``total``, ``strategy``,
    ``translate`` (0/1). Shed outcomes map onto status codes: 408 for
    a stale (deadline-expired) request, 429 for queue-full and
    tenant-quota sheds, 503 once closed, 400 for malformed parameters
    (including a constraint value out of range and a NaN
    ``deadline_ms``), 500 for execution failures — each with a JSON
    body naming the error class.
``/metrics``
    Prometheus text exposition of the shared registry (the serving
    stack's one metrics family, plus the engines' series when they
    share the registry).
``/healthz``
    Liveness: pending flight count and closed flag.
``/shutdown``
    Resolves :meth:`FrontDoorHTTP.serve_until_shutdown` — how tests
    and the ``repro serve`` CLI stop a server without signals.

A request line or header line longer than the stream reader's limit
(64 KiB) is answered 414 or 431 with a JSON body; anything else the
endpoint cannot parse is a 400.

One request per connection (``Connection: close``): the endpoint
exists for integration tests, the load generator and manual poking, not
as a production web server.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional
from urllib.parse import parse_qs, unquote, urlsplit

from ..core import STRATEGIES, ConstraintOptionError, Deadline, read_constraints
from .errors import Shed
from .frontdoor import PRIORITY_BATCH, PRIORITY_INTERACTIVE, AsyncFrontDoor

__all__ = ["FrontDoorHTTP"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: shed reason -> HTTP status (failures that are no shed are 500s)
_SHED_STATUS = {"stale": 408, "full": 429, "tenant_quota": 429, "closed": 503}


class _BadRequest(Exception):
    """A parameter the endpoint could not parse (maps to 400)."""


def _param(params: dict, name: str, cast, default=None):
    values = params.get(name)
    if not values:
        return default
    try:
        return cast(values[-1])
    except (TypeError, ValueError) as exc:
        raise _BadRequest(f"bad {name!r}: {values[-1]!r}") from exc


def _deadline_after_ms(text: str) -> Deadline:
    return Deadline.after(float(text) / 1000.0)


def _ask_kwargs(params: dict) -> dict[str, Any]:
    """Translate /ask query parameters into submit() keyword arguments
    (the constraint parameters are read as the CLI reads its
    --degree-*/--per-relation/--total flags)."""
    try:
        degree, cardinality = read_constraints(
            degree_weight=_param(params, "degree_weight", float),
            degree_top=_param(params, "degree_top", int),
            degree_length=_param(params, "degree_length", int),
            per_relation=_param(params, "per_relation", int),
            total=_param(params, "total", int),
        )
    except ConstraintOptionError as exc:
        raise _BadRequest(str(exc)) from exc
    kwargs: dict[str, Any] = {"degree": degree, "cardinality": cardinality}
    strategy = _param(params, "strategy", str)
    if strategy is not None:
        if strategy not in STRATEGIES:
            raise _BadRequest(f"bad 'strategy': {strategy!r}")
        kwargs["strategy"] = strategy
    translate = _param(params, "translate", int)
    if translate is not None:
        kwargs["translate"] = bool(translate)
    return kwargs


class FrontDoorHTTP:
    """Serve one :class:`AsyncFrontDoor` over HTTP.

    >>> http = FrontDoorHTTP(frontdoor, host="127.0.0.1", port=0)
    >>> await http.start()          # port 0 -> an ephemeral port
    >>> http.port                   # the bound port
    >>> await http.serve_until_shutdown()   # returns after /shutdown
    >>> await http.stop()

    Must run on the front door's event loop.
    """

    def __init__(
        self,
        frontdoor: AsyncFrontDoor,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.frontdoor = frontdoor
        self.host = host
        self.port = port
        self._server: Optional[asyncio.Server] = None
        self._shutdown = asyncio.Event()

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Block until a ``/shutdown`` request arrives (or
        :meth:`stop` is called)."""
        await self._shutdown.wait()

    async def stop(self) -> None:
        """Stop accepting and wake :meth:`serve_until_shutdown`.
        Does not close the front door — the owner does that."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "FrontDoorHTTP":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ---------------------------------------------------------- plumbing

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request_line = await reader.readline()
            except ValueError:  # longer than the reader's limit
                await self._respond(
                    writer, 414, {"error": "request line too long"}
                )
                return
            if not request_line:
                return
            try:
                method, target, _version = (
                    request_line.decode("latin-1").strip().split(" ", 2)
                )
            except ValueError:
                await self._respond(
                    writer, 400, {"error": "malformed request line"}
                )
                return
            # drain headers (unused: no bodies, no keep-alive)
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # longer than the reader's limit
                    await self._respond(
                        writer, 431, {"error": "header line too long"}
                    )
                    return
                if line in (b"\r\n", b"\n", b""):
                    break
            if method not in ("GET", "POST"):
                await self._respond(
                    writer, 405, {"error": f"method {method} not allowed"}
                )
                return
            status, body, content_type = await self._route(target)
            await self._respond(writer, status, body, content_type)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, target: str):
        """Dispatch one request target; returns (status, body, type)."""
        parts = urlsplit(target)
        path = unquote(parts.path)
        params = parse_qs(parts.query)
        if path == "/healthz":
            return (
                200,
                {
                    "status": "ok",
                    "pending": self.frontdoor.pending(),
                    "closed": self.frontdoor.closed,
                },
                "application/json",
            )
        if path == "/metrics":
            return 200, self.frontdoor.metrics.prometheus(), "text/plain"
        if path == "/shutdown":
            self._shutdown.set()
            return 200, {"status": "shutting down"}, "application/json"
        if path == "/ask":
            return await self._ask(params)
        return 404, {"error": f"no route {path!r}"}, "application/json"

    async def _ask(self, params: dict):
        query = _param(params, "q", str)
        if query is None:
            return 400, {"error": "missing required parameter 'q'"}, (
                "application/json"
            )
        try:
            priority = _param(params, "priority", str, PRIORITY_INTERACTIVE)
            if priority not in (PRIORITY_INTERACTIVE, PRIORITY_BATCH):
                raise _BadRequest(f"bad 'priority': {priority!r}")
            tenant = _param(params, "tenant", str)
            deadline = _param(params, "deadline_ms", _deadline_after_ms)
            kwargs = _ask_kwargs(params)
        except _BadRequest as exc:
            return 400, {"error": str(exc)}, "application/json"
        try:
            answer = await self.frontdoor.submit(
                query,
                deadline=deadline,
                tenant=tenant,
                priority=priority,
                **kwargs,
            )
        except Shed as exc:
            return (
                _SHED_STATUS[exc.reason],
                {"error": type(exc).__name__, "detail": str(exc)},
                "application/json",
            )
        except (TypeError, ValueError) as exc:
            # bad ask arguments surface from the engine as TypeError /
            # ValueError — the caller's fault, not the server's
            return (
                400,
                {"error": type(exc).__name__, "detail": str(exc)},
                "application/json",
            )
        except Exception as exc:  # noqa: BLE001 — wire boundary
            return (
                500,
                {"error": type(exc).__name__, "detail": str(exc)},
                "application/json",
            )
        # the answer's kept encoding: a cache hit or a coalesced
        # waiter writes bytes another request already encoded
        return 200, answer.to_json(), "application/json"

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body,
        content_type: str = "application/json",
    ) -> None:
        if isinstance(body, (dict, list)):
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
        elif isinstance(body, str):
            payload = body.encode("utf-8")
        else:
            payload = bytes(body)
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    def __repr__(self):
        bound = f"{self.host}:{self.port}" if self._server else "unbound"
        return f"FrontDoorHTTP({bound})"
