"""Minimal asyncio HTTP/1.1 transport for the evaluation service.

Stdlib-only by design (the container policy bans new dependencies): a
small, strict subset of HTTP/1.1 — JSON request/response bodies,
``Content-Length`` framing, keep-alive — which is everything the load
generator, the chaos harness, and curl need. The server is a thin
adapter: all routing, policy, and robustness live in
:class:`~repro.service.app.SOSEvaluationService`; this module only
parses bytes and never blocks the event loop on a request body larger
than the configured cap (oversized bodies get ``413`` and the
connection is closed).

The matching :func:`http_request` client coroutine keeps the open-loop
load generator honest: one connection per request, no pooling, no
hidden retries.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.service.app import SOSEvaluationService

#: Hard caps keeping a malicious/buggy client from ballooning memory.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024
#: How long the server waits for a (keep-alive) client to send a request.
IDLE_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _encode_response(
    status: int, body: Dict[str, Any], headers: Dict[str, str]
) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: keep-alive")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + payload


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line; a line past the reader's buffer limit is a ServiceError."""
    try:
        return await reader.readline()
    except ValueError as exc:  # asyncio.LimitOverrunError, re-raised
        raise ServiceError(f"request line too long: {exc}") from exc


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; None on clean EOF; ServiceError on bad input."""
    try:
        request_line = await asyncio.wait_for(
            _read_line(reader), timeout=IDLE_TIMEOUT
        )
    except asyncio.TimeoutError:
        return None
    if not request_line:
        return None
    try:
        method, path, _version = request_line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError(f"malformed request line: {exc}") from exc

    headers: Dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await _read_line(reader)
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise ServiceError("headers exceed limit")
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError as exc:
            raise ServiceError("undecodable header") from exc
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        if not (length.isascii() and length.isdigit()):
            raise ServiceError(f"bad Content-Length {length!r}")
        size = int(length)
        if size > MAX_BODY_BYTES:
            raise ServiceError(f"body size {size} outside [0, {MAX_BODY_BYTES}]")
        body = await reader.readexactly(size)
    return method.upper(), path, headers, body


class HttpServer:
    """Serve one :class:`SOSEvaluationService` over a TCP port."""

    def __init__(
        self,
        service: SOSEvaluationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Start the service and listen; resolves the ephemeral port."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def __aenter__(self) -> "HttpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ServiceError as exc:
                    writer.write(
                        _encode_response(400, {"error": str(exc)}, {})
                    )
                    await writer.drain()
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    break
                if request is None:
                    break
                method, path, headers, raw_body = request
                body: Optional[Dict[str, Any]] = None
                if raw_body:
                    try:
                        parsed = json.loads(raw_body)
                    except json.JSONDecodeError as exc:
                        writer.write(
                            _encode_response(
                                400, {"error": f"invalid JSON body: {exc}"}, {}
                            )
                        )
                        await writer.drain()
                        continue
                    if not isinstance(parsed, dict):
                        writer.write(
                            _encode_response(
                                400,
                                {"error": "JSON body must be an object"},
                                {},
                            )
                        )
                        await writer.drain()
                        continue
                    body = parsed
                status, response_body, extra = await self.service.handle(
                    method, path, body, headers
                )
                writer.write(_encode_response(status, response_body, extra))
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    """One HTTP request over a fresh connection; returns
    ``(status, headers, parsed-JSON body)``."""

    async def _roundtrip() -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else b""
            )
            lines = [
                f"{method} {path} HTTP/1.1",
                f"Host: {host}:{port}",
                "Connection: close",
            ]
            if payload:
                lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(payload)}")
            for name, value in (headers or {}).items():
                lines.append(f"{name}: {value}")
            writer.write(
                ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload
            )
            await writer.drain()

            status_line = await reader.readline()
            parts = status_line.decode("ascii", "replace").split(None, 2)
            if len(parts) < 2:
                raise ServiceError(f"bad status line {status_line!r}")
            status = int(parts[1])
            response_headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                response_headers[name.strip().lower()] = value.strip()
            length = int(response_headers.get("content-length", "0"))
            raw = await reader.readexactly(length) if length else b""
            parsed = json.loads(raw) if raw else {}
            return status, response_headers, parsed
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    return await asyncio.wait_for(_roundtrip(), timeout=timeout)
