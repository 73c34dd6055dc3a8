"""A minimal HTTP/1.1 layer over asyncio streams.

The server's zero-dependency policy rules out aiohttp and friends, and
the protocol surface it actually needs is tiny: request line + headers +
an optional ``Content-Length`` body in, status line + headers + body
out, keep-alive by default.  This module implements exactly that —
chunked transfer, trailers, pipelining beyond read-one-write-one and
HTTP/2 are deliberately out of scope (the blocking test client and every
mainstream HTTP client speak this subset).

Hard limits (request-line length, header count, body size) bound what a
misbehaving or malicious peer can make the server buffer; crossing one
raises :class:`ProtocolError`, which the connection loop answers with a
400 and a close.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpRequest",
    "ProtocolError",
    "read_request",
    "write_response",
    "STATUS_REASONS",
]

#: Reason phrases for the statuses the server emits.
STATUS_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Bounds on what one request may make the server buffer.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_COUNT = 64
MAX_HEADER_LINE = 8 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024


class ProtocolError(Exception):
    """The peer sent something that is not the HTTP subset we speak."""


class HttpRequest:
    """One parsed request: method, path, query, headers, body."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
    ):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> Dict[str, Any]:
        """The body decoded as a JSON object (an empty body is an empty
        object); anything else is a :class:`ProtocolError`."""
        if not self.body:
            return {}
        try:
            body = json.loads(self.body)
        except ValueError as error:
            raise ProtocolError(f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise ProtocolError(
                f"request body must be a JSON object, got {type(body).__name__}"
            )
        return body

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.path!r}, {len(self.body)}B)"


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Read one request; ``None`` when the peer closed the connection
    cleanly between requests (the keep-alive loop's exit signal)."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between requests
        raise ProtocolError("connection closed mid-request-line")
    except asyncio.LimitOverrunError:
        raise ProtocolError("request line too long")
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError("request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target, _version = parts
    split = urlsplit(target)
    path = unquote(split.path)
    query = {key: value for key, value in parse_qsl(split.query)}

    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ProtocolError("connection closed inside headers")
        if line in (b"\r\n", b"\n"):
            break
        if len(line) > MAX_HEADER_LINE:
            raise ProtocolError("header line too long")
        if len(headers) >= MAX_HEADER_COUNT:
            raise ProtocolError("too many headers")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked request bodies are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(f"bad Content-Length: {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable Content-Length: {length}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed inside the body")
    return HttpRequest(method.upper(), path, query, headers, body)


def encode_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Tuple[Tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    *,
    content_type: Optional[str] = None,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> None:
    """Serialise and send one response.

    *payload* is JSON-encoded unless it is already ``bytes`` (then
    *content_type* should say what it is — the ``/metrics`` text path).
    """
    if isinstance(payload, bytes):
        body = payload
        content_type = content_type or "application/octet-stream"
    else:
        body = json.dumps(payload, default=str).encode("utf-8")
        content_type = content_type or "application/json"
    writer.write(
        encode_response(
            status,
            body,
            content_type=content_type,
            extra_headers=extra_headers,
            keep_alive=keep_alive,
        )
    )
    await writer.drain()
