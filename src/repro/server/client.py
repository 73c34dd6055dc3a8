"""A blocking HTTP client for :class:`~repro.server.app.ReproServer`.

Built on the stdlib's :class:`http.client.HTTPConnection` (one keep-alive
TCP connection per client — which is also the server's unit of session /
cursor / transaction ownership, so one :class:`ServerClient` behaves
exactly like one database connection).  Used by the tests, the ``e2e``
benchmark's HTTP workloads and the quickstart example; it is
deliberately synchronous —
concurrency in those callers comes from threads, mirroring real client
processes.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["ServerClient", "ServerError", "PreparedHandle", "CursorPage"]


class ServerError(Exception):
    """A non-2xx response, carrying the server's error taxonomy fields."""

    def __init__(self, status: int, payload: Mapping[str, Any]):
        self.status = status
        self.payload = dict(payload)
        self.error_type = self.payload.get("type", "Unknown")
        self.retriable = bool(self.payload.get("retriable"))
        super().__init__(
            f"[{status} {self.error_type}] {self.payload.get('error', '')}"
        )


class PreparedHandle:
    """A server-side prepared statement (id + expected parameters)."""

    def __init__(self, client: "ServerClient", handle_id: str,
                 parameters: Tuple[str, ...], kind: str):
        self.client = client
        self.id = handle_id
        self.parameters = parameters
        self.kind = kind

    def execute(self, params: Optional[Mapping[str, Any]] = None,
                **options) -> Dict[str, Any]:
        return self.client.execute_prepared(self.id, params, **options)

    def __repr__(self) -> str:
        return f"PreparedHandle({self.id!r}, parameters={list(self.parameters)})"


class CursorPage:
    """One page of a cursor-paged result."""

    def __init__(self, payload: Mapping[str, Any]):
        self.columns: List[str] = list(payload.get("columns", ()))
        self.rows: List[Dict[str, Any]] = list(payload.get("rows", ()))
        self.cursor: Optional[str] = payload.get("cursor")
        self.done: bool = bool(payload.get("done"))

    def __repr__(self) -> str:
        return (
            f"CursorPage(rows={len(self.rows)}, done={self.done}, "
            f"cursor={self.cursor!r})"
        )


class ServerClient:
    """One blocking connection to a running server."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self._conn = HTTPConnection(host, port, timeout=timeout)

    @classmethod
    def for_handle(cls, handle, timeout: float = 30.0) -> "ServerClient":
        """A client for a :class:`~repro.server.app.ServerHandle`."""
        return cls(handle.host, handle.port, timeout=timeout)

    # -- transport -------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Any]:
        """One round-trip; returns ``(status, decoded payload)``.  The
        ``/metrics`` text body comes back as a ``str``."""
        encoded = json.dumps(body).encode("utf-8") if body is not None else b""
        headers = {"Content-Type": "application/json"} if encoded else {}
        self._conn.request(method, path, body=encoded or None, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if "application/json" in content_type:
            payload = json.loads(raw) if raw else {}
        else:
            payload = raw.decode("utf-8")
        return response.status, payload

    def _checked(self, method: str, path: str,
                 body: Optional[Mapping[str, Any]] = None) -> Any:
        status, payload = self.request(method, path, body)
        if status >= 400:
            raise ServerError(
                status,
                payload if isinstance(payload, Mapping) else {"error": payload},
            )
        return payload

    # -- statements ------------------------------------------------------------
    def execute(
        self,
        statement: str,
        params: Optional[Mapping[str, Any]] = None,
        *,
        cursor: bool = False,
        max_rows: Optional[int] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"statement": statement}
        if params:
            body["params"] = dict(params)
        if cursor:
            body["cursor"] = True
        if max_rows is not None:
            body["max_rows"] = max_rows
        return self._checked("POST", "/statements", body)

    def rows(self, statement: str,
             params: Optional[Mapping[str, Any]] = None) -> List[Dict[str, Any]]:
        """Execute a retrieve and return its rows as plain dicts."""
        return self.execute(statement, params)["rows"]

    def open_cursor(
        self,
        statement: str,
        params: Optional[Mapping[str, Any]] = None,
        max_rows: int = 256,
    ) -> CursorPage:
        return CursorPage(
            self.execute(statement, params, cursor=True, max_rows=max_rows)
        )

    def fetch(self, cursor_id: str, max_rows: Optional[int] = None) -> CursorPage:
        path = f"/cursors/{cursor_id}"
        if max_rows is not None:
            path += f"?max_rows={int(max_rows)}"
        return CursorPage(self._checked("GET", path))

    def close_cursor(self, cursor_id: str) -> Dict[str, Any]:
        return self._checked("DELETE", f"/cursors/{cursor_id}")

    def iter_pages(
        self,
        statement: str,
        params: Optional[Mapping[str, Any]] = None,
        max_rows: int = 256,
    ) -> Iterator[CursorPage]:
        """Open a cursor and yield every page until the drain finishes."""
        page = self.open_cursor(statement, params, max_rows=max_rows)
        yield page
        while not page.done and page.cursor:
            page = self.fetch(page.cursor, max_rows=max_rows)
            yield page

    # -- prepared statements ---------------------------------------------------
    def prepare(self, statement: str) -> PreparedHandle:
        payload = self._checked("POST", "/prepared", {"statement": statement})
        return PreparedHandle(
            self,
            payload["id"],
            tuple(payload.get("parameters", ())),
            payload.get("kind", "unknown"),
        )

    def execute_prepared(
        self,
        handle_id: str,
        params: Optional[Mapping[str, Any]] = None,
        *,
        cursor: bool = False,
        max_rows: Optional[int] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {}
        if params:
            body["params"] = dict(params)
        if cursor:
            body["cursor"] = True
        if max_rows is not None:
            body["max_rows"] = max_rows
        return self._checked("POST", f"/prepared/{handle_id}/execute", body)

    # -- transactions ----------------------------------------------------------
    def begin(self) -> Dict[str, Any]:
        return self._checked("POST", "/transactions", {"action": "begin"})

    def commit(self) -> Dict[str, Any]:
        return self._checked("POST", "/transactions", {"action": "commit"})

    def rollback(self) -> Dict[str, Any]:
        return self._checked("POST", "/transactions", {"action": "rollback"})

    # -- introspection ---------------------------------------------------------
    def schema(self) -> Dict[str, Any]:
        return self._checked("GET", "/schema")

    def metrics(self) -> str:
        """The raw Prometheus text exposition."""
        return self._checked("GET", "/metrics")

    def info(self) -> Dict[str, Any]:
        return self._checked("GET", "/")

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drop the TCP connection (the server rolls back an open
        transaction, closes open cursors and invalidates prepared
        handles owned by it)."""
        self._conn.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"ServerClient({self.host}:{self.port})"
