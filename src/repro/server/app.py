"""The asyncio HTTP front end: many clients, one database.

:class:`ReproServer` multiplexes per-connection :class:`repro.Session`\\ s
onto a single :class:`repro.storage.Database`.  Concurrency model:

* The event loop owns all connection and routing state; engine work
  (parse → plan → execute → drain) runs in a thread pool via
  ``run_in_executor`` so reading statements genuinely overlap.
* A :class:`~repro.server.gate.StatementGate` keeps the engine's
  single-writer discipline: retrieves hold the gate shared, mutations
  exclusive, and an open ``POST /transactions`` group pins the exclusive
  gate to its connection until commit/rollback/disconnect (the engine's
  transactions share one undo journal per database and are not isolated
  from concurrent writers — a rollback would undo their writes too — so
  the gate provides the isolation).
* Every successful mutation is stamped with a global ``seq`` drawn
  while the exclusive gate is held — the serial order of writes, which
  the concurrency tests replay to prove linearizability.

Endpoints (all JSON unless noted):

=======  ========================  ==========================================
POST     /statements               execute one statement (``$name`` params);
                                   ``"cursor": true`` opens a paged cursor
POST     /prepared                 compile a server-side prepared handle
POST     /prepared/{id}/execute    execute a prepared handle
GET      /cursors/{id}?max_rows=N  next page of a cursor (lazy pipeline)
DELETE   /cursors/{id}             close a cursor early
POST     /transactions             {"action": begin | commit | rollback}
GET      /schema                   catalog introspection (resource style)
GET      /metrics                  Prometheus text format (the database's
                                   ``repro.obs`` registry + server families)
GET      /                         server and protocol info
=======  ========================  ==========================================

A connection's session, prepared handles, open cursors and open
transaction die with the connection: on EOF or a torn socket the server
rolls back, invalidates, unpins and closes — nothing leaks past the TCP
lifetime that created it.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..api.session import PreparedStatement, Session, Transaction
from ..core.errors import (
    ConstraintViolation,
    QuelError,
    ReproError,
    SchemaError,
    SessionClosedError,
    StaleResultError,
    StorageError,
    WalError,
)
from ..obs import registry_for
from ..quel.ast_nodes import RetrieveStatement
from .codec import decode_params, rows_to_json
from .gate import StatementGate
from .http import HttpRequest, ProtocolError, read_request, write_response

__all__ = ["ReproServer", "ServerHandle", "serve"]

#: Thread-pool width for engine work (readers overlap up to this).
EXECUTOR_THREADS = 8

#: Page size for cursor fetches that don't pass ``max_rows``.
DEFAULT_PAGE_ROWS = 256


def status_for(error: BaseException) -> Tuple[int, bool]:
    """Map an engine error onto ``(HTTP status, retriable)``.

    ``StaleResultError`` is the one *retriable* conflict: the statement
    was valid, the undrained result just raced a writer — re-execute and
    it succeeds.  A constraint violation is a conflict that will repeat.
    A :class:`ProtocolError` — a request the server cannot read — is the
    client's fault.
    """
    if isinstance(error, ProtocolError):
        return 400, False
    if isinstance(error, StaleResultError):
        return 409, True
    if isinstance(error, ConstraintViolation):
        return 409, False
    if isinstance(error, SessionClosedError):
        return 410, False
    if isinstance(error, WalError):
        return 500, False
    if isinstance(error, (QuelError, SchemaError, StorageError, ReproError)):
        return 400, False
    if isinstance(error, (ValueError, KeyError, TypeError)):
        return 400, False
    return 500, False


def error_payload(error: BaseException) -> Dict[str, Any]:
    status, retriable = status_for(error)
    return {
        "error": str(error) or type(error).__name__,
        "type": type(error).__name__,
        "status": status,
        "retriable": retriable,
    }


# ---------------------------------------------------------------------------
# /schema: the catalog in the REST resource-handler style
# ---------------------------------------------------------------------------

#: Table fields exposed on the API (the resource-handler idiom: one
#: authoritative tuple, one derivation per computed field).
DISPLAYED_TABLE_FIELDS = (
    "name",
    "attributes",
    "row_count",
    "indexes",
    "constraints",
    "statistics",
)


class TableResource:
    """Render one :class:`~repro.storage.table.Table` for ``GET /schema``."""

    fields = DISPLAYED_TABLE_FIELDS

    @classmethod
    def render(cls, table) -> Dict[str, Any]:
        return {field: getattr(cls, field)(table) for field in cls.fields}

    @classmethod
    def name(cls, table) -> str:
        return table.name

    @classmethod
    def attributes(cls, table) -> List[str]:
        return list(table.schema.attributes)

    @classmethod
    def row_count(cls, table) -> int:
        return len(table.relation.tuples())

    @classmethod
    def indexes(cls, table) -> Dict[str, List[str]]:
        return {
            name: list(attributes)
            for name, attributes in table.index_specs().items()
        }

    @classmethod
    def constraints(cls, table) -> List[str]:
        return sorted(
            getattr(constraint, "name", None) or type(constraint).__name__
            for constraint in table.constraints
        )

    @classmethod
    def statistics(cls, table) -> Dict[str, Any]:
        return {"row_count": table.statistics.row_count}


# ---------------------------------------------------------------------------
# Per-connection state
# ---------------------------------------------------------------------------

class _Cursor:
    """A paged drain over one lazy result set (single-use iterator)."""

    def __init__(self, cursor_id: str, result, columns: Tuple[str, ...]):
        self.id = cursor_id
        self.columns = columns
        self._iterator = iter(result)
        #: Serialises pulls — pages run in executor threads, and a client
        #: retrying a timed-out page must not interleave two pulls.
        self._lock = threading.Lock()
        self.rows_served = 0
        self.done = False

    def fetch(self, max_rows: int) -> List[Any]:
        """Pull up to *max_rows* rows (blocking; call in an executor)."""
        page: List[Any] = []
        with self._lock:
            if self.done:
                return page
            for row in self._iterator:
                page.append(row)
                if len(page) >= max_rows:
                    break
            else:
                self.done = True
            self.rows_served += len(page)
        return page


class _Connection:
    """Everything one TCP connection owns on the server side."""

    def __init__(self, connection_id: str, session: Session):
        self.id = connection_id
        self.session = session
        self.prepared: Dict[str, PreparedStatement] = {}
        self.cursors: Dict[str, _Cursor] = {}
        self.transaction: Optional[Transaction] = None
        self._counter = itertools.count(1)

    def next_id(self, prefix: str) -> str:
        return f"{prefix}-{self.id}-{next(self._counter)}"


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------

class ReproServer:
    """Serve one database to many HTTP clients (see the module docstring).

    Parameters
    ----------
    database:
        The :class:`repro.storage.Database` every session speaks to.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_in_flight:
        Admission cap: requests beyond this many concurrently in-flight
        are rejected with 503 + ``Retry-After`` instead of queueing
        without bound.  ``None`` disables the cap.
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: Optional[int] = 64,
    ):
        self.database = database
        self.host = host
        self.port = port
        self.max_in_flight = max_in_flight
        self.gate = StatementGate()
        self.registry = registry_for(database)
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS, thread_name_prefix="repro-server"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connection_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._connections: set = set()
        self._conn_tasks: set = set()
        self._in_flight = 0
        #: Serial order of committed write statements (drawn while the
        #: exclusive gate is held, on the event loop — strictly monotone
        #: in the order writes actually applied).
        self.write_seq = 0

        self._requests_metric = self.registry.counter(
            "repro_server_requests_total",
            "HTTP requests served, by endpoint template and status.",
            ("endpoint", "status"),
        )
        self._latency_metric = self.registry.histogram(
            "repro_server_request_seconds",
            "Wall time per request, by endpoint template.",
            ("endpoint",),
        )
        self._in_flight_metric = self.registry.gauge(
            "repro_server_in_flight_requests",
            "Requests currently being handled.",
        ).labels()
        self._cursors_metric = self.registry.gauge(
            "repro_server_open_cursors",
            "Server-side cursors currently open.",
        ).labels()
        self._overload_metric = self.registry.counter(
            "repro_server_rejected_overload_total",
            "Requests rejected with 503 because max_in_flight was reached.",
        ).labels()
        self._connections_metric = self.registry.gauge(
            "repro_server_connections_open",
            "Client connections currently open.",
        ).labels()

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> "ReproServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing the transports makes every connection loop hit EOF and
        # run its own cleanup (rollback, unpin, session close); wait for
        # those tasks rather than destroying them mid-cleanup.
        for connection, writer in list(self._connections):
            try:
                writer.close()
            except Exception:
                pass
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        self._executor.shutdown(wait=False)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start_in_thread(self) -> "ServerHandle":
        """Run the server on a dedicated event-loop thread and return a
        handle with the bound address and a blocking ``stop()`` — what
        tests, benchmarks and the quickstart use."""
        loop = asyncio.new_event_loop()
        ready = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as error:
                failure.append(error)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        thread = threading.Thread(
            target=run, name="repro-server", daemon=True
        )
        thread.start()
        ready.wait()
        if failure:
            raise failure[0]
        return ServerHandle(self, loop, thread)

    # -- engine offloading -----------------------------------------------------
    async def _call(self, fn, *args):
        """Run blocking engine work on the server's thread pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    # -- connection loop -------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        connection = _Connection(
            f"c{next(self._connection_ids)}",
            Session(self.database),
        )
        entry = (connection, writer)
        self._connections.add(entry)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._connections_metric.inc()
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as error:
                    await write_response(
                        writer, 400, error_payload(error), keep_alive=False
                    )
                    break
                if request is None:
                    break  # clean disconnect
                keep_alive = request.keep_alive
                await self._dispatch(connection, writer, request)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, BrokenPipeError):
            pass  # torn connection: fall through to cleanup
        finally:
            self._connections.discard(entry)
            self._connections_metric.dec()
            await self._cleanup_connection(connection)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _cleanup_connection(self, connection: _Connection) -> None:
        """Release everything the connection owned (see module docstring)."""
        if connection.cursors:
            self._cursors_metric.dec(len(connection.cursors))
            connection.cursors.clear()
        connection.transaction = None
        # Session.close() rolls back an open group and invalidates the
        # prepared handles / undrained pipelines; it runs while the gate
        # is still pinned so the rollback cannot interleave with another
        # writer, and the pin is released after.
        try:
            await self._call(connection.session.close)
        finally:
            await self.gate.unpin(connection)

    # -- request dispatch ------------------------------------------------------
    async def _dispatch(self, connection, writer, request: HttpRequest) -> None:
        endpoint, handler, argument = self._route(request)
        if handler is None:
            await write_response(
                writer,
                404,
                {"error": f"no such endpoint: {request.method} {request.path}",
                 "type": "NotFound", "status": 404, "retriable": False},
            )
            self._requests_metric.labels(endpoint="unknown", status="404").inc()
            return
        if (
            self.max_in_flight is not None
            and self._in_flight >= self.max_in_flight
        ):
            self._overload_metric.inc()
            self._requests_metric.labels(endpoint=endpoint, status="503").inc()
            await write_response(
                writer,
                503,
                {"error": "server is at max_in_flight capacity; retry",
                 "type": "Overload", "status": 503, "retriable": True},
                extra_headers=(("Retry-After", "1"),),
            )
            return
        self._in_flight += 1
        self._in_flight_metric.inc()
        started = time.perf_counter()
        status = 500
        try:
            request_id = f"r{next(self._request_ids)}"
            connection.session.trace_tags = {
                "client": connection.id,
                "request": request_id,
            }
            try:
                status, payload, extra = await handler(
                    connection, request, argument
                )
            except Exception as error:  # protocol and engine errors → taxonomy
                payload, extra = error_payload(error), ()
                status = payload["status"]
            if isinstance(payload, bytes):
                await write_response(
                    writer,
                    status,
                    payload,
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                    extra_headers=tuple(extra),
                )
            else:
                await write_response(
                    writer, status, payload, extra_headers=tuple(extra)
                )
        finally:
            self._in_flight -= 1
            self._in_flight_metric.dec()
            self._requests_metric.labels(
                endpoint=endpoint, status=str(status)
            ).inc()
            self._latency_metric.labels(endpoint=endpoint).observe(
                time.perf_counter() - started
            )

    def _route(self, request: HttpRequest):
        """Resolve ``(endpoint template, handler, path argument)``."""
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [part for part in path.split("/") if part]
        if method == "POST" and path == "/statements":
            return "/statements", self._handle_statement, None
        if method == "POST" and path == "/prepared":
            return "/prepared", self._handle_prepare, None
        if (
            method == "POST"
            and len(parts) == 3
            and parts[0] == "prepared"
            and parts[2] == "execute"
        ):
            return "/prepared/{id}/execute", self._handle_prepared_execute, parts[1]
        if len(parts) == 2 and parts[0] == "cursors":
            if method == "GET":
                return "/cursors/{id}", self._handle_cursor_fetch, parts[1]
            if method == "DELETE":
                return "/cursors/{id}", self._handle_cursor_close, parts[1]
        if method == "POST" and path == "/transactions":
            return "/transactions", self._handle_transaction, None
        if method == "GET" and path == "/schema":
            return "/schema", self._handle_schema, None
        if method == "GET" and path == "/metrics":
            return "/metrics", self._handle_metrics, None
        if method == "GET" and path == "/":
            return "/", self._handle_root, None
        return path, None, None

    # -- statement execution ---------------------------------------------------
    @staticmethod
    def _is_read(prepared: PreparedStatement) -> bool:
        statement = prepared.statement
        return (
            isinstance(statement, RetrieveStatement) and statement.into is None
        )

    async def _execute(
        self,
        connection: _Connection,
        prepared: PreparedStatement,
        params: Dict[str, Any],
        *,
        want_cursor: bool,
        page_rows: int,
    ) -> Tuple[int, Any, tuple]:
        """Gate-aware execution shared by /statements and /prepared."""
        session = connection.session
        if self._is_read(prepared):
            async with self.gate.shared(connection):
                result = await self._call(
                    session.execute_prepared, prepared, params
                )
                if want_cursor:
                    return await self._open_cursor(
                        connection, result, page_rows
                    )
                rows = await self._call(lambda: result.rows)
                columns = result.columns
                return (
                    200,
                    {
                        "columns": list(columns),
                        "rows": rows_to_json(rows, columns),
                        "row_count": len(rows),
                    },
                    (),
                )
        async with self.gate.exclusive(connection):
            result = await self._call(
                session.execute_prepared, prepared, params
            )
            self.write_seq += 1
            return (
                200,
                {"rows_affected": result.rows_affected, "seq": self.write_seq},
                (),
            )

    async def _open_cursor(
        self, connection: _Connection, result, page_rows: int
    ) -> Tuple[int, Any, tuple]:
        cursor = _Cursor(
            connection.next_id("cur"), result, result.columns
        )
        first_page = await self._call(cursor.fetch, page_rows)
        payload = {
            "columns": list(cursor.columns),
            "rows": rows_to_json(first_page, cursor.columns),
            "done": cursor.done,
            "cursor": None,
        }
        if not cursor.done:
            connection.cursors[cursor.id] = cursor
            self._cursors_metric.inc()
            payload["cursor"] = cursor.id
        return 200, payload, ()

    async def _handle_statement(self, connection, request, _argument):
        body = request.json()
        text = body.get("statement")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError('the request needs a "statement" string')
        params = decode_params(body.get("params"))
        prepared = connection.session.prepare(text)
        page_rows = int(body.get("max_rows") or DEFAULT_PAGE_ROWS)
        return await self._execute(
            connection,
            prepared,
            params,
            want_cursor=bool(body.get("cursor")),
            page_rows=max(1, page_rows),
        )

    # -- prepared statements ---------------------------------------------------
    async def _handle_prepare(self, connection, request, _argument):
        body = request.json()
        text = body.get("statement")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError('the request needs a "statement" string')
        prepared = connection.session.prepare(text)
        async with self.gate.shared(connection):
            # Compiling reads the catalog — hold the gate like any read.
            parameters = await self._call(lambda: prepared.parameters)
        handle_id = connection.next_id("ps")
        connection.prepared[handle_id] = prepared
        return (
            201,
            {
                "id": handle_id,
                "parameters": list(parameters),
                "kind": "retrieve" if self._is_read(prepared) else "write",
            },
            (),
        )

    async def _handle_prepared_execute(self, connection, request, handle_id):
        prepared = connection.prepared.get(handle_id)
        if prepared is None:
            return (
                404,
                {"error": f"no prepared statement {handle_id!r} on this "
                          f"connection",
                 "type": "NotFound", "status": 404, "retriable": False},
                (),
            )
        body = request.json()
        params = decode_params(body.get("params"))
        page_rows = int(body.get("max_rows") or DEFAULT_PAGE_ROWS)
        return await self._execute(
            connection,
            prepared,
            params,
            want_cursor=bool(body.get("cursor")),
            page_rows=max(1, page_rows),
        )

    # -- cursors ---------------------------------------------------------------
    async def _handle_cursor_fetch(self, connection, request, cursor_id):
        cursor = connection.cursors.get(cursor_id)
        if cursor is None:
            return (
                404,
                {"error": f"no open cursor {cursor_id!r} on this connection",
                 "type": "NotFound", "status": 404, "retriable": False},
                (),
            )
        try:
            max_rows = int(request.query.get("max_rows", DEFAULT_PAGE_ROWS))
        except ValueError:
            raise ProtocolError("max_rows must be an integer")
        async with self.gate.shared(connection):
            page = await self._call(cursor.fetch, max(1, max_rows))
        if cursor.done:
            connection.cursors.pop(cursor_id, None)
            self._cursors_metric.dec()
        return (
            200,
            {
                "columns": list(cursor.columns),
                "rows": rows_to_json(page, cursor.columns),
                "done": cursor.done,
                "cursor": None if cursor.done else cursor.id,
            },
            (),
        )

    async def _handle_cursor_close(self, connection, request, cursor_id):
        cursor = connection.cursors.pop(cursor_id, None)
        if cursor is None:
            return (
                404,
                {"error": f"no open cursor {cursor_id!r} on this connection",
                 "type": "NotFound", "status": 404, "retriable": False},
                (),
            )
        self._cursors_metric.dec()
        return 200, {"closed": cursor_id, "rows_served": cursor.rows_served}, ()

    # -- transactions ----------------------------------------------------------
    async def _handle_transaction(self, connection, request, _argument):
        body = request.json()
        action = body.get("action")
        session = connection.session
        if action == "begin":
            if connection.transaction is not None:
                return (
                    409,
                    {"error": "a transaction is already open on this "
                              "connection",
                     "type": "TransactionState", "status": 409,
                     "retriable": False},
                    (),
                )
            await self.gate.pin(connection)
            try:
                transaction = session.transaction()
                await self._call(transaction.begin)
            except BaseException:
                await self.gate.unpin(connection)
                raise
            connection.transaction = transaction
            return 200, {"active": True}, ()
        if action in ("commit", "rollback"):
            transaction = connection.transaction
            if transaction is None:
                return (
                    409,
                    {"error": "no transaction is open on this connection",
                     "type": "TransactionState", "status": 409,
                     "retriable": False},
                    (),
                )
            connection.transaction = None
            try:
                if action == "commit":
                    await self._call(transaction.commit)
                else:
                    await self._call(transaction.rollback)
            finally:
                await self.gate.unpin(connection)
            return 200, {"active": False, "action": action}, ()
        raise ProtocolError(
            f'action must be "begin", "commit" or "rollback", got {action!r}'
        )

    # -- introspection ---------------------------------------------------------
    async def _handle_schema(self, connection, request, _argument):
        async with self.gate.shared(connection):
            payload = await self._call(self._render_schema)
        return 200, payload, ()

    def _render_schema(self) -> Dict[str, Any]:
        catalog = self.database.catalog
        return {
            "database": self.database.name,
            "fields": list(DISPLAYED_TABLE_FIELDS),
            "tables": [
                TableResource.render(catalog.table(name))
                for name in catalog.table_names()
            ],
            "foreign_keys": [
                {"owner": owner, "constraint": str(constraint)}
                for owner, constraint in catalog.foreign_key_entries()
            ],
        }

    async def _handle_metrics(self, connection, request, _argument):
        text = await self._call(self.registry.render_prometheus)
        return 200, text.encode("utf-8"), ()

    async def _handle_root(self, connection, request, _argument):
        return (
            200,
            {
                "server": "repro",
                "database": self.database.name,
                "endpoints": [
                    "POST /statements",
                    "POST /prepared",
                    "POST /prepared/{id}/execute",
                    "GET /cursors/{id}?max_rows=N",
                    "DELETE /cursors/{id}",
                    "POST /transactions",
                    "GET /schema",
                    "GET /metrics",
                ],
            },
            (),
        )


class ServerHandle:
    """A running background-thread server: address + blocking stop()."""

    def __init__(self, server: ReproServer, loop, thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the loop and join the server thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


def serve(database, host: str = "127.0.0.1", port: int = 0, **options) -> ServerHandle:
    """Start a :class:`ReproServer` on a background thread and return its
    handle — ``serve(db)`` then ``handle.url`` is all a client needs."""
    return ReproServer(database, host, port, **options).start_in_thread()
