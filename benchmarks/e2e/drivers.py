"""The two kinds of caller: a ``ServerClient`` connection and an
in-process ``Session``.

``run(op)`` performs one op the way a user of that surface would and
returns ``(raw answer, time the first page arrived or None)``; answers
are scored later, outside the timed interval.  ``workload.statements``
maps every op kind to the statement it executes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

from repro.api.session import Session
from repro.server import ServerClient

from workloads import FIRST_ROWS, PAGE_ROWS, Op


class Deliberate(Exception):
    """Raised inside a ``txn_small`` transaction to force the rollback."""


class HttpDriver:
    """One keep-alive connection to the server child."""

    def __init__(self, workload, client: ServerClient):
        self.client = client
        self.texts = workload.statements
        #: Prepared handles — except where the workload sends text, so
        #: that every request is parsed (``mixed_http``).
        self.handles: Dict[str, str] = {} if workload.sends_text else {
            kind: client.prepare(text).id for kind, text in self.texts.items()
        }

    def _execute(self, kind: str, params, **options) -> Dict[str, Any]:
        handle = self.handles.get(kind)
        if handle is not None:
            return self.client.execute_prepared(handle, params, **options)
        return self.client.execute(self.texts[kind], params, **options)

    def run(self, op: Op) -> Tuple[Any, Optional[float]]:
        kind = op.kind
        if kind == "scan":
            payload = self._execute(kind, op.params, cursor=True, max_rows=PAGE_ROWS)
            first = time.perf_counter()
            rows, cursor = payload["rows"], payload["cursor"]
            while cursor:
                page = self.client.fetch(cursor, PAGE_ROWS)
                rows += page.rows
                cursor = page.cursor
            return rows, first
        if kind == "txn":
            self.client.begin()
            try:
                affected = [self._execute(kind, row)["rows_affected"]
                            for row in op.params["rows"]]
            except BaseException:
                self.client.rollback()
                raise
            self.client.commit()
            return affected, None
        payload = self._execute(kind, op.params)
        return payload["rows"] if "rows" in payload else payload["rows_affected"], None


class SessionDriver:
    """An in-process session; also how a traced run replays the HTTP
    workloads' ops without the server (``layers.py``)."""

    def __init__(self, workload, session: Session):
        self.session = session
        self.database = session.database
        self.prepared = {
            kind: session.prepare(text) for kind, text in workload.statements.items()
        }

    def run(self, op: Op) -> Tuple[Any, Optional[float]]:
        kind = op.kind
        session = self.session
        if kind == "checkpoint":
            return self.database.checkpoint(), None
        prepared = self.prepared[kind]
        if kind in ("point", "range", "scan", "drain"):
            return session.execute_prepared(prepared, op.params).rows, None
        if kind == "first":
            rows = []
            for row in session.execute_prepared(prepared, op.params):
                rows.append(row)
                if len(rows) >= FIRST_ROWS:
                    break
            return rows, None
        if kind == "txn":
            with session.transaction():
                return [session.execute_prepared(prepared, row).rows_affected
                        for row in op.params["rows"]], None
        if kind in ("commit", "rollback"):
            try:
                with session.transaction():
                    for row in op.params["rows"]:
                        session.execute_prepared(prepared, row)
                    if kind == "rollback":
                        raise Deliberate()
            except Deliberate:
                pass
            return len(self.database.table("BIG")), None
        return session.execute_prepared(prepared, op.params).rows_affected, None
