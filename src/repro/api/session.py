"""Sessions: the single client surface of the reproduction.

``repro.connect(database)`` returns a :class:`Session` that speaks the
full QUEL statement set — RETRIEVE (with INTO materialisation), APPEND
TO, DELETE, REPLACE, all with ``$name`` parameters — through one method::

    session = repro.connect(db)
    session.execute('append to EMP (E# = $e, NAME = $n)', {"e": 1, "n": "SMITH"})
    rows = session.execute('range of e is EMP retrieve (e.NAME)')

Every statement runs lexer → parser → analyzer → cost-based plan →
execution; retrieves compile to a streaming :mod:`repro.exec` operator
tree the returned result set drains lazily (iterate for first rows
without materialising; ``.rows`` for the canonical sorted answer;
``explain(analyze=True)`` for the per-operator est/actual/time audit),
and mutations route through the storage layer's atomic bulk paths via
the DML sinks.  :meth:`Session.prepare` returns a :class:`PreparedStatement`
whose compiled plan lives in a session LRU keyed by the statement's
exact text (a repeat is one dictionary probe), shared by every text with
the same *normalized AST*, and stamped with the database's
catalog/index/stats epoch — re-executing skips lexing, parsing, analysis
and planning entirely, and any DDL, index change or ANALYZE
transparently re-plans on the next execution.
:meth:`Session.transaction` gives all-or-nothing multi-statement groups,
undone through the catalog's journal of inverse deltas and DDL (O(group)
work, never a copy of the database); outside a transaction each
statement autocommits.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict, deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.errors import SessionClosedError, StaleResultError, StorageError
from ..limits import check_statement_size
from ..obs import ERROR_RATIO_BUCKETS, QueryTrace, registry_for, slow_query_logger
from ..quel.ast_nodes import (
    AppendStatement,
    DeleteStatement,
    ReplaceStatement,
    RetrieveStatement,
    Statement,
    normalize_statement,
)
from ..quel.parser import parse_statement
from .compiled import CompiledStatement, compile_statement
from .result_cache import CACHED_STEP, DEFAULT_RESULT_CACHE_SIZE, ResultCache
from .results import ResultSet

#: How many recent :class:`~repro.obs.QueryTrace` spans a session retains
#: (see :meth:`Session.recent_traces`).
TRACE_CAPACITY = 64


#: The metric label of each statement type the parser produces; a
#: session binds its statement counters and latency histograms for these
#: kinds up front.
STATEMENT_KINDS = {
    RetrieveStatement: "retrieve",
    AppendStatement: "append",
    DeleteStatement: "delete",
    ReplaceStatement: "replace",
}


class PreparedStatement:
    """A statement compiled once, executable many times.

    The compiled form — the analysis and one plan of the ``$name``
    template — is stamped with the database epoch at compile time and
    reused by every execution, which only binds the values and builds
    the operator tree.  :meth:`execute` re-compiles transparently when
    the epoch moved (any DDL, index or ANALYZE change since), so a
    cached plan can never silently use a dropped index or miss a new
    one.  Ordinary DML does not move the epoch and so does not re-plan:
    like a generic plan, the cached one keeps the join order and access
    paths its estimates chose until the next ANALYZE.
    """

    def __init__(
        self,
        session: "Session",
        text: str,
        statement: Statement,
        statement_key: Any = None,
    ):
        self.session = session
        self.text = text
        self.statement = statement
        #: The normalized-AST cache key (shared with the plan cache and
        #: the semantic result cache, so equivalent texts share entries).
        self.statement_key = (
            statement_key if statement_key is not None
            else normalize_statement(statement)
        )
        #: The statement's metric label ("retrieve", "append", …).
        self.kind = STATEMENT_KINDS[type(statement)]
        self._compiled: Optional[CompiledStatement] = None
        self._epoch: Optional[int] = None
        #: How many times this statement was (re)compiled — observable
        #: evidence of plan-cache hits and epoch invalidations.
        self.compile_count = 0

    def _ensure_compiled(self) -> CompiledStatement:
        self.session._check_open()
        database = self.session.database
        epoch = getattr(database, "epoch", None)
        if self._compiled is None or epoch != self._epoch:
            if self._compiled is not None:
                # A cached plan invalidated by DDL / index / ANALYZE.
                self.session._plan_stale.inc()
            self._compiled = compile_statement(database, self.statement)
            self._epoch = epoch
            self.compile_count += 1
        return self._compiled

    @property
    def parameters(self) -> Tuple[str, ...]:
        """The ``$name`` placeholders the statement expects."""
        return self._ensure_compiled().parameters

    def execute(self, params: Optional[Mapping[str, Any]] = None) -> ResultSet:
        """Run the statement through :meth:`Session.execute_prepared`, so
        it is traced, counted and served from the result cache exactly
        as a text or HTTP execution is."""
        return self.session.execute_prepared(self, params)

    def explain(self, params: Optional[Mapping[str, Any]] = None) -> str:
        """The currently chosen strategy (re-planned if the epoch moved)."""
        return self._ensure_compiled().describe(params)

    def __repr__(self) -> str:
        return f"PreparedStatement({self.text.strip()!r})"


class Transaction:
    """An all-or-nothing group of statements (a context manager).

    Entering opens a group on the catalog's undo journal and notes its
    length: from then on every change journals its exact inverse (a row
    delta its swapped delta, a DDL the opposite DDL, a wholesale load or
    truncate the prior rows and statistics; ANALYZE journals nothing).
    Leaving normally commits — nothing to do; an enclosing group keeps
    the entries.  Leaving through an exception, or calling
    :meth:`rollback`, applies the entries above the mark newest first,
    so undo costs what the group did, not what the database holds (a
    wholesale load or truncate in the group is undone at O(table), as
    it was done).  A table that existed at
    :meth:`begin` and was *dropped* inside the group has no inverse and
    makes the rollback fail loudly, before undoing anything, rather than
    silently diverge; one created and dropped inside the group just
    stays gone.
    """

    def __init__(self, session: "Session"):
        self.session = session
        #: The catalog's undo group opened by :meth:`begin`.
        self._group = None
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def begin(self) -> "Transaction":
        """Start the group explicitly (what ``__enter__`` does) — for
        callers whose begin and commit/rollback live in different scopes,
        like the server mapping them onto separate HTTP requests."""
        if self._active:
            raise StorageError("transaction already entered")
        self.session._check_open()
        self._group = self.session.database.catalog.begin_group()
        self._active = True
        self.session._transactions.append(self)
        self._mark("begin")
        return self

    def __enter__(self) -> "Transaction":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._active:
            try:
                if exc_type is not None:
                    self._rollback()
                else:
                    self._mark("commit")
            finally:
                self._close()
        return False  # never swallow the exception

    def commit(self) -> None:
        """Keep the group's effects and end the transaction."""
        if not self._active:
            raise StorageError("transaction is not active")
        try:
            self._mark("commit")
        finally:
            self._close()

    def rollback(self) -> None:
        """Undo the group's effects and end the transaction."""
        if not self._active:
            raise StorageError("transaction is not active")
        try:
            self._rollback()
        finally:
            self._close()

    def _rollback(self) -> None:
        """Undo the group through the journal, then *always* log the
        abort marker.

        The marker must land even when the undo itself raises (a table
        dropped inside the group): it follows whatever compensating
        records the undo did manage to log, closing the group so the
        log's transaction depth returns to zero — otherwise every later
        autocommitted statement would be buffered inside the permanently
        open group (and discarded at recovery) and every checkpoint would
        silently skip, a total durability loss after one failed rollback.
        """
        try:
            self.session.database.catalog.undo_group(self._group)
        finally:
            self._mark("abort")

    def _close(self) -> None:
        self._active = False
        self.session.database.catalog.end_group(self._group)
        if self in self.session._transactions:
            self.session._transactions.remove(self)

    def _mark(self, op: str) -> None:
        """Write a transaction marker to the write-ahead log, if one is
        attached.  Replay discards a group whose close marker never made
        it to disk; an ``abort`` marker lands *after* the rollback's
        compensating records, so an aborted group replays to the same
        (pre-group) state it left in memory.  Under ``sync="commit"``
        the close markers are the fsync points — the group's records ride
        one flush."""
        self.session._txn_metric.labels(
            op="rollback" if op == "abort" else op
        ).inc()
        wal = getattr(self.session.database, "wal", None)
        if wal is not None:
            wal.append({"op": op})


class Session:
    """A connection-like object over a :class:`repro.storage.Database`.

    Parameters
    ----------
    database:
        The database to speak to (``repro.storage.Database``).
    cache_size:
        Capacity of the prepared-statement LRU, in statement texts (0
        disables caching).
    result_cache_size:
        Capacity of the semantic result cache (materialized answers keyed
        by normalized statement + bound parameters + table versions; see
        :mod:`repro.api.result_cache`).  ``0`` disables result caching —
        every retrieve then re-executes.

    Every :meth:`execute` call opens a query trace — phase wall times
    (parse → analyze → plan → execute), statement kind, plan shape and
    rows in/out — and reports into the database's metrics registry
    (``repro.obs``): statements by kind and outcome, latency histograms,
    plan-cache hit/miss/stale-epoch counters, transaction markers, and —
    once a lazy pipeline drains — the per-operator actuals and the
    planner's estimate-vs-actual error.
    Setting :attr:`slow_query_threshold` (seconds) additionally routes
    statements slower than the threshold to the slow-query log
    (``repro.obs.slow_query_logger``) and the
    ``repro_slow_queries_total`` counter.
    """

    def __init__(
        self,
        database,
        cache_size: int = 128,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
    ):
        if not hasattr(database, "catalog"):
            raise TypeError(
                f"connect() needs a repro.storage.Database, got {database!r}"
            )
        self.database = database
        self.cache_size = cache_size
        #: The semantic result cache (None when disabled).
        self.result_cache: Optional[ResultCache] = (
            ResultCache(database, result_cache_size)
            if result_cache_size > 0 else None
        )
        #: The prepared-statement LRU, keyed by exact statement text.
        self._statements: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        #: The same statements by normalized AST, so a text variant finds
        #: the statement another text compiled.  Weak: an entry lives as
        #: long as some text in the LRU (or a caller's handle) holds it.
        self._by_key: "weakref.WeakValueDictionary[Any, PreparedStatement]" = (
            weakref.WeakValueDictionary()
        )
        self._transactions: List[Transaction] = []
        self._closed = False
        #: Undrained lazy pipelines this session handed out — close()
        #: invalidates them so a released connection cannot keep
        #: streaming.  Weak: a garbage-collected result set needs no
        #: invalidation.
        self._pipelines: "weakref.WeakSet" = weakref.WeakSet()
        #: Context stamped onto every new trace's ``tags`` (the server
        #: sets client/request ids here before dispatching a statement).
        self.trace_tags: Dict[str, Any] = {}
        #: Statements slower than this many wall seconds go to the
        #: slow-query log (None disables it).
        self.slow_query_threshold: Optional[float] = None
        self._traces: "deque[QueryTrace]" = deque(maxlen=TRACE_CAPACITY)
        registry = registry_for(database)
        #: The metrics registry this session reports into (resolved once:
        #: the database's own registry, or the process-global default).
        self.metrics = registry
        self._statements_metric = registry.counter(
            "repro_statements_total",
            "Statements executed through Session.execute, by kind and outcome.",
            ("kind", "outcome"),
        )
        self._latency_metric = registry.histogram(
            "repro_statement_seconds",
            "Wall time of successful statements (result-set construction; "
            "a lazy retrieve's drain time lands in the exec series).",
            ("kind",),
        )
        self._plan_cache_metric = registry.counter(
            "repro_plan_cache_total",
            "Prepared-statement cache events: hit, miss, stale_epoch "
            "(cached plan invalidated by DDL / index / ANALYZE).",
            ("event",),
        )
        self._txn_metric = registry.counter(
            "repro_transactions_total",
            "Transaction markers: begin, commit, rollback.",
            ("op",),
        )
        self._slow_metric = registry.counter(
            "repro_slow_queries_total",
            "Statements that crossed Session.slow_query_threshold.",
        )
        self._exec_rows_metric = registry.counter(
            "repro_exec_rows_total",
            "Rows emitted by completed operator trees (root output).",
        )
        self._exec_blocks_metric = registry.counter(
            "repro_exec_blocks_total",
            "Blocks pulled across all operators of completed trees.",
        )
        self._operator_rows_metric = registry.counter(
            "repro_exec_operator_rows_total",
            "Rows produced per physical operator type.",
            ("operator",),
        )
        self._operator_seconds_metric = registry.counter(
            "repro_exec_operator_seconds_total",
            "Wall seconds spent per physical operator type (children included).",
            ("operator",),
        )
        self._stale_metric = registry.counter(
            "repro_exec_stale_results_total",
            "Drains aborted by StaleResultError (undrained result set "
            "whose live-probed table mutated).",
        )
        self._est_error_metric = registry.histogram(
            "repro_plan_estimate_error_ratio",
            "Actual/estimated row ratio per estimated plan step "
            "(1.0 = perfect estimate), recorded when the plan drains.",
            buckets=ERROR_RATIO_BUCKETS,
        )
        # The per-statement children, bound once: kinds × outcomes is a
        # small closed set, and ``labels()`` validates and builds a key
        # on every call.
        self._plan_hit = self._plan_cache_metric.labels(event="hit")
        self._plan_miss = self._plan_cache_metric.labels(event="miss")
        self._plan_stale = self._plan_cache_metric.labels(event="stale_epoch")
        self._statement_children: Dict[Tuple[str, str], Any] = {
            (kind, outcome): self._statements_metric.labels(
                kind=kind, outcome=outcome
            )
            for kind in STATEMENT_KINDS.values()
            for outcome in ("ok", "error")
        }
        self._latency_children: Dict[str, Any] = {
            kind: self._latency_metric.labels(kind=kind)
            for kind in STATEMENT_KINDS.values()
        }

    # -- lifecycle ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                "this session is closed; its prepared statements and "
                "undrained result sets were invalidated by Session.close()"
            )

    def close(self) -> None:
        """Release the session: roll back any open transaction, invalidate
        every prepared handle and undrained lazy result set, and make all
        later statement entry points raise :class:`SessionClosedError`.

        Idempotent — a second close is a no-op.  The underlying database
        is shared (other sessions may still speak to it) and is *not*
        closed here.
        """
        if self._closed:
            return
        self._closed = True
        # Open groups roll back, innermost first: a connection that
        # vanished mid-group must not leave its half-applied statements
        # behind.
        for transaction in reversed(list(self._transactions)):
            if transaction.active:
                try:
                    transaction.rollback()
                except Exception:
                    pass  # close() must always complete
        error = SessionClosedError(
            "the session owning this result set was closed before the "
            "result was drained; re-execute the statement on a live session"
        )
        for pipeline in list(self._pipelines):
            pipeline.invalidate(error)
        self._pipelines.clear()
        self._statements.clear()
        self._by_key.clear()

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- statements -----------------------------------------------------------
    def _new_trace(self, text: str) -> QueryTrace:
        trace = QueryTrace(text)
        if self.trace_tags:
            trace.tags.update(self.trace_tags)
        return trace

    def prepare(self, text: str) -> PreparedStatement:
        """Return the prepared statement for *text*, parsing it at most once.

        The cache key is the exact text: a repeat costs one dictionary
        probe, with no lexing, parsing or normalizing.  A new text is
        parsed and normalized, and the normalized AST is the fallback
        key: texts differing only in whitespace, comments or source
        positions get the statement another of them compiled, so they
        share one plan, one ``statement_key`` and one result-cache
        entry.  ``$name`` placeholders normalize by name, so one template
        serves every binding.  The LRU holds at most ``cache_size``
        texts.

        A text over :data:`repro.limits.MAX_STATEMENT_BYTES` raises
        :class:`~repro.core.errors.StatementTooComplex` before the cache
        is probed.
        """
        self._check_open()
        check_statement_size(text)
        statements = self._statements
        prepared = statements.get(text)
        if prepared is not None:
            self._plan_hit.inc()
            statements.move_to_end(text)
            return prepared
        statement = parse_statement(text)
        key = normalize_statement(statement)
        prepared = self._by_key.get(key)
        if prepared is not None:
            self._plan_hit.inc()
        else:
            self._plan_miss.inc()
            prepared = PreparedStatement(self, text, statement, statement_key=key)
        if self.cache_size > 0:
            self._by_key[key] = prepared
            statements[text] = prepared
            while len(statements) > self.cache_size:
                statements.popitem(last=False)
        return prepared

    def execute(
        self,
        text: str,
        params: Optional[Mapping[str, Any]] = None,
    ) -> ResultSet:
        """Run any QUEL statement; see the module docstring for the surface."""
        self._check_open()
        trace = self._new_trace(text)
        started = time.perf_counter()
        try:
            prepared = self.prepare(text)
        except Exception as error:
            trace.phase("parse", time.perf_counter() - started)
            self._record_statement(trace, started, error=error)
            raise
        trace.phase("parse", time.perf_counter() - started)
        return self._traced_execute(prepared, trace, started, params)

    def execute_prepared(
        self,
        prepared: PreparedStatement,
        params: Optional[Mapping[str, Any]] = None,
    ) -> ResultSet:
        """Run an already-prepared statement with full session tracing —
        the same trace/metric surface as :meth:`execute`, minus the parse
        phase the handle already paid.  (What the server's
        ``/prepared/{id}/execute`` endpoint dispatches through, so a
        prepared round-trip still lands in ``recent_traces`` with its
        request tags.)"""
        self._check_open()
        if prepared.session is not self:
            raise StorageError(
                "prepared statement belongs to a different session"
            )
        trace = self._new_trace(prepared.text)
        started = time.perf_counter()
        return self._traced_execute(prepared, trace, started, params)

    def executemany(
        self,
        text: str,
        param_sequence: Iterable[Mapping[str, Any]],
    ) -> int:
        """Execute one prepared statement per parameter set; the total
        ``rows_affected``.  The statement compiles once (each execution
        still traces and counts individually)."""
        prepared = self.prepare(text)
        total = 0
        for params in param_sequence:
            trace = self._new_trace(text)
            started = time.perf_counter()
            result = self._traced_execute(prepared, trace, started, params)
            total += result.rows_affected
        return total

    # -- tracing / metrics -----------------------------------------------------
    def _traced_execute(
        self,
        prepared: PreparedStatement,
        trace: QueryTrace,
        started: float,
        params: Optional[Mapping[str, Any]],
    ) -> ResultSet:
        """Run *prepared* inside *trace*: time the analyze/plan/execute
        phases, answer from the result cache when it holds the answer,
        and record the outcome."""
        trace.kind = prepared.kind
        cache_key = None
        try:
            t_analyze = time.perf_counter()
            compiled = prepared._ensure_compiled()
            t_execute = time.perf_counter()
            trace.phase("analyze", t_execute - t_analyze)
            cache = self.result_cache
            tables = compiled.referenced_tables() if cache is not None else None
            if tables is not None:
                # The key is computed *before* execution: versions are
                # monotone, so a hit under this key is provably an answer
                # for the tables' current states (see result_cache docs).
                cache_key = cache.key_for(
                    prepared.statement_key,
                    params or {},
                    compiled.parameters,
                    tables,
                )
            hit = cache.lookup(cache_key) if cache_key is not None else None
            if hit is not None:
                answer, steps = hit
                result = ResultSet(answer, steps=(CACHED_STEP,) + steps)
                trace.tags["result_cache"] = "hit"
                trace.phase("execute", time.perf_counter() - t_execute)
            else:
                result = compiled.execute(params or {})
                # A lazy retrieve's execute call only binds and compiles
                # its plan; its execution is the drain, timed by the tree.
                phase = "plan" if result.pipeline is not None else "execute"
                trace.phase(phase, time.perf_counter() - t_execute)
        except Exception as error:
            self._record_statement(trace, started, error=error)
            raise
        self._record_statement(trace, started, result=result, cache_key=cache_key)
        return result

    def _record_statement(
        self,
        trace: QueryTrace,
        started: float,
        error: Optional[BaseException] = None,
        result: Optional[ResultSet] = None,
        cache_key: Any = None,
    ) -> None:
        """Count a statement's outcome and keep its trace, then finish
        the trace — or, for a lazy retrieve, arm its pipeline to finish
        it when the tree drains (or latches a failure)."""
        trace.seconds = time.perf_counter() - started
        outcome = "ok" if error is None else "error"
        child = self._statement_children.get((trace.kind, outcome))
        if child is None:  # the statement did not parse: kind "unknown"
            child = self._statements_metric.labels(kind=trace.kind, outcome=outcome)
        child.inc()
        self._traces.append(trace)
        if error is not None:
            self._finish_trace(trace, error=error)
            return
        self._latency_children[trace.kind].observe(trace.seconds)
        trace.rows_affected = result.rows_affected
        pipeline = result.pipeline
        if pipeline is None:
            self._finish_trace(trace, result=result)
            return
        self._pipelines.add(pipeline)
        pipeline.on_complete = lambda p, error: self._finish_trace(
            trace, error=error, pipeline=p, cache_key=cache_key
        )
        self._check_slow(trace)

    def _finish_trace(
        self,
        trace: QueryTrace,
        error: Optional[BaseException] = None,
        result: Optional[ResultSet] = None,
        pipeline=None,
        cache_key: Any = None,
    ) -> None:
        """Finish *trace* — the one place a statement's trace completes.

        Four outcomes arrive here: a failure before any result set
        exists (*error*); a result-cache hit and an eager DML or INTO
        statement, finished at execute time (*result*); and a lazy
        retrieve, finished by its *pipeline* when the tree exhausts or
        latches *error*.  On a clean drain this is also where the answer
        enters the result cache.
        """
        if error is not None:
            trace.outcome = "error"
            trace.error = f"{type(error).__name__}: {error}"
            if isinstance(error, StaleResultError):
                self._stale_metric.inc()
        if pipeline is not None:
            root = pipeline.root
            trace.plan = pipeline.step_lines()
            if root.started:
                # The root's wall time covers the whole drain (children
                # included) — fold it into the execute phase and the total.
                trace.phase("execute", root.seconds)
                trace.seconds += root.seconds
                trace.rows_out = root.actual_rows
                self._record_tree(trace, root)
                for step in pipeline.trace:
                    node = step.node
                    if step.est is not None and node is not None and node.started:
                        self._est_error_metric.observe(
                            (node.actual_rows + 1.0) / (step.est + 1.0)
                        )
            if error is None and cache_key is not None:
                self.result_cache.store(cache_key, pipeline.run(), trace.plan)
        elif result is not None:
            trace.plan = list(result.steps)
            if result.tree is not None:
                self._record_tree(trace, result.tree)
            answer = result.to_relation()
            if answer is not None:
                trace.rows_out = len(answer)
        trace.finished = True
        self._check_slow(trace)

    def _record_tree(self, trace: QueryTrace, root) -> None:
        """Walk a finished operator tree once: its per-operator actuals
        become ``trace.operators`` (depth-first, root first) and feed the
        exec counters."""
        operators: List[Dict[str, Any]] = []
        blocks = 0
        stack = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            operator = type(node).__name__
            operators.append({
                "operator": operator,
                "label": node.label,
                "depth": depth,
                "est": node.est,
                "rows": node.actual_rows,
                "blocks": node.actual_blocks,
                "seconds": node.seconds,
            })
            self._operator_rows_metric.labels(operator=operator).inc(node.actual_rows)
            self._operator_seconds_metric.labels(operator=operator).inc(node.seconds)
            blocks += node.actual_blocks
            stack.extend((child, depth + 1) for child in reversed(node.children))
        trace.operators = operators
        self._exec_rows_metric.inc(root.actual_rows)
        self._exec_blocks_metric.inc(blocks)

    def _check_slow(self, trace: QueryTrace) -> None:
        threshold = self.slow_query_threshold
        if threshold is None or trace.slow or trace.seconds < threshold:
            return
        trace.slow = True
        self._slow_metric.inc()
        slow_query_logger.warning(
            "slow query (%.3fs >= %.3fs threshold, kind=%s): %s",
            trace.seconds,
            threshold,
            trace.kind,
            trace.text.strip(),
        )

    def recent_traces(self, limit: Optional[int] = None) -> List[QueryTrace]:
        """The most recent query traces, oldest first (bounded by the
        last :data:`TRACE_CAPACITY` statements).  Traces of undrained lazy
        retrieves have ``finished=False`` until their pipeline completes;
        the objects update in place when it does."""
        traces = list(self._traces)
        if limit is not None:
            traces = traces[-int(limit):]
        return traces

    def explain(
        self, text: str, params: Optional[Mapping[str, Any]] = None
    ) -> str:
        """The strategy the session would use for *text*, without running it
        (retrieves are evaluated to annotate the trace; mutations are not
        applied)."""
        return self.prepare(text).explain(params)

    # -- transactions ---------------------------------------------------------
    def transaction(self) -> Transaction:
        """A new all-or-nothing statement group (use as a context manager,
        or drive :meth:`Transaction.begin` / ``commit`` / ``rollback``
        explicitly)."""
        self._check_open()
        return Transaction(self)

    @property
    def in_transaction(self) -> bool:
        return any(t.active for t in self._transactions)

    # -- introspection --------------------------------------------------------
    @property
    def cached_statements(self) -> int:
        """How many prepared statements the LRU currently holds."""
        return len(self._statements)

    def __repr__(self) -> str:
        return (
            f"Session({self.database!r}, cached_statements="
            f"{self.cached_statements}, in_transaction={self.in_transaction})"
        )


def connect(
    database=None,
    name: str = "db",
    cache_size: int = 128,
    result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
) -> Session:
    """Open a :class:`Session` — the single client entry point.

    ``repro.connect(db)`` wraps an existing
    :class:`~repro.storage.database.Database`; ``repro.connect()``
    creates a fresh in-memory one (reachable as ``session.database``).
    ``result_cache_size=0`` disables the semantic result cache.
    """
    if database is None:
        from ..storage.database import Database
        database = Database(name)
    return Session(
        database,
        cache_size=cache_size,
        result_cache_size=result_cache_size,
    )
