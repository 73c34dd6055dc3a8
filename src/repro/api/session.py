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
*normalized AST* and stamped with the database's catalog/index/stats
epoch — re-executing skips lexing, parsing, analysis and planning
entirely, and any DDL, index change or ANALYZE transparently re-plans on
the next execution.  :meth:`Session.transaction` gives all-or-nothing
multi-statement groups, undone through the catalog's journal of inverse
deltas and DDL (O(group) work, never a copy of the database); outside a
transaction each statement autocommits.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict, deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.errors import SessionClosedError, StaleResultError, StorageError
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


def _statement_kind(statement: Statement) -> str:
    """The metric label for a parsed statement ("retrieve", "append", …)."""
    if isinstance(statement, RetrieveStatement):
        return "retrieve"
    if isinstance(statement, AppendStatement):
        return "append"
    if isinstance(statement, DeleteStatement):
        return "delete"
    if isinstance(statement, ReplaceStatement):
        return "replace"
    return type(statement).__name__.replace("Statement", "").lower() or "unknown"


def _collect_operators(root) -> List[Dict[str, Any]]:
    """Flatten a physical tree into per-operator actuals (depth-first,
    root first) — what a trace's ``operators`` list holds."""
    out: List[Dict[str, Any]] = []

    def visit(node, depth: int) -> None:
        out.append({
            "operator": type(node).__name__,
            "label": node.label,
            "depth": depth,
            "est": node.est,
            "rows": node.actual_rows,
            "blocks": node.actual_blocks,
            "seconds": node.seconds,
        })
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return out


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
                self.session._plan_cache_metric.labels(event="stale_epoch").inc()
            self._compiled = compile_statement(database, self.statement)
            self._epoch = epoch
            self.compile_count += 1
        return self._compiled

    @property
    def parameters(self) -> Tuple[str, ...]:
        """The ``$name`` placeholders the statement expects."""
        return self._ensure_compiled().parameters

    def execute(self, params: Optional[Mapping[str, Any]] = None) -> ResultSet:
        """Run the statement."""
        self.session._check_open()
        result = self._ensure_compiled().execute(params or {})
        self.session._track_result(result)
        return result

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
        Capacity of the prepared-statement LRU (0 disables caching).
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
        self._statements: "OrderedDict[Any, PreparedStatement]" = OrderedDict()
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

    def _track_result(self, result: ResultSet) -> None:
        """Remember *result*'s lazy pipeline so close() can invalidate it."""
        pipeline = result.pipeline
        if pipeline is not None:
            self._pipelines.add(pipeline)

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
        """Parse *text* once and return its (cached) prepared statement.

        The cache key is the statement's normalized AST, so texts
        differing only in whitespace, comments or source positions share
        one compiled plan; ``$name`` placeholders normalize by name, so
        one template serves every binding.
        """
        self._check_open()
        statement = parse_statement(text)
        key = normalize_statement(statement)
        cached = self._statements.get(key)
        if cached is not None:
            self._plan_cache_metric.labels(event="hit").inc()
            self._statements.move_to_end(key)
            return cached
        self._plan_cache_metric.labels(event="miss").inc()
        prepared = PreparedStatement(self, text, statement, statement_key=key)
        if self.cache_size > 0:
            self._statements[key] = prepared
            while len(self._statements) > self.cache_size:
                self._statements.popitem(last=False)
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
            self._fail_trace(trace, error, started)
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
        phases, count the statement, and — for a lazy retrieve — arm the
        pipeline-completion hook that folds the drain-side actuals in."""
        kind = _statement_kind(prepared.statement)
        trace.kind = kind
        cache_key = None
        try:
            t_analyze = time.perf_counter()
            compiled = prepared._ensure_compiled()
            t_execute = time.perf_counter()
            trace.phase("analyze", t_execute - t_analyze)
            cache = self.result_cache
            if cache is not None:
                # The key is computed *before* execution: versions are
                # monotone, so a hit under this key is provably an answer
                # for the tables' current states (see result_cache docs).
                tables = compiled.referenced_tables()
                if tables is not None:
                    cache_key = cache.key_for(
                        prepared.statement_key,
                        params or {},
                        compiled.parameters,
                        tables,
                    )
                if cache_key is not None:
                    hit = cache.lookup(cache_key)
                    if hit is not None:
                        relation, steps, sorted_rows = hit
                        result = ResultSet(
                            relation, steps=(CACHED_STEP,) + steps
                        )
                        if sorted_rows is None:
                            # First hit sorts once; the entry memoizes it.
                            sorted_rows = relation.representation.sorted_rows()
                            hit[2] = sorted_rows
                        result._sorted_rows = list(sorted_rows)
                        t_done = time.perf_counter()
                        trace.phase("execute", t_done - t_execute)
                        trace.seconds = t_done - started
                        trace.rows_out = len(relation)
                        trace.plan = list(result.steps)
                        trace.tags["result_cache"] = "hit"
                        trace.finished = True
                        self._statements_metric.labels(
                            kind=kind, outcome="ok"
                        ).inc()
                        self._latency_metric.labels(kind=kind).observe(
                            trace.seconds
                        )
                        self._traces.append(trace)
                        self._check_slow(trace)
                        return result
            result = compiled.execute(params or {})
            t_done = time.perf_counter()
        except Exception as error:
            self._fail_trace(trace, error, started, kind)
            raise
        execute_seconds = t_done - t_execute
        plan_seconds = float(getattr(compiled, "last_plan_seconds", 0.0) or 0.0)
        if 0.0 < plan_seconds <= execute_seconds:
            trace.phase("plan", plan_seconds)
            execute_seconds -= plan_seconds
        trace.phase("execute", execute_seconds)
        trace.seconds = t_done - started
        trace.rows_affected = result.rows_affected
        self._statements_metric.labels(kind=kind, outcome="ok").inc()
        self._latency_metric.labels(kind=kind).observe(trace.seconds)
        self._track_result(result)
        pipeline = result.pipeline
        if pipeline is not None:
            # Lazy retrieve: the trace finishes when the tree drains (and
            # the drained answer, if cacheable, lands in the result cache).
            pipeline.on_complete = (
                lambda p, error, _trace=trace, _key=cache_key: (
                    self._pipeline_completed(_trace, p, error, _key)
                )
            )
        else:
            trace.plan = list(result.steps)
            tree = getattr(result, "_tree", None)
            if tree is not None:
                trace.operators = _collect_operators(tree)
                self._record_tree_metrics(tree)
            relation = getattr(result, "_relation", None)
            if relation is not None:
                trace.rows_out = len(relation)
            trace.finished = True
        self._traces.append(trace)
        self._check_slow(trace)
        return result

    def _fail_trace(
        self,
        trace: QueryTrace,
        error: BaseException,
        started: float,
        kind: str = "unknown",
    ) -> None:
        trace.kind = kind
        trace.outcome = "error"
        trace.error = f"{type(error).__name__}: {error}"
        trace.seconds = time.perf_counter() - started
        trace.finished = True
        self._statements_metric.labels(kind=kind, outcome="error").inc()
        self._traces.append(trace)
        self._check_slow(trace)

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

    def _record_tree_metrics(self, root) -> None:
        """Fold one completed physical tree into the exec counters."""
        total_blocks = 0
        stack = [root]
        while stack:
            node = stack.pop()
            operator = type(node).__name__
            self._operator_rows_metric.labels(operator=operator).inc(
                node.actual_rows
            )
            self._operator_seconds_metric.labels(operator=operator).inc(
                node.seconds
            )
            total_blocks += node.actual_blocks
            stack.extend(node.children)
        self._exec_rows_metric.inc(root.actual_rows)
        self._exec_blocks_metric.inc(total_blocks)

    def _pipeline_completed(
        self, trace: QueryTrace, pipeline, error, cache_key=None
    ) -> None:
        """The drain-side half of a lazy retrieve's trace (called once by
        the pipeline when it exhausts or latches a failure).  On a clean
        drain this is also where the answer enters the result cache."""
        if error is not None:
            trace.outcome = "error"
            trace.error = f"{type(error).__name__}: {error}"
            if isinstance(error, StaleResultError):
                self._stale_metric.inc()
        root = pipeline.root
        if root is not None and root.started:
            # The root's wall time covers the whole drain (children
            # included) — fold it into the execute phase and the total.
            trace.phase("execute", root.seconds)
            trace.seconds += root.seconds
            trace.rows_out = root.actual_rows
            trace.operators = _collect_operators(root)
            self._record_tree_metrics(root)
            for step in pipeline.trace:
                node = step.node
                if step.est is not None and node is not None and node.started:
                    self._est_error_metric.observe(
                        (node.actual_rows + 1.0) / (step.est + 1.0)
                    )
        steps = pipeline.step_lines()
        trace.plan = steps
        if (
            error is None
            and cache_key is not None
            and self.result_cache is not None
        ):
            relation = pipeline.completed_relation()
            if relation is not None:
                self.result_cache.store(cache_key, relation, steps)
        trace.finished = True
        self._check_slow(trace)

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
