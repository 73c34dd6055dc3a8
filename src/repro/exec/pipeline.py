"""Pipelines: a compiled operator tree plus its execution trace.

A :class:`Pipeline` is what :meth:`Plan.compile
<repro.quel.planner.Plan.compile>` hands back: the root :class:`~repro.exec.operators.PhysicalOperator` of a physical
tree, the output schema, and the ordered :class:`TraceStep` list that
maps the logical plan's step lines onto the physical nodes producing
their rows.  It supports two consumption styles:

* :meth:`iter_rows` — *lazy*: pull blocks on demand and yield the raw
  output rows as they arrive, without constructing any intermediate
  :class:`~repro.core.xrelation.XRelation`.  The streamed rows are
  pre-minimisation: with nulls present they may include rows a minimal
  representation would drop (each dominated by a streamed sibling), so
  their union is always information-wise the answer.
* :meth:`run` — drain everything and return the canonical (minimal)
  :class:`XRelation`.  Partial lazy consumption is resumed, never
  repeated: the pipeline owns the single block iterator.

The canonical answer has one construction site: the pull that finds
the tree exhausted builds it (and drops the streamed-row buffer) before
the completion hook runs, so the hook, :meth:`run` and every later
iterator all see the same :class:`XRelation`.

:class:`TraceStep` is the rendering unit of the *logical* step trace:
every ``[est=…, rows=…]`` annotation in ``Plan.steps`` and
``ResultSet.explain()`` comes from its one format path.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.errors import StaleResultError
from ..core.relation import Relation, RelationSchema
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from .operators import PhysicalOperator


class StalenessGuard:
    """An execute-time stamp of a table a pipeline probes *live*.

    An index-nested-loop join is the one streaming operator that reads a
    persistent structure (the inner table's hash index) during the drain
    rather than snapshotting at execute time.  The planner creates one
    guard per such inner table, capturing the table's mutation counter
    (``Relation._version`` — bumped by every row change) and its
    physical-design epoch (``ddl_epoch`` — bumped by index changes and
    ANALYZE); :meth:`Pipeline._pull` re-checks the stamps before every
    fresh block, so an undrained result set whose probes would silently
    see post-statement state raises :class:`StaleResultError` instead.
    """

    __slots__ = ("table", "version", "ddl_epoch")

    def __init__(self, table):
        self.table = table
        self.version = table.relation._version
        self.ddl_epoch = table.ddl_epoch

    @property
    def stale(self) -> bool:
        return (
            self.table.relation._version != self.version
            or self.table.ddl_epoch != self.ddl_epoch
        )

    def check(self) -> None:
        if self.stale:
            raise StaleResultError(
                f"table {self.table.name!r} was mutated (or its indexes "
                f"changed) since this statement executed; its undrained "
                f"result set probes the table's live index and would see "
                f"post-statement rows.  Drain results before mutating "
                f"(ResultSet.rows does), or re-execute the statement."
            )


class TraceStep:
    """One logical plan step and where its measured row count comes from.

    ``text`` is the step description (``"hash equi-join with d on …"``);
    ``est`` the optimizer's estimate (``None`` for steps that have
    none).  The measured row count is read live from
    ``node.actual_rows`` once the step's physical operator has started
    (``None`` for steps with no operator of their own, such as renames).
    ``show_est`` lets the projection step keep its ``[rows=…]``-only
    annotation.
    """

    __slots__ = ("text", "est", "node", "show_est")

    def __init__(
        self,
        text: str,
        est: Optional[float] = None,
        node: Optional[PhysicalOperator] = None,
        show_est: bool = True,
    ):
        self.text = text
        self.est = est
        self.node = node
        self.show_est = show_est

    def rows(self) -> Optional[int]:
        if self.node is not None and self.node.started:
            return self.node.actual_rows
        return None

    def render(self) -> str:
        rows = self.rows()
        parts = []
        if self.est is not None and self.show_est:
            parts.append(f"est={self.est:.0f}")
        if rows is not None:
            parts.append(f"rows={rows}")
        elif parts:
            parts.append("rows=?")
        if not parts:
            return self.text
        return f"{self.text} [{', '.join(parts)}]"


def render_tree(root: PhysicalOperator, analyze: bool = False) -> str:
    """Render an operator tree, one indented line per node.

    Without *analyze* each node shows its label and estimate; with it the
    node also reports what actually happened while the tree drained:
    ``est=`` (the model's estimated rows) followed by ``actual rows=``
    (rows the node really produced) and ``time=`` (wall time spent in
    the node's iterator, children included, like ``EXPLAIN ANALYZE``).
    ``rows=`` therefore always means a *measured* count, here and in the
    step trace alike; the estimate only ever appears as ``est=``.
    """
    lines: List[str] = []

    def visit(node: PhysicalOperator, depth: int) -> None:
        parts: List[str] = []
        if node.est is not None:
            parts.append(f"est={node.est:.0f}")
        if analyze:
            parts.append(f"actual rows={node.actual_rows}")
            parts.append(f"time={node.seconds * 1000.0:.3f}ms")
            if node.started and not node.finished:
                # A node still mid-stream would otherwise pass its
                # partial counts off as finals.
                parts.append("(partial)")
        annotation = f" [{' '.join(parts)}]" if parts else ""
        lines.append(f"{'  ' * depth}{node.label}{annotation}")
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


class Pipeline:
    """A compiled, single-use physical plan ready to stream or drain."""

    def __init__(
        self,
        root: PhysicalOperator,
        schema: RelationSchema,
        trace: Sequence[TraceStep] = (),
        guards: Sequence[StalenessGuard] = (),
        on_complete=None,
    ):
        self.root = root
        self.schema = schema
        self.trace: List[TraceStep] = list(trace)
        #: Staleness stamps for tables this tree probes live (one per
        #: index-nested-loop inner table); checked before every fresh
        #: block pull.  Empty for trees that snapshot all their inputs.
        self.guards: List[StalenessGuard] = list(guards)
        self._blocks: Optional[Iterator[List[XTuple]]] = None
        self._ordered: List[XTuple] = []
        self._exhausted = False
        self._result: Optional[XRelation] = None
        self._error: Optional[BaseException] = None
        #: Called exactly once as ``on_complete(pipeline, error)`` when
        #: the tree exhausts (``error=None``, with :meth:`run` already
        #: answering without a pull) or latches a failure — the session's
        #: hook for finishing the statement's trace.  Assignable after
        #: construction.
        self.on_complete = on_complete
        self._completed = False

    def _notify_complete(self, error: Optional[BaseException]) -> None:
        if self._completed:
            return
        self._completed = True
        callback = self.on_complete
        if callback is not None:
            try:
                callback(self, error)
            except Exception:
                pass  # observability must never break the query path

    @property
    def columns(self) -> Tuple[str, ...]:
        return self.schema.attributes

    @property
    def drained(self) -> bool:
        return self._exhausted

    # -- consumption -----------------------------------------------------------
    def _pull(self) -> bool:
        """Advance by one block; False when the tree is exhausted.

        The pull that finds the tree exhausted builds the canonical
        answer from the streamed rows and drops their buffer — a retained
        result set pins one copy of its rows, not two — before the
        completion hook runs.

        An operator error latches: a generator that raised is closed and
        would report plain ``StopIteration`` on the next pull, silently
        passing off the partial prefix as the canonical answer — so the
        failure is remembered and re-raised on every later consumption.
        """
        if self._error is not None:
            raise self._error
        if self._exhausted:
            return False
        for guard in self.guards:
            try:
                guard.check()
            except BaseException as error:
                self._error = error
                self._notify_complete(error)
                raise
        if self._blocks is None:
            self._blocks = self.root.blocks()
        try:
            block = next(self._blocks)
        except StopIteration:
            relation = Relation(self.schema, validate=False)
            relation._rows = set(self._ordered)
            self._result = XRelation(relation)
            self._ordered = []
            self._exhausted = True
            self._notify_complete(None)
            return False
        except BaseException as error:
            self._error = error
            self._notify_complete(error)
            raise
        self._ordered.extend(block)
        return True

    def iter_rows(self) -> Iterator[XTuple]:
        """Yield output rows lazily, pulling blocks only as needed.

        Distinctness is the root operator's contract (the planner always
        tops its trees with a de-duplicating :class:`Project`); rows
        already pulled — by an earlier iterator or a partial drain — are
        replayed from the accumulated prefix, so concurrent iterators see
        the same sequence.  Once the tree is exhausted the streamed-row
        buffer is released: iterators already in flight complete over the
        full streamed sequence (they hold the buffer), while fresh ones
        replay the canonical rows.
        """
        if self._result is not None:
            yield from self._result.rows()
            return
        ordered = self._ordered  # stable when the drain releases the buffer
        i = 0
        while True:
            while i < len(ordered):
                yield ordered[i]
                i += 1
            if not self._pull():
                break

    def invalidate(self, error: BaseException) -> None:
        """Latch *error* onto an undrained pipeline so every later pull
        raises it (the session-close path: an open lazy result set whose
        session went away fails loudly instead of streaming on).  A
        pipeline that already finished — drained or already latched — is
        left untouched: its canonical answer stays readable.
        """
        if self._exhausted or self._error is not None:
            return
        self._error = error
        self._notify_complete(error)

    def run(self) -> XRelation:
        """Drain the tree and return the canonical minimal answer (the
        leaf operators release their snapshots as they exhaust)."""
        while self._pull():
            pass
        return self._result

    # -- provenance ------------------------------------------------------------
    def step_lines(self) -> List[str]:
        """The logical step trace, annotated with live actual row counts."""
        return [step.render() for step in self.trace]

    def explain(self, analyze: bool = False) -> str:
        """The physical tree; ``analyze=True`` drains it first and adds
        per-node actual rows and wall time."""
        if analyze:
            self.run()
        return render_tree(self.root, analyze=analyze)

    def __repr__(self) -> str:
        if self._result is not None:
            state, rows = "drained", len(self._result)
        else:
            state, rows = "pending", len(self._ordered)
        return f"Pipeline({self.root.label!r}, {state}, rows={rows})"
