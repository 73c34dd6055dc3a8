"""Result sets: the uniform answer shape of the Session API.

Every :meth:`repro.api.Session.execute` call — RETRIEVE, RETRIEVE INTO,
APPEND, DELETE, REPLACE — returns a :class:`ResultSet`.  Since the
streaming-executor PR a retrieve's result set is *lazy*: it holds the
compiled :class:`~repro.exec.Pipeline` and drains it on demand —

* iterating the result set streams rows as the operator tree produces
  them, without materialising any intermediate
  :class:`~repro.core.xrelation.XRelation`.  Streamed rows are distinct
  but pre-minimisation: with nulls in play they may include rows the
  canonical answer's minimal form drops (each dominated by another
  streamed row), so their union is always information-wise the answer.
  Table scans and index-selection buckets are snapshotted when the
  statement executes; an index-nested-loop join probes the *live* index,
  so the pipeline stamps every such inner table with its mutation
  counter and DDL epoch at execute time
  (:class:`~repro.exec.StalenessGuard`) and a result set left undrained
  across a later mutation of a probed table raises
  :class:`~repro.core.errors.StaleResultError` instead of silently
  streaming post-statement rows.  Drain promptly (``.rows`` does) when
  statement-time answers must survive subsequent writes; serving the
  statement-time answer *after* such writes (versioned indexes / MVCC)
  is the roadmap's open consistent-reads item;
* ``.rows`` / ``len()`` / ``.first()`` / ``.scalar()`` /
  ``.to_relation()`` drain the pipeline fully and return the canonical
  minimal answer — the one :class:`~repro.core.xrelation.XRelation` the
  pipeline builds when its tree runs out of rows.  ``.rows`` is the
  answer's sorted rows (sorted once per answer, so a result-cache hit
  shares the sort of the drain that stored it), copied into a list the
  caller owns; iterating a drained result set replays the answer too;
* :meth:`explain` renders the executed logical step trace, and
  :meth:`explain` with ``analyze=True`` drains the pipeline and renders
  the physical operator tree with per-node estimated rows, actual rows
  and wall time.

Mutation statements carry ``.rows_affected`` (they apply eagerly — DML
is never deferred) plus, when available, the sink-rooted ``.tree`` for
``explain(analyze=True)``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from ..exec.operators import PhysicalOperator
from ..exec.pipeline import Pipeline, render_tree


class ResultSet:
    """The answer to one executed statement.

    Parameters
    ----------
    relation:
        The answer x-relation, for statements executed eagerly (``None``
        otherwise).
    pipeline:
        The compiled streaming pipeline, for lazily-executed retrieves.
        Exactly one of *relation* / *pipeline* is set for row-producing
        statements; pure mutations set neither.
    rows_affected:
        Rows inserted / deleted / replaced (0 for a plain RETRIEVE).
    steps:
        The executed plan's step trace.  May be a static sequence of
        strings or, when a pipeline is attached and *steps* is empty, the
        trace is rendered live from the pipeline (so actual row counts
        appear once it drains).
    tree:
        Optional physical tree root for ``explain(analyze=True)`` when
        there is no pipeline (DML sinks).
    """

    def __init__(
        self,
        relation: Optional[XRelation] = None,
        *,
        pipeline: Optional[Pipeline] = None,
        rows_affected: int = 0,
        steps: Sequence[str] = (),
        tree: Optional[PhysicalOperator] = None,
    ):
        self._relation = relation
        self._pipeline = pipeline
        self.rows_affected = rows_affected
        self._static_steps: Tuple[str, ...] = tuple(steps)
        #: The physical tree of an eagerly executed statement (a DML
        #: sink), ``None`` otherwise.
        self.tree = tree
        self._sorted_rows: Optional[List[XTuple]] = None

    # -- materialisation -------------------------------------------------------
    def _materialize(self) -> Optional[XRelation]:
        if self._relation is None and self._pipeline is not None:
            self._relation = self._pipeline.run()
        return self._relation

    # -- rows -----------------------------------------------------------------
    @property
    def columns(self) -> Tuple[str, ...]:
        """The output column names (empty for a pure mutation)."""
        if self._pipeline is not None:
            return self._pipeline.columns
        if self._relation is None:
            return ()
        return self._relation.attributes

    @property
    def rows(self) -> List[XTuple]:
        """The answer rows in a stable (sorted) order: the answer's own
        sort, copied once per result set into a list the caller owns."""
        if self._sorted_rows is None:
            relation = self._materialize()
            self._sorted_rows = [] if relation is None else list(relation.sorted_rows())
        return self._sorted_rows

    def __iter__(self) -> Iterator[XTuple]:
        """Iterate the answer, streaming the pipeline when one is attached.

        Until the operator tree runs out of rows, rows are yielded as it
        produces them (lazy, block at a time); afterwards — however the
        tree drained — the canonical rows replay.  See the module
        docstring for the pre-minimisation caveat on streamed rows.
        """
        if self._relation is None and self._pipeline is not None:
            return self._pipeline.iter_rows()
        return iter(self.rows)

    def __len__(self) -> int:
        relation = self._materialize()
        return 0 if relation is None else len(relation)

    def first(self) -> Optional[XTuple]:
        """The first row in sorted order, or ``None`` on an empty answer."""
        rows = self.rows
        return rows[0] if rows else None

    def scalar(self):
        """The single value of a one-row, one-column answer (else an error)."""
        rows = self.rows
        if len(rows) != 1 or len(self.columns) != 1:
            raise ValueError(
                f"scalar() needs exactly one row and one column, "
                f"got {len(rows)} row(s) × {len(self.columns)} column(s)"
            )
        return rows[0][self.columns[0]]

    # -- conversions ----------------------------------------------------------
    def to_relation(self) -> Optional[XRelation]:
        """The answer as an :class:`XRelation` (``None`` for a mutation)."""
        return self._materialize()

    @property
    def answer(self) -> Optional[XRelation]:
        """Compatibility alias of :meth:`to_relation` (mirrors
        :class:`repro.quel.QueryResult`)."""
        return self._materialize()

    def to_table(self) -> str:
        relation = self._materialize()
        if relation is None:
            return f"({self.rows_affected} row(s) affected)"
        return relation.representation.to_table()

    # -- provenance -----------------------------------------------------------
    @property
    def steps(self) -> Tuple[str, ...]:
        if self._static_steps or self._pipeline is None:
            return self._static_steps
        return tuple(self._pipeline.step_lines())

    def explain(self, analyze: bool = False) -> str:
        """The executed plan.

        Without *analyze*: the logical step trace, one numbered step per
        line (actual row counts appear once the pipeline has drained).
        With ``analyze=True``: drains the pipeline *first* (EXPLAIN
        ANALYZE runs the query — a partially-streamed result set is
        drained to completion, never reported with partial actuals) and
        renders the physical operator tree — one indented line per node
        with ``est=… rows=… actual=… time=…``.  Falls back to the step
        trace for statements executed without a tree.
        """
        if analyze:
            if self._pipeline is not None:
                # Materialise through the result-set layer so the drain
                # also caches the canonical answer (and the trace hook
                # fires), then render the fully-finished tree.
                self._materialize()
                return self._pipeline.explain(analyze=True)
            if self.tree is not None:
                return render_tree(self.tree, analyze=True)
        return "\n".join(f"{i + 1}. {step}" for i, step in enumerate(self.steps))

    @property
    def pipeline(self) -> Optional[Pipeline]:
        """The underlying compiled pipeline, when the statement streamed."""
        return self._pipeline

    def __repr__(self) -> str:
        if self._relation is None and self._pipeline is not None:
            state = "drained" if self._pipeline.drained else "streaming"
            return (
                f"ResultSet({state}, columns={list(self.columns)}, "
                f"rows_affected={self.rows_affected})"
            )
        if self._relation is None:
            return f"ResultSet(rows_affected={self.rows_affected})"
        return (
            f"ResultSet(rows={len(self)}, columns={list(self.columns)}, "
            f"rows_affected={self.rows_affected})"
        )
