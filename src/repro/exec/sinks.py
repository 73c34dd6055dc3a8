"""DML sinks: pipeline endpoints that apply mutations atomically.

A sink is the root of a DML statement's physical plan: it drains its
source pipeline (the matching-rows query compiled by the planner) and
applies the batch through the storage layer's *atomic* bulk entry points
— :meth:`Database.insert_many` for APPEND, :meth:`Database.delete_many`
for DELETE (with the (4.8) subsumption closure and FK restrict), and
:meth:`Database.update_many` for REPLACE (deletion followed by addition
as one delta, post-state FK re-check, inverse delta on violation).  Each
is checks in front of the one write primitive, :meth:`Table.apply_delta`.
Sinks are blocking by nature: atomicity
demands the complete batch before anything is applied, so they are the
one place a DML pipeline legitimately materialises.

Each sink is a :class:`~repro.exec.operators.PhysicalOperator`, so
``explain(analyze=True)`` renders the full tree — sink on top, the
streaming source plan underneath — with per-node actual rows and time.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, List, Optional, Sequence

from ..core.tuples import XTuple
from .operators import PhysicalOperator
from .pipeline import Pipeline


class Sink(PhysicalOperator):
    """Base class: drain a source pipeline, apply a mutation, count rows."""

    def __init__(self, database, table, source: Optional[Pipeline], **kwargs: Any):
        children = (source.root,) if source is not None else ()
        super().__init__(children, **kwargs)
        self.database = database
        self.table = table
        self.source = source
        self.rows_affected = 0

    def _matching_rows(self) -> List[XTuple]:
        """The source's *canonical* (minimal) answer rows — the batch a
        sink applies must not depend on which representation the
        streaming plan happened to produce."""
        if self.source is None:
            return []
        return list(self.source.run().rows())

    def _apply(self, matched: List[XTuple]) -> int:
        raise NotImplementedError

    def run(self) -> int:
        """Drain the source and apply the mutation; rows affected."""
        self.started = True
        begin = perf_counter()
        try:
            matched = self._matching_rows()
            self.rows_affected = self._apply(matched)
            self.actual_rows = self.rows_affected
            return self.rows_affected
        finally:
            self.seconds += perf_counter() - begin
            self.finished = True

    def _blocks(self):
        # Sinks terminate the pipeline: they produce no tuples.  Running
        # one through the block protocol applies the mutation (once) and
        # yields nothing.
        if not self.finished:
            self.run()
        return iter(())


class AppendSink(Sink):
    """APPEND TO: build the new rows and apply one atomic ``insert_many``.

    *row_builder* maps each source binding row to the row to insert (or
    ``None`` to skip); for range-less appends the literal rows are passed
    directly and there is no source to drain.
    """

    def __init__(
        self,
        database,
        table,
        source: Optional[Pipeline] = None,
        row_builder: Optional[Callable[[XTuple], Optional[XTuple]]] = None,
        literal_rows: Sequence[XTuple] = (),
        **kwargs: Any,
    ):
        kwargs.setdefault("label", f"AppendSink {table.name} (atomic insert_many)")
        super().__init__(database, table, source, **kwargs)
        self.row_builder = row_builder
        self.literal_rows = list(literal_rows)

    def _apply(self, matched: List[XTuple]) -> int:
        if self.source is None:
            rows = list(self.literal_rows)
        else:
            built = (self.row_builder(row) for row in matched)
            rows = list(dict.fromkeys(r for r in built if r is not None))
        if not rows:
            return 0
        self.database.insert_many(self.table.name, rows)
        return len(rows)


class DeleteSink(Sink):
    """DELETE: matching rows → one atomic ``delete_many``.

    Per Section 7 deletion is generalised difference: every matching row
    also removes the stored rows it subsumes ((4.8)), foreign keys
    restrict, and the whole batch applies all-or-nothing.
    """

    def __init__(self, database, table, source: Pipeline, **kwargs: Any):
        kwargs.setdefault(
            "label", f"DeleteSink {table.name} (atomic delete_many, 4.8 closure)"
        )
        super().__init__(database, table, source, **kwargs)

    def _apply(self, matched: List[XTuple]) -> int:
        if not matched:
            return 0
        return self.database.delete_many(self.table.name, matched)


class ReplaceSink(Sink):
    """REPLACE: deletion followed by addition, all-or-nothing.

    *row_builder* maps each matched row to its replacement.  The batch
    delegates to :meth:`Database.update_many` — the (4.8) closure of the
    matched rows out and the checked replacements in as one delta, both
    foreign-key directions re-checked against the *post* state (the new
    rows may legitimately re-satisfy keys the deletion removed), and a
    violation undone by applying the inverse delta — so the modification
    discipline of Section 7 lives in exactly one place.
    """

    def __init__(
        self,
        database,
        table,
        source: Pipeline,
        row_builder: Callable[[XTuple], XTuple],
        **kwargs: Any,
    ):
        kwargs.setdefault(
            "label", f"ReplaceSink {table.name} (delete_many + insert_many)"
        )
        super().__init__(database, table, source, **kwargs)
        self.row_builder = row_builder

    def _apply(self, matched: List[XTuple]) -> int:
        if not matched:
            return 0
        self.database.update_many(
            self.table.name,
            [(old, self.row_builder(old)) for old in matched],
        )
        return len(matched)
