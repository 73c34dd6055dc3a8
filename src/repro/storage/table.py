"""Tables: relations plus constraints, indexes and algebra-defined updates.

Section 7 of the paper defines database updates through the extended
algebra: "the result of adding a set of tuples to a relation is defined as
the union of the set with the relation; likewise deletion is defined by
set difference; a modification can be viewed as a deletion followed by an
addition."  :class:`Table` implements exactly this discipline with
**one write primitive**, :meth:`Table.apply_delta` — rows out, rows in,
one log record, one bulk update per structure, and its own inverse with
the arguments swapped.  Every entry point is that call with its checks in
front:

* :meth:`insert_many` (and :meth:`insert`, its singleton) — generalised
  union with the new rows, after constraint checks; *atomic*: checks run
  up front, nothing is applied on failure;
* :meth:`delete_many` (and :meth:`delete`) / :meth:`delete_where` —
  generalised difference; note that, per (4.8), deleting a row also
  removes every *less informative* row it subsumes, which is the
  behaviour the information ordering dictates;
* :meth:`update_many` (and :meth:`update`) — deletion followed by
  insertion, as one delta;
* :meth:`load` — atomic checked replacement of the whole table, the bulk
  loader behind the workload builders (with :meth:`truncate` and
  :meth:`reset_rows`, the wholesale forms that rebuild rather than edit);
* the Section 1 user expectation — after an insert, the new table
  x-contains the old one — holds by construction and is asserted in the
  tests.

A table may carry key / NOT NULL / FD / row constraints and any number of
hash indexes, which are maintained incrementally.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core.engine.dominance import DominanceIndex
from ..core.errors import StorageError
from ..core.relation import Relation, RelationSchema, RowLike
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from ..constraints.keys import KeyConstraint, NotNullConstraint
from ..constraints.functional import FunctionalDependency
from ..constraints.schema_constraints import RowConstraint
from ..stats import TableStatistics
from .index import HashIndex


TableConstraint = Union[KeyConstraint, NotNullConstraint, FunctionalDependency, RowConstraint]


def _batch_insert_check(constraint) -> Optional[Callable[[Relation, Sequence[XTuple]], None]]:
    """The constraint's ``check_bulk_insert(relation, rows)``, or ``None``
    when it guards nothing on insert.  A third-party constraint that only
    offers the per-row ``check_insert(relation, row)`` is adapted here —
    the one place that form is still understood: each row is checked
    against a private copy of the relation that grows as the batch goes
    in, the view such a constraint expects."""
    check = getattr(constraint, "check_bulk_insert", None)
    if check is not None:
        return check
    check_insert = getattr(constraint, "check_insert", None)
    if check_insert is None:
        return None

    def sequential(relation: Relation, rows: Sequence[XTuple]) -> None:
        grown = Relation(relation.schema, validate=False)
        grown._rows = set(relation.tuples())
        for row in rows:
            check_insert(grown, row)
            grown._rows.add(row)

    return sequential


class Table:
    """A named, constrained, indexable relation living in a catalog."""

    def __init__(
        self,
        schema: Union[RelationSchema, Sequence[str]],
        constraints: Sequence[TableConstraint] = (),
        name: Optional[str] = None,
    ):
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(tuple(schema), name=name or "T")
        elif name is not None:
            schema = RelationSchema(schema.attributes, schema.domains(), name=name)
        self.relation = Relation(schema)
        self.constraints: List[TableConstraint] = list(constraints)
        self.indexes: Dict[str, HashIndex] = {}
        # Live dominance index over the stored rows, maintained by every
        # mutation path; powers x-membership probes and (4.8) deletion
        # without scanning the table.
        self.dominance = DominanceIndex()
        # Live statistics (row/distinct/null counts),
        # maintained through the same mutation paths; the cost-based
        # planner reads them instead of scanning the table per query.
        self.statistics = TableStatistics()
        # Physical-design epoch: bumped by every index change and every
        # explicit ANALYZE.  Sessions key their prepared-plan caches on
        # the database-wide sum, so a stale cached plan transparently
        # re-plans after the physical choices may have changed.
        self.ddl_epoch = 0
        # Write-ahead log, wired by the owning catalog when the database
        # has one attached (None otherwise).  Every mutation entry point
        # appends a logical record *before* applying, holding the log's
        # lock across append + apply so a background checkpoint can never
        # truncate a record whose state change has not landed yet.
        self._wal = None
        # The catalog's undo journal while a transaction group is open
        # (None otherwise), wired like ``_wal``: every change appends its
        # exact inverse (see :meth:`Catalog.begin_group`).
        self._journal = None

    def _record(self, undo, *args) -> None:
        """Journal the inverse of a change, if a group is open."""
        if self._journal is not None:
            self._journal.append((undo, args))

    # -- write-ahead logging ------------------------------------------------------
    def _wal_lock(self):
        """The WAL's append-and-apply scope when one is attached, else a
        no-op context.  The scope holds the WAL lock (so the checkpoint
        worker never snapshots between a record and its state change) and
        issues any deferred group-commit fsync on the way out."""
        wal = self._wal
        return wal.commit_scope() if wal is not None else nullcontext()

    def _log(self, op: str, **fields) -> None:
        """Append one logical record for this table (no-op without a WAL,
        and during recovery replay)."""
        wal = self._wal
        if wal is not None and not wal.replaying:
            record = {"op": op, "table": self.name}
            record.update(fields)
            wal.append(record)

    # -- convenience accessors ----------------------------------------------------
    @property
    def name(self) -> str:
        return self.relation.schema.name

    @property
    def schema(self) -> RelationSchema:
        return self.relation.schema

    @property
    def attributes(self):
        return self.relation.schema.attributes

    def rows(self):
        return self.relation.tuples()

    def __len__(self) -> int:
        return len(self.relation)

    def __iter__(self):
        return iter(self.relation)

    def as_relation(self) -> Relation:
        return self.relation

    def as_xrelation(self) -> XRelation:
        return XRelation(self.relation)

    # -- constraints ----------------------------------------------------------------
    def add_constraint(self, constraint: TableConstraint, validate_existing: bool = True) -> None:
        if validate_existing:
            check = getattr(constraint, "check", None)
            if check is not None:
                check(self.relation)
        self.constraints.append(constraint)

    def _check_inserts(self, stored: set, candidates: Sequence[XTuple]) -> None:
        """Run every constraint's batch insert check for *candidates*
        against the row set *stored*, which is only read — so a failure
        leaves the table untouched (and, with a WAL attached, unlogged)."""
        if not self.constraints:
            return
        scratch = Relation(self.schema, validate=False)
        scratch._rows = stored
        for constraint in self.constraints:
            check = _batch_insert_check(constraint)
            if check is not None:
                check(scratch, candidates)

    def validate(self) -> None:
        """Re-check every constraint against the whole table."""
        for constraint in self.constraints:
            check = getattr(constraint, "check", None)
            if check is not None:
                check(self.relation)

    # -- indexes -----------------------------------------------------------------------
    def create_index(self, attributes: Sequence[str], name: Optional[str] = None) -> HashIndex:
        self.schema.require(attributes)
        index = HashIndex(attributes, name=name)
        if index.name in self.indexes:
            raise StorageError(f"index {index.name!r} already exists on table {self.name!r}")
        with self._wal_lock():
            self._log("create_index", name=index.name, attributes=index.attributes)
            index.rebuild(self.relation.tuples())
            self.indexes[index.name] = index
            self.ddl_epoch += 1
            self._record(self.drop_index, index.name)
        return index

    def drop_index(self, name_or_attributes: Union[str, Sequence[str]]) -> None:
        """Drop an index by name, or by the attribute *set* it covers.

        Dropping by attributes is order-insensitive: an index declared on
        ``("B", "A")`` is found by ``drop_index(["A", "B"])``.
        """
        if isinstance(name_or_attributes, str):
            if name_or_attributes not in self.indexes:
                raise StorageError(
                    f"no index named {name_or_attributes!r} on table {self.name!r}"
                )
            doomed_name = name_or_attributes
        else:
            index = self.find_index(name_or_attributes)
            if index is None:
                raise StorageError(
                    f"no index on attributes {list(name_or_attributes)!r} "
                    f"on table {self.name!r}"
                )
            doomed_name = index.name
        with self._wal_lock():
            self._log("drop_index", name=doomed_name)
            dropped = self.indexes.pop(doomed_name)
            self.ddl_epoch += 1
            self._record(self.create_index, dropped.attributes, doomed_name)

    def find_index(self, attributes: Sequence[str]) -> Optional[HashIndex]:
        """The index covering exactly this attribute *set*, if any.

        Matching is order-insensitive — a hash index answers equality
        probes on every permutation of its key, the caller just has to
        permute the probe values into the index's declared order.
        """
        wanted = frozenset(attributes)
        if len(wanted) != len(tuple(attributes)):
            return None
        for index in self.indexes.values():
            if len(index.attributes) == len(wanted) and wanted == frozenset(index.attributes):
                return index
        return None

    def find_equality_index(self, attributes: Sequence[str]):
        """The physical choice for a set of equality-probed attributes.

        Returns ``(index, consumed)``: the :class:`HashIndex` to probe
        and the attribute subset it covers — the index matching the full
        attribute *set* when one exists, otherwise the first
        single-attribute index among them (the remaining equalities stay
        as ordinary filters).  ``(None, ())`` when nothing applies.  Both
        the cost-based planner's pushed selections and the session's
        prepared fast path make this choice through here, so they can
        never diverge on the access path for the same conjuncts.
        """
        wanted = tuple(attributes)
        if not wanted:
            return None, ()
        index = self.find_index(wanted)
        if index is not None:
            return index, wanted
        if len(wanted) > 1:
            for attribute in wanted:
                index = self.find_index([attribute])
                if index is not None:
                    return index, (attribute,)
        return None, ()

    def index_specs(self) -> Dict[str, tuple]:
        """The persistent indexes as ``{name: attribute tuple}`` — what
        snapshots carry so :meth:`Database.restore` can round-trip them."""
        return {name: index.attributes for name, index in self.indexes.items()}

    def lookup(self, attributes: Sequence[str], values: Sequence[Any]) -> List[XTuple]:
        """Equality lookup, via an index when one covers these attributes.

        Index matching is on the attribute *set*: an index declared on
        ``("B", "A")`` serves a lookup on ``("A", "B")``, with the probe
        values permuted into the index's key order.
        """
        wanted = tuple(attributes)
        index = self.find_index(wanted)
        if index is not None:
            bound = dict(zip(wanted, values))
            probe = [bound[a] for a in index.attributes]
            return sorted(index.lookup(probe), key=lambda r: r.items())
        matches = [
            r for r in self.relation.tuples()
            if all(r[a] == v for a, v in zip(wanted, values))
        ]
        return sorted(matches, key=lambda r: r.items())

    # -- updates (algebra-defined) ----------------------------------------------------------
    def apply_delta(
        self, removed: Iterable[XTuple], added: Iterable[XTuple]
    ) -> Tuple[Set[XTuple], List[XTuple]]:
        """The one write primitive: *removed* rows out, then *added* rows in.

        Section 7 defines every update this way, and every entry point
        below (and WAL replay) is this call with its checks in front.
        The arguments are trusted — no constraint runs here — but need
        not be exact: rows of *removed* that are not stored and rows of
        *added* that survive the removal (or repeat) are dropped first,
        so what is logged and applied is the exact delta between the pre-
        and post-state.  That delta is returned, and **swapping it is the
        inverse**: ``apply_delta(added, removed)`` restores the rows, the
        dominance index, every hash index and the statistics counters at
        O(batch) cost.  One WAL record (``insert`` / ``remove`` / ``update``
        by which sides are non-empty, none for an empty delta) is written
        before one bulk update per structure; inside a transaction group
        the swapped delta is journaled as the change's undo.
        """
        stored = self.relation.tuples()
        removed = {row for row in removed if row in stored}
        added = [
            row for row in dict.fromkeys(added)
            if row not in stored or row in removed
        ]
        if not removed and not added:
            return removed, added
        with self._wal_lock():
            if not removed:
                self._log("insert", rows=added)
            elif not added:
                self._log("remove", rows=list(removed))
            else:
                self._log("update", removed=list(removed), rows=added)
            self.relation._version += 1
            if removed:
                stored.difference_update(removed)
                self.dominance.bulk_discard(removed)
                for index in self.indexes.values():
                    index.bulk_discard(removed)
                self.statistics.remove_rows(removed)
            if added:
                stored.update(added)
                self.dominance.bulk_add(added)
                for index in self.indexes.values():
                    index.bulk_add(added)
                self.statistics.add_rows(added)
            self._record(self.apply_delta, added, removed)
        return removed, added

    def insert(self, row: RowLike) -> XTuple:
        """Insert one row — a singleton :meth:`insert_many`."""
        return self.insert_many([row])[0]

    def insert_many(self, rows: Iterable[RowLike]) -> List[XTuple]:
        """Insert a batch of rows atomically (generalised union).

        The batch is coerced and constraint-checked *up front*; only then
        are the genuinely new rows applied through :meth:`apply_delta`.
        On any constraint failure the table is left exactly as it was —
        all-or-nothing.  Returns the coerced rows.
        """
        candidates = self.relation._coerce_rows(rows)
        self._check_inserts(self.relation.tuples(), candidates)
        self.apply_delta((), candidates)
        return candidates

    def delete(self, row: RowLike) -> int:
        """Delete one row — a singleton :meth:`delete_many`, so per (4.8)
        deleting ``(p1, s2)`` also removes ``(p1, -)`` if present."""
        return self.delete_many([row])

    def delete_many(self, rows: Iterable[RowLike]) -> int:
        """Delete a batch of rows by generalised difference, in one pass.

        Per (4.8) each given row removes every stored row it subsumes —
        the less informative row carries no information the given one
        does not; the doomed set is the union over the batch, collected
        from the live dominance index (nothing is scanned or rebuilt).
        Returns the number of rows removed.
        """
        targets = self.relation._coerce_rows(rows)
        doomed, _ = self.apply_delta(self.dominance.bulk_probe_dominated(targets), ())
        return len(doomed)

    def delete_where(self, predicate: Callable[[XTuple], bool]) -> int:
        """Delete every row satisfying a Python predicate (a convenience form).

        The matching rows come straight out of the stored set, so unlike
        :meth:`delete` no (4.8) subsumption closure applies.  The matched
        row *set* is what gets logged, never the predicate — replay stays
        closed over plain data even for lambda deletes.
        """
        doomed, _ = self.apply_delta(
            [r for r in self.relation.tuples() if predicate(r)], ()
        )
        return len(doomed)

    def update(self, old_row: RowLike, new_row: RowLike) -> XTuple:
        """Modify one row — a singleton :meth:`update_many`."""
        return self.update_many([(old_row, new_row)])[0]

    def update_many(self, pairs: Iterable[tuple]) -> List[XTuple]:
        """Apply a batch of ``(old_row, new_row)`` modifications atomically.

        Modification = deletion followed by addition (Section 7): every
        old row must be present, the new rows are constraint-checked
        against the *post-delete* state, and only a fully-validated batch
        is applied — the (4.8) closure of the old rows out, the new rows
        in, as one :meth:`apply_delta`.  On any check failure nothing was
        touched or logged.  Returns the new rows.
        """
        staged = list(pairs)
        olds = self.relation._coerce_rows([old for old, _ in staged])
        news = self.relation._coerce_rows([new for _, new in staged])
        self.apply_delta(self._stage_update(olds, news), news)
        return news

    def _stage_update(self, olds: Sequence[XTuple], news: Sequence[XTuple]) -> Set[XTuple]:
        """Validate a modification without touching live state; returns
        the (4.8) closure of *olds* that applying it must remove."""
        stored = self.relation.tuples()
        for old in olds:
            if old not in stored:
                raise StorageError(f"row {old!r} not present in table {self.name!r}")
        doomed = self.dominance.bulk_probe_dominated(olds)
        if self.constraints:  # only a constrained table pays for the survivor set
            self._check_inserts(stored - doomed, news)
        return doomed

    def load(self, rows: Iterable[RowLike]) -> List[XTuple]:
        """Atomically replace the table's contents with *rows*.

        The bulk-load entry point: rows are coerced and checked against an
        empty table (so the batch only has to be consistent with itself),
        and the stored state is swapped in wholesale (:meth:`reset_rows`)
        on success.  On failure the current contents are untouched.
        """
        candidates = self.relation._coerce_rows(rows)
        self._check_inserts(set(), candidates)
        self.reset_rows(candidates)
        return candidates

    def truncate(self) -> None:
        with self._wal_lock():
            self._log("truncate")
            if self._journal is not None:
                self._record(
                    self.reset_rows,
                    set(self.relation.tuples()),
                    self.statistics.copy(),
                )
            self.relation.clear()
            self.dominance.clear()
            for index in self.indexes.values():
                index.clear()
            self.statistics.clear()

    def reset_rows(
        self,
        rows: Iterable[XTuple],
        statistics: Optional[TableStatistics] = None,
    ) -> None:
        """Replace the stored rows wholesale and rebuild every index.

        The supported path for snapshot restore — it keeps the hash
        indexes and the live dominance index consistent with the new row
        set, rebuilding each through its bulk entry point (one partition
        pass per structure).  Constraints are *not* re-checked: the rows
        are trusted, coming from a snapshot of this very table.  For a
        checked bulk load from external rows use :meth:`load`.

        When *statistics* is given (a saved :class:`TableStatistics`,
        from a snapshot or checkpoint), the table's live statistics are
        restored from it — planner estimates round-trip exactly; otherwise
        they are re-derived from the rows.  Logged as one logical ``load``
        record (statistics included, so crash-recovery replay restores the
        same estimates the live path does).  A rolled-back transaction
        reaches the log this way only to undo a wholesale change of its
        own — a ``load``, ``truncate`` or ``reset_rows`` inside the group.
        """
        fresh = set(rows)
        with self._wal_lock():
            self._log("load", rows=list(fresh), statistics=statistics)
            if self._journal is not None:
                # The replaced set is never mutated again: journal it as is.
                self._record(
                    self.reset_rows, self.relation._rows, self.statistics.copy()
                )
            self.relation._rows = fresh
            self.relation._version += 1
            self.relation._dominance = None
            self.dominance.rebuild(fresh)
            for index in self.indexes.values():
                index.rebuild(fresh)
            if statistics is not None:
                self.statistics.restore_from(statistics)
            else:
                self.statistics.analyze(fresh)

    # -- statistics --------------------------------------------------------------------------
    def analyze(self) -> TableStatistics:
        """Full-refresh the table's statistics from the stored rows.

        The incremental maintenance is exact, so this is a no-op on the
        counters when every mutation went through this table's methods;
        it repairs the statistics after any out-of-band mutation of the
        underlying relation.  Logged, and it moves the epoch on.  It is
        not journaled: the counters are exact either way, so a rolled-back
        group keeps the recount and undoes only its row changes.
        """
        with self._wal_lock():
            self._log("analyze")
            self.ddl_epoch += 1
            return self.statistics.analyze(self.relation.tuples())

    # -- x-membership ------------------------------------------------------------------------
    def x_contains(self, row: RowLike) -> bool:
        """Proposition 4.2 against the live dominance index: ``t ∈̂ table``."""
        t = row if isinstance(row, XTuple) else self.relation._coerce_row(row)
        return self.dominance.has_dominator(t)

    # -- presentation ------------------------------------------------------------------------------
    def to_table(self) -> str:
        return self.relation.to_table()

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, attributes={list(self.attributes)}, rows={len(self.relation)}, "
            f"constraints={len(self.constraints)}, indexes={list(self.indexes)})"
        )
