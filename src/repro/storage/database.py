"""The Database facade: catalog + updates + queries in one object.

:class:`Database` is what the examples, the QUEL evaluator and the
benchmarks hold on to.  It behaves as a mapping from relation name to
:class:`~repro.core.relation.Relation` (so it plugs straight into
:func:`repro.quel.run_query`), enforces foreign keys on inserts and
deletes, and exposes snapshot/restore so benchmarks can rerun workloads
from a fixed state.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from ..core.errors import StorageError
from ..core.nulls import is_ni
from ..core.relation import Relation, RelationSchema, RowLike
from ..core.tuples import XTuple
from ..core.xrelation import XRelation
from ..constraints.referential import ForeignKeyConstraint
from ..obs import MetricsRegistry, get_registry
from .catalog import Catalog
from .table import Table, TableConstraint


class Database(Mapping[str, Relation]):
    """An in-memory database of relations with null values."""

    def __init__(self, name: str = "db", metrics: Optional[MetricsRegistry] = None):
        self.name = name
        self.catalog = Catalog()
        # Lazily-created default Session backing the query() delegate, so
        # repeated text queries share one prepared-statement cache.
        self._session = None
        # Durability: the attached WriteAheadLog and its background
        # checkpoint worker (both None for a purely in-memory database).
        self._wal = None
        self._checkpoint_worker = None
        # Observability: the registry everything acting on this database
        # reports into.  None resolves to the process-global default at
        # access time; passing ``metrics=MetricsRegistry()`` isolates
        # this database's series (the test-suite idiom).
        self._metrics = metrics

    # -- observability ---------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry for this database — its own when one was
        passed to the constructor, else the process-global default."""
        return self._metrics if self._metrics is not None else get_registry()

    # -- Mapping protocol (what the QUEL analyzer consumes) ----------------------------
    def __getitem__(self, name: str) -> Relation:
        return self.catalog.table(name).relation

    def __iter__(self) -> Iterator[str]:
        return iter(self.catalog.table_names())

    def __len__(self) -> int:
        return len(self.catalog)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.catalog.has_table(name)

    # -- schema manipulation --------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Union[RelationSchema, Sequence[str]],
        constraints: Sequence[TableConstraint] = (),
    ) -> Table:
        return self.catalog.create_table(name, schema, constraints)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def table_for_relation(self, relation: Relation) -> Optional[Table]:
        """The table whose stored relation *is* this object (identity), if any.

        The planner uses this to reach a range's live statistics and
        persistent indexes from the bare relation the analyzer resolved.
        """
        return self.catalog.table_for_relation(relation)

    @property
    def epoch(self) -> int:
        """The catalog/index/stats epoch (see :meth:`Catalog.epoch`).

        Sessions stamp every cached prepared plan with this value; a
        mismatch at execution time (any DDL, index change or ANALYZE since
        the plan was built) triggers a transparent re-plan.
        """
        return self.catalog.epoch

    def analyze(self) -> None:
        """Full-refresh every table's statistics (the ``ANALYZE`` verb)."""
        for table in self.catalog.tables():
            table.analyze()

    def add_foreign_key(self, owner: str, constraint: ForeignKeyConstraint) -> None:
        self.catalog.add_foreign_key(owner, constraint)

    # -- durability ---------------------------------------------------------------------------
    @property
    def wal(self):
        """The attached :class:`~repro.storage.wal.WriteAheadLog` (or None)."""
        return self._wal

    @property
    def checkpoint_worker(self):
        """The background checkpoint worker started by :meth:`attach_wal`
        (or None when durability is off / the worker was not requested)."""
        return self._checkpoint_worker

    def attach_wal(
        self,
        path: str,
        *,
        sync: str = "commit",
        group_commit: bool = True,
        checkpoint_interval: Optional[float] = None,
        checkpoint_min_log_bytes: int = 1,
    ):
        """Attach durability at *path* (a directory), recovering first.

        If the directory holds a previous incarnation — a checkpoint
        and/or a log — that state is recovered into this database (which
        must then be empty): the last checkpoint is loaded and the
        surviving log tail replayed, discarding any torn trailing record
        and any unfinished trailing transaction.  From then on every
        mutation entry point logs before applying; a checkpoint is taken
        immediately so the log restarts fresh (holding only the frame
        that binds it to that checkpoint).  With *checkpoint_interval*
        set, a background :class:`~repro.storage.wal.CheckpointWorker`
        checkpoints (and thereby resets the log) every that-many
        seconds.  ``sync="commit"`` fsyncs per autocommitted statement
        and per transaction commit; ``sync="none"`` defers flushing to
        the OS and to checkpoints.  Returns the attached log.
        """
        from .wal import CheckpointWorker, WriteAheadLog

        if self._wal is not None:
            raise StorageError(f"database {self.name!r} already has a WAL attached")
        wal = WriteAheadLog(path, sync=sync, group_commit=group_commit)
        wal.set_metrics(self.metrics)
        wal.recover_into(self)
        self._wal = wal
        self.catalog._wal = wal
        for table in self.catalog.tables():
            table._wal = wal
        # Baseline checkpoint: a fresh directory captures the current
        # state; a recovered one compacts the just-replayed tail.
        wal.checkpoint(self)
        if checkpoint_interval is not None:
            self._checkpoint_worker = CheckpointWorker(
                self,
                interval=checkpoint_interval,
                min_log_bytes=checkpoint_min_log_bytes,
            ).start()
        return wal

    @classmethod
    def open(
        cls,
        path: str,
        name: str = "db",
        *,
        sync: str = "commit",
        group_commit: bool = True,
        checkpoint_interval: Optional[float] = None,
    ) -> "Database":
        """Open (or create) a durable database at *path*.

        Equivalent to ``Database(name)`` + :meth:`attach_wal` — recovery
        happens before the first statement runs, so the returned database
        is exactly the last durable state.
        """
        database = cls(name)
        database.attach_wal(
            path,
            sync=sync,
            group_commit=group_commit,
            checkpoint_interval=checkpoint_interval,
        )
        return database

    def checkpoint(self) -> bool:
        """Serialise the whole database and truncate the log (see
        :meth:`~repro.storage.wal.WriteAheadLog.checkpoint`).  Returns
        False while a transaction group is open."""
        if self._wal is None:
            raise StorageError(f"database {self.name!r} has no WAL attached")
        return self._wal.checkpoint(self)

    def close(self) -> None:
        """Stop the checkpoint worker, take a final checkpoint, and close
        the log.  A no-op for an in-memory database."""
        if self._checkpoint_worker is not None:
            self._checkpoint_worker.stop()
            self._checkpoint_worker = None
        wal = self._wal
        if wal is not None:
            wal.checkpoint(self)
            wal.close()
            self.catalog._wal = None
            for table in self.catalog.tables():
                table._wal = None
            self._wal = None

    # -- updates with referential enforcement ------------------------------------------------
    def insert(self, table_name: str, row: RowLike) -> XTuple:
        """Insert one row — a singleton :meth:`insert_many`."""
        return self.insert_many(table_name, [row])[0]

    def insert_many(self, table_name: str, rows: Sequence[RowLike]) -> List[XTuple]:
        """Insert a batch atomically, foreign keys included.

        Referential checks run up front against a one-time index of the
        referenced keys (self-referencing keys see earlier batch rows,
        exactly as the sequential loop would), then the table's own
        constraints; only a fully-checked batch is applied, so a failure
        anywhere leaves every table untouched.
        """
        table = self.catalog.table(table_name)
        candidates = table.relation._coerce_rows(rows)
        for fk in self.catalog.foreign_keys_of(table_name):
            referenced = self.catalog.table(fk.referenced_relation).relation
            fk.check_bulk_insert(table.relation, candidates, referenced)
        table._check_inserts(table.relation.tuples(), candidates)
        table.apply_delta((), candidates)
        return candidates

    def delete_many(self, table_name: str, rows: Sequence[RowLike]) -> int:
        """Delete a batch (with (4.8) subsumption semantics) atomically.

        Each restricting foreign key indexes its referencing relation once
        (:meth:`ForeignKeyConstraint.check_bulk_delete`) instead of
        scanning it per removed row.  For a self-referencing key, rows the
        batch itself removes (including their (4.8) subsumption closure)
        do not restrict the delete — only references that survive the
        batch count, so a batch can take out a row together with all of
        its referrers.
        """
        table = self.catalog.table(table_name)
        targets = table.relation._coerce_rows(rows)
        doomed = table.dominance.bulk_probe_dominated(targets)
        for owner, fk in self.catalog.foreign_keys_referencing(table_name):
            referencing = self.catalog.table(owner).relation
            exclude = doomed if owner == table_name else frozenset()
            fk.check_bulk_delete(referencing, targets, table.relation, exclude=exclude)
        table.apply_delta(doomed, ())
        return len(doomed)

    def delete(self, table_name: str, row: RowLike) -> int:
        """Delete one row — a singleton :meth:`delete_many`, so the FK
        restrict semantics are identical: only references that survive
        the delete (and its (4.8) closure) block it."""
        return self.delete_many(table_name, [row])

    def update(self, table_name: str, old_row: RowLike, new_row: RowLike) -> XTuple:
        """Modify one row — a singleton :meth:`update_many`."""
        return self.update_many(table_name, [(old_row, new_row)])[0]

    def update_many(self, table_name: str, pairs: Sequence[tuple]) -> List[XTuple]:
        """Apply a batch of ``(old, new)`` modifications atomically.

        A modification is deletion followed by addition (Section 7): the
        batch is validated as :meth:`Table.update_many` validates it and
        applied as one :meth:`Table.apply_delta` — the (4.8) closure of
        the old rows out, the new rows in.  Then every foreign key
        touching the table — owned *and* referencing — is re-checked
        against the **post** state, since the new rows may legitimately
        re-satisfy keys the deletion removed.  Any violation is undone by
        applying the inverse delta (O(batch): no copy of the table is
        taken or reloaded, the statistics counters come back exactly)
        — notably, replacing a referenced key out from under its
        referrers raises instead of silently orphaning them (the restrict
        :meth:`delete_many` applies).
        """
        table = self.catalog.table(table_name)
        olds = table.relation._coerce_rows([old for old, _ in pairs])
        news = table.relation._coerce_rows([new for _, new in pairs])
        removed, added = table.apply_delta(table._stage_update(olds, news), news)
        try:
            self._check_update_foreign_keys(table, olds, news)
        except Exception:
            table.apply_delta(added, removed)
            raise
        return news

    def _check_update_foreign_keys(self, table, olds, inserted) -> None:
        """Post-state FK verification for a modification, targeted.

        Outgoing: the referenced tables are untouched by the statement,
        so only the inserted rows need checking (one indexed
        ``check_bulk_insert`` pass — a self-referencing key falls back to
        the whole-relation check, since surviving rows may have pointed
        at keys the deletion removed).  Referencing: only keys the
        statement actually removed can newly dangle, so the restrict is
        one ``check_bulk_delete`` probe over the vanished keys — never a
        whole-relation re-scan per referrer.  (A dominated row removed by
        the (4.8) closure either shares its dominator's key or is null on
        it, so probing the named old rows covers the closure.)
        """
        table_name = table.name
        for fk in self.catalog.foreign_keys_of(table_name):
            referenced = self.catalog.table(fk.referenced_relation).relation
            if referenced is table.relation:
                fk.check(table.relation, referenced)
            else:
                fk.check_bulk_insert(table.relation, inserted, referenced)
        referrers = self.catalog.foreign_keys_referencing(table_name)
        if not referrers:
            return
        stored = table.relation.tuples()
        vanished = [old for old in olds if old not in stored]
        if not vanished:
            return
        for owner, fk in referrers:
            present = set()
            for row in stored:
                key = tuple(row[a] for a in fk.referenced_attributes)
                if not any(is_ni(v) for v in key):
                    present.add(key)
            gone = []
            for old in vanished:
                key = tuple(old[a] for a in fk.referenced_attributes)
                if not any(is_ni(v) for v in key) and key not in present:
                    gone.append(old)
            if gone:
                fk.check_bulk_delete(
                    self.catalog.table(owner).relation, gone, table.relation
                )

    # -- queries --------------------------------------------------------------------------------
    def session(self):
        """This database's default :class:`~repro.api.Session` (created lazily).

        ``repro.connect(db)`` opens an independent session; this one backs
        the :meth:`query` convenience so repeated text queries share a
        prepared-statement cache.
        """
        if self._session is None:
            from ..api.session import Session
            self._session = Session(self)
        return self._session

    def query(self, text: str, params=None, strategy: Optional[str] = None):
        """Run any QUEL statement against this database.

        By default the text goes through the default session — full DML
        surface, cost-based planner, prepared-plan cache — and returns a
        :class:`~repro.api.ResultSet`.  Passing ``strategy=`` ("tuple",
        "algebra"/"plan") keeps the retrieve-only differential-oracle
        path of :func:`repro.quel.run_query`, returning its
        :class:`~repro.quel.QueryResult`.
        """
        if strategy is not None:
            from ..quel.evaluator import run_query
            return run_query(text, self, strategy=strategy, params=params)
        return self.session().execute(text, params)

    def xrelation(self, name: str) -> XRelation:
        return self.catalog.table(name).as_xrelation()

    # -- snapshots ---------------------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A cheap copy of every table's rows, index definitions *and*
        statistics.

        Each entry is ``{"rows": set of XTuple, "indexes": {name: attrs},
        "statistics": TableStatistics}`` — the index specs let
        :meth:`restore` round-trip user-created indexes instead of only
        the rows, and the statistics copy means a restored database plans
        on the estimates it had at snapshot time rather than re-derived
        ones.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.catalog.table_names():
            table = self.catalog.table(name)
            out[name] = {
                "rows": set(table.rows()),
                "indexes": table.index_specs(),
                "statistics": table.statistics.copy(),
            }
        return out

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Wholesale restore: each table goes through the bulk-rebuild path
        (:meth:`Table.reset_rows` — one partition pass per index, no
        per-row maintenance), its index set is reconciled with the
        snapshot's specs (indexes created since the snapshot are dropped,
        dropped ones are recreated), and its statistics are restored from
        the snapshot's copy when it carries one.

        The *catalog* is reconciled too: a table created after the
        snapshot was taken is dropped (in passes, so foreign keys between
        such tables cannot wedge the order — a created table still
        referenced by a surviving foreign key fails the restore loudly).
        Only full-format snapshots (every entry a mapping, as
        :meth:`snapshot` produces) reconcile the catalog; legacy row-set
        snapshots (``{name: set of rows}``) restore rows only, leaving
        the current indexes and any other tables in place."""
        full_format = all(isinstance(entry, Mapping) for entry in snapshot.values())
        if full_format:
            created = [
                name for name in self.catalog.table_names() if name not in snapshot
            ]
            while created:
                progressed = False
                for name in list(created):
                    try:
                        self.catalog.drop_table(name)
                    except StorageError:
                        continue
                    created.remove(name)
                    progressed = True
                if not progressed:
                    raise StorageError(
                        f"cannot restore: table(s) {created} created after the "
                        f"snapshot are referenced by surviving foreign keys"
                    )
        for name, entry in snapshot.items():
            table = self.catalog.table(name)
            if not isinstance(entry, Mapping):
                table.reset_rows(entry)
                continue
            specs = entry.get("indexes", {})
            for index_name in list(table.indexes):
                spec = specs.get(index_name)
                if spec is None or tuple(spec) != table.indexes[index_name].attributes:
                    table.drop_index(index_name)
            table.reset_rows(entry["rows"], statistics=entry.get("statistics"))
            for index_name, attributes in specs.items():
                if index_name not in table.indexes:
                    table.create_index(attributes, name=index_name)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.catalog.table_names()})"
