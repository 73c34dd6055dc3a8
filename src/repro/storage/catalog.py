"""The catalog: named tables, their constraints and cross-table foreign keys."""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.errors import StorageError
from ..core.relation import RelationSchema
from ..constraints.referential import ForeignKeyConstraint
from .table import Table, TableConstraint
from .wal import picklable_constraints, warn_dropped_constraints


class UndoGroup:
    """One open transaction group: the journal length when it began.

    The catalog keeps every open group, so a rollback that truncates the
    journal below another group's mark can pull that mark down with it.
    """

    __slots__ = ("mark",)

    def __init__(self, mark: int) -> None:
        self.mark = mark


class Catalog:
    """A registry of tables plus the foreign keys that relate them.

    Foreign keys live at the catalog level because they span two tables;
    the catalog wires the checks into inserts (referencing side) and
    deletes (referenced side) performed through :class:`Database`.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._foreign_keys: List[Tuple[str, ForeignKeyConstraint]] = []
        # Schema-change counter (create/drop/rename table, foreign keys);
        # combined with every table's physical-design epoch in
        # :meth:`epoch`, it versions everything a cached query plan may
        # depend on besides the data itself.
        self._ddl_epoch = 0
        # Write-ahead log shared with every registered table, wired by
        # :meth:`Database.attach_wal` (None without durability).
        self._wal = None
        # Undo journal of the open transaction group(s), shared with every
        # registered table the same way (None outside a group); see
        # :meth:`begin_group`.
        self._journal: Optional[list] = None
        self._groups: List[UndoGroup] = []

    # -- undo journal ----------------------------------------------------------------
    def _record(self, undo, *args) -> None:
        """Journal the inverse of a catalog change, if a group is open."""
        if self._journal is not None:
            self._journal.append((undo, args))

    def _wire_journal(self, journal: Optional[list]) -> None:
        self._journal = journal
        for table in self._tables.values():
            table._journal = journal

    def begin_group(self) -> UndoGroup:
        """Open a (possibly nested) transaction group.

        While any group is open, every change to the catalog or a table
        journals its exact inverse — an ``apply_delta`` its swapped delta,
        a wholesale row replacement (``load``/``truncate``/``reset_rows``)
        the prior rows and statistics, each DDL the opposite DDL (ANALYZE
        journals nothing: its recount is exact before and after).
        :meth:`undo_group` on the returned group
        rolls it back; an inner group's entries stay in the journal when it
        commits, so its enclosing group can still undo them.
        """
        if self._journal is None:
            self._wire_journal([])
        group = UndoGroup(len(self._journal))
        self._groups.append(group)
        return group

    def end_group(self, group: UndoGroup) -> None:
        """Close *group* (after its commit or rollback).  The last open
        group's close drops the journal."""
        if group in self._groups:
            self._groups.remove(group)
        if not self._groups:
            self._wire_journal(None)

    def undo_group(self, group: UndoGroup) -> None:
        """Undo everything journaled since *group* began, newest first.

        Each inverse goes through the ordinary logged entry point, so the
        write-ahead log receives O(batch) compensating records and replay
        of the aborted group converges to the pre-group state.  A table
        that existed when the group began and was dropped inside it has no
        inverse: the undo then raises :class:`StorageError` before touching
        anything.  A table both created and dropped inside the group simply
        stays gone.  Any other open group whose mark lay above the undone
        entries now starts where they did.
        """
        journal = self._journal
        mark = group.mark
        if journal is None or mark >= len(journal):
            return
        entries = journal[mark:]
        created = {id(args[0]) for undo, args in entries if undo == self._uncreate}
        lost = [
            args[0].name for undo, args in entries
            if undo is None and id(args[0]) not in created
        ]
        if lost:
            raise StorageError(
                f"cannot roll back: table(s) {lost} were dropped inside "
                f"the transaction (schema undo beyond creation is not supported)"
            )
        del journal[mark:]
        for other in self._groups:
            other.mark = min(other.mark, mark)
        # The inverses themselves are not journaled.
        self._wire_journal(None)
        try:
            for undo, args in reversed(entries):
                if undo is not None:
                    undo(*args)
        finally:
            self._wire_journal(journal)

    def _uncreate(self, table: Table) -> None:
        """Inverse of creating or registering *table*: drop it, unless the
        group already did.  Entries on a dropped table still run, but
        touch only that detached object."""
        if self._tables.get(table.name) is table:
            self.drop_table(table.name)

    def _unrename(self, table: Table, old: str) -> None:
        """Inverse of renaming *table* away from *old*."""
        if self._tables.get(table.name) is table:
            self.rename_table(table.name, old)

    # -- write-ahead logging -------------------------------------------------------
    def _wal_lock(self):
        wal = self._wal
        return wal.commit_scope() if wal is not None else nullcontext()

    def _log(self, record: dict) -> None:
        wal = self._wal
        if wal is not None and not wal.replaying:
            wal.append(record)

    def _create_record(self, table: Table) -> dict:
        """The ``create_table`` log record for *table*.  Unpicklable
        constraints are dropped from it (with a :class:`WalWarning` when
        a log is actually attached) and their names recorded so recovery
        can surface the enforcement gap."""
        constraints, dropped = picklable_constraints(table.constraints)
        if self._wal is not None and not self._wal.replaying:
            warn_dropped_constraints(dropped, table.name)
        return {
            "op": "create_table",
            "name": table.name,
            "schema": table.schema,
            "constraints": constraints,
            "dropped_constraints": dropped,
        }

    @property
    def epoch(self) -> int:
        """A monotone counter covering catalog DDL, index and ANALYZE changes.

        Any difference in the value means a cached plan built against the
        old catalog may no longer reflect the best (or even a valid)
        physical choice; sessions compare epochs on every prepared
        execution and transparently re-plan on mismatch.  Dropping a
        table folds the dropped table's epoch into the catalog counter so
        the sum never moves backwards.
        """
        return self._ddl_epoch + sum(
            table.ddl_epoch for table in self._tables.values()
        )

    # -- table management ---------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Union[RelationSchema, Sequence[str]],
        constraints: Sequence[TableConstraint] = (),
    ) -> Table:
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        table = Table(schema, constraints, name=name)
        with self._wal_lock():
            self._log(self._create_record(table))
            table._wal = self._wal
            table._journal = self._journal
            self._tables[name] = table
            self._ddl_epoch += 1
            self._record(self._uncreate, table)
        return table

    def register_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise StorageError(f"table {table.name!r} already exists")
        with self._wal_lock():
            # Logged as a create plus a load: replay rebuilds the table
            # from its schema and current rows (pre-registration history
            # is unknowable here).
            self._log(self._create_record(table))
            if table.rows():
                self._log({
                    "op": "load",
                    "table": table.name,
                    "rows": list(table.rows()),
                })
            for index_name, attributes in table.index_specs().items():
                self._log({
                    "op": "create_index",
                    "table": table.name,
                    "name": index_name,
                    "attributes": attributes,
                })
            table._wal = self._wal
            table._journal = self._journal
            self._tables[table.name] = table
            self._ddl_epoch += 1
            self._record(self._uncreate, table)
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise StorageError(f"no table named {name!r}")
        referencing = [
            fk for owner, fk in self._foreign_keys
            if fk.referenced_relation == name and owner != name
        ]
        if referencing:
            raise StorageError(
                f"cannot drop {name!r}: referenced by {[fk.name for fk in referencing]}"
            )
        with self._wal_lock():
            self._log({"op": "drop_table", "name": name})
            dropped = self._tables.pop(name)
            dropped._wal = None
            dropped._journal = None
            self._foreign_keys = [(owner, fk) for owner, fk in self._foreign_keys if owner != name]
            # Fold the dropped table's epoch in so the catalog-wide sum stays
            # monotone (a cache keyed on it must never see a value reused).
            self._ddl_epoch += dropped.ddl_epoch + 1
            # No inverse: a dropped table's rows, indexes and keys are
            # gone, so a group that drops a table older than itself
            # cannot be undone (see undo_group).
            self._record(None, dropped)

    def rename_table(self, old: str, new: str) -> Table:
        if old not in self._tables:
            raise StorageError(f"no table named {old!r}")
        if new in self._tables:
            raise StorageError(f"table {new!r} already exists")
        with self._wal_lock():
            self._log({"op": "rename_table", "old": old, "new": new})
            table = self._tables.pop(old)
            table.relation.schema.name = new
            self._tables[new] = table
            # The foreign-key rewrite stays inside the WAL lock: a
            # background checkpoint serialising between the rename and
            # the rewrite would capture entries still naming the old
            # table, which restore_foreign_keys silently drops.
            self._foreign_keys = [
                (new if owner == old else owner,
                 ForeignKeyConstraint(fk.attributes, new if fk.referenced_relation == old else fk.referenced_relation,
                                      fk.referenced_attributes, name=fk.name))
                for owner, fk in self._foreign_keys
            ]
            self._ddl_epoch += 1
            self._record(self._unrename, table, old)
        return table

    # -- lookups --------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(
                f"no table named {name!r}; available: {', '.join(sorted(self._tables))}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def index_specs(self) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """Every table's persistent indexes, ``{table: {index: attributes}}``.

        This is the catalog-level surface snapshots persist so a restore
        can round-trip user-created indexes, not just rows.
        """
        return {name: table.index_specs() for name, table in self._tables.items()}

    def table_for_relation(self, relation) -> Optional[Table]:
        """The table whose stored relation *is* this object, if any.

        The QUEL analyzer hands the planner bare
        :class:`~repro.core.relation.Relation` objects; identity matching
        is how the planner finds its way back to the owning table's live
        statistics and persistent indexes.
        """
        for table in self._tables.values():
            if table.relation is relation:
                return table
        return None

    # -- foreign keys ------------------------------------------------------------------
    def add_foreign_key(self, owner: str, constraint: ForeignKeyConstraint, validate_existing: bool = True) -> None:
        owner_table = self.table(owner)
        referenced_table = self.table(constraint.referenced_relation)
        if validate_existing:
            constraint.check(owner_table.relation, referenced_table.relation)
        with self._wal_lock():
            self._log({"op": "add_foreign_key", "owner": owner, "constraint": constraint})
            self._record(self.restore_foreign_keys, list(self._foreign_keys))
            self._foreign_keys.append((owner, constraint))
            self._ddl_epoch += 1

    def foreign_key_entries(self) -> List[Tuple[str, ForeignKeyConstraint]]:
        """A copy of every ``(owner, constraint)`` entry.

        What checkpoints persist; pair with :meth:`restore_foreign_keys`
        to put the foreign-key set back to a saved state.
        """
        return list(self._foreign_keys)

    def restore_foreign_keys(self, entries: List[Tuple[str, ForeignKeyConstraint]]) -> None:
        """Wholesale-replace the foreign-key entries from a saved copy.

        Constraints are not re-validated: the entries come from
        :meth:`foreign_key_entries` of this very catalog.  Entries naming
        tables that no longer exist are dropped rather than restored.
        """
        kept = [
            (owner, fk) for owner, fk in entries
            if owner in self._tables and fk.referenced_relation in self._tables
        ]
        with self._wal_lock():
            self._log({"op": "restore_foreign_keys", "entries": kept})
            self._record(self.restore_foreign_keys, self._foreign_keys)
            self._foreign_keys = kept
            self._ddl_epoch += 1

    def foreign_keys_of(self, owner: str) -> List[ForeignKeyConstraint]:
        return [fk for table_name, fk in self._foreign_keys if table_name == owner]

    def foreign_keys_referencing(self, referenced: str) -> List[Tuple[str, ForeignKeyConstraint]]:
        return [
            (owner, fk) for owner, fk in self._foreign_keys
            if fk.referenced_relation == referenced
        ]

    def __repr__(self) -> str:
        return f"Catalog(tables={self.table_names()}, foreign_keys={len(self._foreign_keys)})"
