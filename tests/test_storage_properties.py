"""Property tests for the bulk-mutation subsystem of the storage layer.

Two families of guarantees:

* **Index consistency** — after any random interleaving of ``insert`` /
  ``insert_many`` / ``delete`` / ``delete_many`` / ``delete_where`` /
  ``update`` / ``truncate`` / ``load``, the live :class:`DominanceIndex`
  and every :class:`HashIndex` are *identical* to a from-scratch rebuild
  over the stored rows — the incremental and bulk maintenance paths can
  never drift from the definitional state.
* **Statistics consistency** — the incrementally-maintained
  :class:`~repro.stats.TableStatistics` (row count, per-attribute
  distinct/null counters) equals an
  ``analyze()``-from-scratch recount after the same interleavings; the
  incremental path can never drift from the definitional counts.
* **One write primitive** — any :meth:`Table.apply_delta` followed by
  the same call with the returned delta swapped restores rows, both
  kinds of index and the statistics counters exactly; the single-row
  entry points are singletons of the batch ones on state, return value
  and WAL records.
* **Atomicity** — a constraint failure anywhere in a batch leaves the
  table (rows, dominance index, hash indexes) exactly as it was.  The
  seed ``insert_many`` was a bare loop of ``insert``, so a mid-batch key
  violation used to leave the earlier rows behind; these are the
  regression tests pinning the all-or-nothing contract, including the
  row-at-a-time adapter for constraints that predate the batch API.

All tests run derandomized (seeded) so CI failures reproduce exactly.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.keys import KeyConstraint, NotNullConstraint
from repro.constraints.referential import ForeignKeyConstraint
from repro.core.engine import DominanceIndex
from repro.core.errors import (
    ConstraintViolation,
    KeyViolation,
    ReferentialViolation,
    StorageError,
)
from repro.core.tuples import XTuple
from repro.stats import TableStatistics
from repro.storage.database import Database
from repro.storage.index import HashIndex
from repro.storage.table import Table
from repro.storage.wal import read_frames

ATTRIBUTES = ("A", "B", "C")
VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
ROWS = st.tuples(VALUES, VALUES, VALUES)

OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), ROWS),
    st.tuples(st.just("insert_many"), st.lists(ROWS, max_size=5)),
    st.tuples(st.just("delete"), ROWS),
    st.tuples(st.just("delete_many"), st.lists(ROWS, max_size=3)),
    st.tuples(st.just("delete_where"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("update"), ROWS, ROWS),
    st.tuples(st.just("update_many"), st.lists(st.tuples(ROWS, ROWS), max_size=3)),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("load"), st.lists(ROWS, max_size=5)),
)


def apply_operations(table: Table, operations) -> None:
    for operation in operations:
        kind = operation[0]
        if kind == "insert":
            table.insert(operation[1])
        elif kind == "insert_many":
            table.insert_many(operation[1])
        elif kind == "delete":
            table.delete(operation[1])
        elif kind == "delete_many":
            table.delete_many(operation[1])
        elif kind == "delete_where":
            value = operation[1]
            table.delete_where(lambda row: row["A"] == value)
        elif kind == "update":
            try:
                table.update(operation[1], operation[2])
            except StorageError:
                pass  # the old row was not present; the table must be unchanged
        elif kind == "update_many":
            try:
                table.update_many(operation[1])
            except StorageError:
                pass  # some old row was not present; the table must be unchanged
        elif kind == "truncate":
            table.truncate()
        elif kind == "load":
            table.load(operation[1])


def assert_indexes_match_rebuild(table: Table) -> None:
    rows = set(table.rows())
    rebuilt_dominance = DominanceIndex(rows)
    assert len(table.dominance) == len(rebuilt_dominance) == len(rows)
    assert table.dominance._partitions == rebuilt_dominance._partitions
    for index in table.indexes.values():
        rebuilt = HashIndex(index.attributes)
        rebuilt.rebuild(rows)
        assert index._buckets == rebuilt._buckets
        assert index._unindexed == rebuilt._unindexed
    # Incremental statistics ≡ a full analyze() over the stored rows.
    assert table.statistics == TableStatistics(rows)


class TestMutationInterleavings:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(OPERATIONS, max_size=12))
    def test_dominance_and_hash_indexes_match_from_scratch_rebuild(self, operations):
        table = Table(ATTRIBUTES, name="T")
        table.create_index(["A"])
        table.create_index(["A", "B"])
        apply_operations(table, operations)
        assert_indexes_match_rebuild(table)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(ROWS, max_size=10), st.lists(ROWS, max_size=10))
    def test_bulk_mutations_equal_sequential_mutations(self, first, second):
        """insert_many/delete_many land on exactly the rows a loop of
        insert/delete would (same (4.8) subsumption semantics)."""
        bulk = Table(ATTRIBUTES, name="B")
        loop = Table(ATTRIBUTES, name="L")
        bulk.insert_many(first)
        for row in first:
            loop.insert(row)
        assert set(bulk.rows()) == set(loop.rows())
        bulk.delete_many(second)
        for row in second:
            loop.delete(row)
        assert set(bulk.rows()) == set(loop.rows())
        assert_indexes_match_rebuild(bulk)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(ATTRIBUTES), st.integers(0, 2)),
                max_size=3,
            ).map(dict),
            max_size=4,
        ),
        max_size=5,
    ))
    def test_engine_bulk_add_discard_equal_sequential(self, batches):
        """DominanceIndex.bulk_add/bulk_discard ≡ loops of add/discard."""
        bulk_index = DominanceIndex()
        loop_index = DominanceIndex()
        seen = []
        for batch in batches:
            rows = [XTuple(assignment) for assignment in batch]
            seen.extend(rows)
            bulk_index.bulk_add(rows)
            for row in rows:
                loop_index.add(row)
        assert bulk_index._partitions == loop_index._partitions
        assert len(bulk_index) == len(loop_index)
        victims = seen[::2]
        probed = bulk_index.bulk_probe_dominated(victims)
        expected_probe = set()
        for victim in victims:
            expected_probe.update(loop_index.probe_dominated(victim))
        assert probed == expected_probe
        removed = bulk_index.bulk_discard(victims)
        expected = sum(1 for _ in filter(None, [loop_index.discard(v) for v in dict.fromkeys(victims)]))
        assert removed == expected
        assert bulk_index._partitions == loop_index._partitions
        assert len(bulk_index) == len(loop_index)


class TestDeltaPrimitive:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.lists(OPERATIONS, max_size=8),
        st.lists(ROWS, max_size=6),
        st.lists(ROWS, max_size=6),
    )
    def test_delta_then_inverse_restores_every_structure(
        self, operations, removed, added
    ):
        """apply_delta(removed, added) then apply_delta of the returned
        delta, swapped, ≡ the pre-state: rows, dominance index, every
        hash index and the statistics counters all equal a from-scratch
        rebuild of the rows the table held before."""
        table = Table(ATTRIBUTES, name="T")
        table.create_index(["A"])
        table.create_index(["A", "B"])
        apply_operations(table, operations)
        before = set(table.rows())
        coerce = table.relation._coerce_rows
        went, came = table.apply_delta(coerce(removed), coerce(added))
        # The returned delta is exact: what left was stored, what came
        # in was not (or left in the same call).
        assert went <= before and not (set(came) & (before - went))
        assert set(table.rows()) == (before - went) | set(came)
        assert_indexes_match_rebuild(table)
        table.apply_delta(came, went)
        assert set(table.rows()) == before
        assert_indexes_match_rebuild(table)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(["insert", "delete"]), ROWS), max_size=8))
    def test_single_row_forms_are_singleton_batches(self, operations):
        """insert(r) / delete(r) ≡ insert_many([r]) / delete_many([r]),
        on Table and Database alike: same return value, same state
        (statistics included), same WAL records."""
        with tempfile.TemporaryDirectory() as directory:
            outcomes = []
            for batched in (False, True):
                database = Database.open(f"{directory}/{batched}", sync="none")
                table = database.create_table("T", ATTRIBUTES)
                table.create_index(["A"])
                returned = []
                for position, (kind, row) in enumerate(operations):
                    # Alternate the facade and the table underneath it.
                    target = table if position % 2 else _Bound(database, "T")
                    if batched and kind == "insert":
                        returned.append(target.insert_many([row])[0])
                    elif batched:
                        returned.append(target.delete_many([row]))
                    else:
                        returned.append(getattr(target, kind)(row))
                assert_indexes_match_rebuild(table)
                database.wal.flush()
                records = read_frames(database.wal.log_path)[0]
                for record in records:
                    for key in ("rows", "removed"):
                        if key in record:
                            record[key] = sorted(record[key], key=XTuple.items)
                outcomes.append((
                    returned, set(table.rows()), table.statistics, records,
                ))
                database.close()
            assert outcomes[0] == outcomes[1]


class _Bound:
    """``database.<method>("T", …)`` with the table name bound, so one
    loop can drive a :class:`Database` and a :class:`Table` alike."""

    def __init__(self, database: Database, name: str):
        self._database, self._name = database, name

    def __getattr__(self, method):
        return lambda *args: getattr(self._database, method)(self._name, *args)


class TestStatisticsProperties:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(OPERATIONS, max_size=12))
    def test_incremental_statistics_match_full_analyze(self, operations):
        """After any mutation interleaving the live counters — row count,
        per-attribute value counters, null counts — equal a from-scratch
        analyze() of the stored rows."""
        table = Table(ATTRIBUTES, name="T")
        apply_operations(table, operations)
        fresh = TableStatistics(set(table.rows()))
        assert table.statistics == fresh
        for attribute in ATTRIBUTES:
            assert table.statistics.distinct_count(attribute) == fresh.distinct_count(attribute)
            assert table.statistics.null_count(attribute) == fresh.null_count(attribute)
        # analyze() is a no-op on the counters.
        table.analyze()
        assert table.statistics == fresh

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(ROWS, max_size=8), st.lists(ROWS, max_size=8))
    def test_failed_batches_leave_statistics_untouched(self, first, second):
        """Atomicity extends to the statistics: a mid-batch key violation
        must not leak partial counts."""
        table = Table(
            ATTRIBUTES, constraints=[KeyConstraint(["A"]), NotNullConstraint(["A"])], name="T"
        )
        try:
            table.insert_many(first)
        except ConstraintViolation:
            pass
        before = TableStatistics(set(table.rows()))
        assert table.statistics == before
        try:
            table.insert_many(second)
        except ConstraintViolation:
            assert table.statistics == before
        else:
            assert table.statistics == TableStatistics(set(table.rows()))


class TestInsertManyAtomicity:
    @pytest.fixture
    def table(self) -> Table:
        table = Table(
            ["E#", "NAME", "TEL#"],
            constraints=[KeyConstraint(["E#"]), NotNullConstraint(["NAME"])],
            name="EMP",
        )
        table.create_index(["E#"])
        table.insert((1, "ann", None))
        return table

    def snapshot(self, table: Table):
        return (
            set(table.rows()),
            dict(table.dominance._partitions),
            {name: (dict(ix._buckets), set(ix._unindexed)) for name, ix in table.indexes.items()},
        )

    def test_mid_batch_key_violation_inserts_nothing(self, table):
        before = self.snapshot(table)
        with pytest.raises(KeyViolation):
            # The seed loop would have left (2, bob) and (3, cat) behind:
            # the offending duplicate comes *after* two valid rows.
            table.insert_many([(2, "bob", 5), (3, "cat", 6), (2, "dup", 7)])
        assert self.snapshot(table) == before

    def test_conflict_with_existing_row_inserts_nothing(self, table):
        before = self.snapshot(table)
        with pytest.raises(KeyViolation):
            table.insert_many([(9, "new", 1), (1, "clash", 2)])
        assert self.snapshot(table) == before

    def test_reinserting_identical_rows_is_permitted(self, table):
        table.insert_many([(1, "ann", None), (1, "ann", None), (2, "bob", 5)])
        assert len(table) == 2

    def test_not_null_violation_inserts_nothing(self, table):
        before = self.snapshot(table)
        with pytest.raises(ConstraintViolation):
            table.insert_many([(2, "bob", 5), (3, None, 6)])
        assert self.snapshot(table) == before

    def test_legacy_check_insert_constraint_is_atomic_too(self):
        """A constraint offering only check_insert is adapted to the batch
        form (row at a time against a growing copy); a mid-batch failure
        must still leave the table untouched."""

        class LegacyConstraint:
            def check_insert(self, relation, row):
                if row["A"] == 13:
                    raise ConstraintViolation("13 is right out")

        table = Table(["A"], constraints=[LegacyConstraint()], name="L")
        table.create_index(["A"])
        table.insert((1,))
        with pytest.raises(ConstraintViolation):
            table.insert_many([(2,), (3,), (13,), (4,)])
        assert {row["A"] for row in table.rows()} == {1}
        assert_indexes_match_rebuild(table)

    def test_successful_batch_lands_in_every_index(self, table):
        table.insert_many([(2, "bob", 5), (3, "cat", None)])
        assert len(table) == 3
        assert table.x_contains({"E#": 3})
        assert_indexes_match_rebuild(table)

    def test_load_checks_but_replaces(self):
        table = Table(["E#", "NAME"], constraints=[KeyConstraint(["E#"])], name="EMP")
        table.insert((1, "old"))
        table.load([(2, "new"), (3, "newer")])
        assert {row["E#"] for row in table.rows()} == {2, 3}
        with pytest.raises(KeyViolation):
            table.load([(5, "x"), (5, "y")])
        # the failed load left the previous contents in place
        assert {row["E#"] for row in table.rows()} == {2, 3}
        assert_indexes_match_rebuild(table)


class TestUpdateMany:
    """``update`` / ``update_many`` are one delta — the (4.8) closure of
    the old rows out, the new rows in — checked in full before anything
    is touched; where a check can only run on the post state (foreign
    keys), the inverse delta brings the *whole* removed closure back,
    not just the named rows."""

    def make_table(self) -> Table:
        table = Table(
            ["E#", "NAME", "TEL#"],
            constraints=[KeyConstraint(["E#"])],
            name="EMP",
        )
        table.create_index(["E#"])
        table.insert_many([(1, "ann", 5), (2, "bob", 6), (3, "cat", 7)])
        return table

    def test_update_many_is_delete_closure_then_atomic_insert(self):
        table = self.make_table()
        twin = self.make_table()
        inserted = table.update_many([
            ((1, "ann", 5), (1, "ann", 9)),
            ((2, "bob", 6), (4, "dan", 6)),
        ])
        assert [row["E#"] for row in inserted] == [1, 4]
        twin.delete_many([(1, "ann", 5), (2, "bob", 6)])
        twin.insert_many([(1, "ann", 9), (4, "dan", 6)])
        assert set(table.rows()) == set(twin.rows())
        assert_indexes_match_rebuild(table)

    def test_missing_old_row_changes_nothing(self):
        table = self.make_table()
        before = set(table.rows())
        with pytest.raises(StorageError):
            table.update_many([
                ((1, "ann", 5), (1, "ann", 9)),
                ((9, "ghost", 0), (9, "ghost", 1)),
            ])
        assert set(table.rows()) == before
        assert_indexes_match_rebuild(table)

    def test_mid_batch_violation_restores_everything(self):
        table = self.make_table()
        before = set(table.rows())
        with pytest.raises(KeyViolation):
            table.update_many([
                ((1, "ann", 5), (1, "ann", 9)),
                ((2, "bob", 6), (3, "clash", 0)),  # E# 3 already taken
            ])
        assert set(table.rows()) == before
        assert_indexes_match_rebuild(table)

    def test_failed_update_restores_the_dominated_closure(self):
        """The regression the refactor fixes: deleting the old row also
        removes every row it subsumes ((4.8)); a failed insert must bring
        the *whole* closure back, not just the named row."""
        table = Table(
            ["E#", "NAME"],
            constraints=[NotNullConstraint(["NAME"])],
            name="EMP",
        )
        table.create_index(["E#"])
        table.insert((1, "ann"))
        table.relation.add(XTuple({"E#": 1}))  # dominated by (1, 'ann')
        table.reset_rows(set(table.relation.tuples()))
        before = set(table.rows())
        assert XTuple({"E#": 1}) in before  # the closure member is stored
        with pytest.raises(ConstraintViolation):
            table.update((1, "ann"), (2, None))  # NAME may not be null
        assert set(table.rows()) == before
        assert table.x_contains({"E#": 1})
        assert_indexes_match_rebuild(table)

    def test_database_update_many_enforces_foreign_keys_post_state(self):
        """Modification = deletion followed by addition, so both FK
        directions are re-checked on the post state (exactly the REPLACE
        discipline), undone by the inverse delta on violation."""
        database = Database("hr")
        database.create_table("DEPT", ["DNAME"], constraints=[KeyConstraint(["DNAME"])])
        database.create_table("EMP", ["E#", "DNAME"], constraints=[KeyConstraint(["E#"])])
        database.add_foreign_key("EMP", ForeignKeyConstraint(["DNAME"], "DEPT", ["DNAME"]))
        database.insert_many("DEPT", [("eng",), ("ops",)])
        database.insert_many("EMP", [(1, "eng"), (2, "eng")])
        before = set(database.table("EMP").rows())
        # Outgoing: a new row referencing a missing key rolls the batch back.
        with pytest.raises(ReferentialViolation):
            database.update_many("EMP", [
                ((1, "eng"), (1, "eng")),
                ((2, "eng"), (2, "nowhere")),
            ])
        assert set(database.table("EMP").rows()) == before
        # Referencing: replacing a referenced key out from under its
        # referrers restricts instead of silently orphaning them.
        depts = set(database.table("DEPT").rows())
        with pytest.raises(ReferentialViolation):
            database.update("DEPT", ("eng",), ("games",))
        assert set(database.table("DEPT").rows()) == depts
        # Unreferenced keys may change; re-satisfying keys are fine too.
        database.update("DEPT", ("ops",), ("it",))
        updated = database.update_many("EMP", [((2, "eng"), (2, "eng"))])
        assert [row["E#"] for row in updated] == [2]


class TestDatabaseBulkPaths:
    @pytest.fixture
    def database(self) -> Database:
        database = Database("hr")
        database.create_table("DEPT", ["DNAME", "HEAD"], constraints=[KeyConstraint(["DNAME"])])
        database.create_table("EMP", ["E#", "NAME", "DNAME"], constraints=[KeyConstraint(["E#"])])
        database.add_foreign_key("EMP", ForeignKeyConstraint(["DNAME"], "DEPT", ["DNAME"]))
        database.insert_many("DEPT", [("eng", 1), ("ops", 2)])
        return database

    def test_fk_violation_mid_batch_inserts_nothing(self, database):
        before = set(database["EMP"].tuples())
        with pytest.raises(ReferentialViolation):
            database.insert_many("EMP", [(1, "ann", "eng"), (2, "bob", "legal")])
        assert set(database["EMP"].tuples()) == before

    def test_self_referencing_fk_sees_earlier_batch_rows(self):
        database = Database("mgmt")
        database.create_table("EMP", ["E#", "MGR#"], constraints=[KeyConstraint(["E#"])])
        database.add_foreign_key("EMP", ForeignKeyConstraint(["MGR#"], "EMP", ["E#"]))
        # 2 references 1, which is earlier in the same batch — the
        # sequential loop accepted this, so the bulk path must too.
        database.insert_many("EMP", [(1, None), (2, 1)])
        assert len(database["EMP"]) == 2
        with pytest.raises(ReferentialViolation):
            # 3 references 4, which only appears later: the sequential
            # loop rejected this ordering, so the bulk path must too.
            database.insert_many("EMP", [(3, 4), (4, None)])
        assert len(database["EMP"]) == 2

    def test_delete_many_takes_row_and_its_referrers_together(self):
        """A batch may delete a row together with everything referencing
        it: only references that *survive* the batch restrict the delete
        (the deferred reading — a sequential loop would need the lucky
        ordering)."""
        database = Database("mgmt")
        database.create_table("EMP", ["E#", "MGR#"], constraints=[KeyConstraint(["E#"])])
        database.add_foreign_key("EMP", ForeignKeyConstraint(["MGR#"], "EMP", ["E#"]))
        database.insert_many("EMP", [(1, None), (2, 1), (3, None)])
        with pytest.raises(ReferentialViolation):
            database.delete_many("EMP", [(1, None)])  # (2, 1) survives → blocked
        assert len(database["EMP"]) == 3
        assert database.delete_many("EMP", [(2, 1), (1, None)]) == 2
        assert {row["E#"] for row in database["EMP"].tuples()} == {3}

    def test_delete_many_respects_restrict_semantics(self, database):
        database.insert_many("EMP", [(1, "ann", "eng")])
        with pytest.raises(ReferentialViolation):
            database.delete_many("DEPT", [("eng", 1)])
        assert len(database["DEPT"]) == 2
        assert database.delete_many("DEPT", [("ops", 2)]) == 1

    def test_snapshot_restore_round_trip_keeps_indexes_fresh(self, database):
        table = database.table("EMP")
        table.create_index(["DNAME"])
        database.insert_many("EMP", [(1, "ann", "eng"), (2, "bob", "ops")])
        snapshot = database.snapshot()
        database.insert_many("EMP", [(3, "cat", "eng")])
        database.restore(snapshot)
        assert len(database["EMP"]) == 2
        assert_indexes_match_rebuild(table)
