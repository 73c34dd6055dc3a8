"""Unit tests for the storage substrate (tables, catalog, database, indexes)."""

import pytest

from repro import NI, Relation, XRelation, XTuple
from repro.constraints import (
    ForeignKeyConstraint,
    FunctionalDependency,
    KeyConstraint,
    NotNullConstraint,
    RowConstraint,
)
from repro.core.errors import (
    ConstraintViolation,
    KeyViolation,
    NotNullViolation,
    ReferentialViolation,
    SchemaError,
    StorageError,
)
from repro.storage import Catalog, Database, HashIndex, Table, add_attribute, drop_attribute, evolve


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex(["A"])
        index.insert(XTuple(A=1, B="x"))
        index.insert(XTuple(A=1, B="y"))
        index.insert(XTuple(A=2, B="z"))
        assert len(index.lookup([1])) == 2
        assert len(index.lookup([9])) == 0

    def test_null_rows_go_to_unindexed_bucket(self):
        index = HashIndex(["A"])
        index.insert(XTuple(B="only"))
        exact, unindexed = index.probe([1])
        assert not exact and len(unindexed) == 1

    def test_remove(self):
        index = HashIndex(["A"])
        row = XTuple(A=1)
        index.insert(row)
        index.remove(row)
        assert len(index) == 0
        index.remove(row)  # removing twice is harmless

    def test_rebuild_and_clear(self):
        index = HashIndex(["A"])
        index.rebuild([XTuple(A=1), XTuple(A=2), XTuple(B=1)])
        assert len(index) == 3
        index.clear()
        assert len(index) == 0

    def test_composite_index(self):
        index = HashIndex(["A", "B"])
        index.insert(XTuple(A=1, B=2, C=3))
        assert len(index.lookup([1, 2])) == 1
        index.insert(XTuple(A=1))  # null on B → unindexed
        assert len(index.probe([1, 2])[1]) == 1

    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            HashIndex([])


class TestTable:
    @pytest.fixture
    def table(self):
        return Table(
            ["E#", "NAME", "TEL#"],
            constraints=[KeyConstraint(["E#"]), NotNullConstraint(["NAME"])],
            name="EMP",
        )

    def test_insert_and_len(self, table):
        table.insert((1, "ann", None))
        table.insert({"E#": 2, "NAME": "bob", "TEL#": 555})
        assert len(table) == 2

    def test_insert_after_new_information_contains_old(self, table):
        """The Section 1 user expectation, now a fact rather than a MAYBE."""
        table.insert((1, "ann", None))
        before = table.as_xrelation()
        table.insert((2, "bob", 555))
        after = table.as_xrelation()
        assert after >= before

    def test_key_violation(self, table):
        table.insert((1, "ann", None))
        with pytest.raises(KeyViolation):
            table.insert((1, "dup", None))

    def test_null_key_rejected(self, table):
        with pytest.raises(KeyViolation):
            table.insert((None, "ghost", None))

    def test_not_null_violation(self, table):
        with pytest.raises(NotNullViolation):
            table.insert((3, None, None))

    def test_delete_removes_subsumed_rows(self):
        table = Table(["S#", "P#"], name="PS")
        table.insert_many([("s1", "p1"), ("s1", None)])
        removed = table.delete(("s1", "p1"))
        assert removed == 2
        assert len(table) == 0

    def test_delete_does_not_remove_more_informative_rows(self):
        table = Table(["S#", "P#"], name="PS")
        table.insert_many([("s1", "p1")])
        removed = table.delete(("s1", None))
        assert removed == 0
        assert len(table) == 1

    def test_delete_where(self, table):
        table.insert_many([(1, "ann", None), (2, "bob", 5)])
        assert table.delete_where(lambda r: r["TEL#"] is NI) == 1
        assert len(table) == 1

    def test_update_is_delete_then_insert(self, table):
        table.insert((1, "ann", None))
        table.update((1, "ann", None), (1, "ann", 777))
        assert table.lookup(["E#"], [1])[0]["TEL#"] == 777

    def test_failed_update_restores_old_row(self, table):
        table.insert((1, "ann", None))
        table.insert((2, "bob", 5))
        with pytest.raises(KeyViolation):
            table.update((1, "ann", None), (2, "clash", 9))
        assert len(table) == 2
        assert table.lookup(["E#"], [1])

    def test_update_missing_row(self, table):
        with pytest.raises(StorageError):
            table.update((9, "ghost", None), (9, "ghost", 1))

    def test_indexes_maintained(self, table):
        index = table.create_index(["E#"])
        table.insert((1, "ann", None))
        assert len(index.lookup([1])) == 1
        table.delete((1, "ann", None))
        assert len(index.lookup([1])) == 0

    def test_duplicate_index_rejected(self, table):
        table.create_index(["E#"])
        with pytest.raises(StorageError):
            table.create_index(["E#"])

    def test_lookup_without_index_scans(self, table):
        table.insert((1, "ann", None))
        assert table.lookup(["NAME"], ["ann"])

    def test_add_constraint_validates_existing_rows(self, table):
        table.insert((1, "ann", None))
        table.insert((2, "ann", None))
        with pytest.raises(ConstraintViolation):
            table.add_constraint(FunctionalDependency(["NAME"], ["E#"]))

    def test_row_constraint_enforced_on_insert(self):
        table = Table(
            ["E#", "MGR#"],
            constraints=[RowConstraint("EMP", lambda r: r["E#"] != r["MGR#"] or r["MGR#"] is NI)],
            name="EMP",
        )
        table.insert((1, 2))
        with pytest.raises(ConstraintViolation):
            table.insert((3, 3))

    def test_truncate(self, table):
        table.insert((1, "ann", None))
        table.truncate()
        assert len(table) == 0


class TestCatalogAndDatabase:
    def test_create_and_drop(self):
        catalog = Catalog()
        catalog.create_table("T", ["A"])
        assert catalog.has_table("T") and "T" in catalog
        catalog.drop_table("T")
        assert not catalog.has_table("T")

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table("T", ["A"])
        with pytest.raises(StorageError):
            catalog.create_table("T", ["A"])

    def test_missing_table(self):
        with pytest.raises(StorageError):
            Catalog().table("NOPE")

    def test_rename_table(self):
        catalog = Catalog()
        catalog.create_table("OLD", ["A"])
        catalog.rename_table("OLD", "NEW")
        assert catalog.has_table("NEW") and not catalog.has_table("OLD")

    def test_database_mapping_protocol(self, emp_db):
        assert "EMP" in emp_db
        assert isinstance(emp_db["EMP"], Relation)
        assert list(emp_db) == ["EMP"]
        assert len(emp_db) == 1

    def test_foreign_key_enforced_on_insert(self):
        db = Database()
        db.create_table("DEPT", ["D#", "DNAME"], constraints=[KeyConstraint(["D#"])])
        db.create_table("EMP", ["E#", "DEPT#"], constraints=[KeyConstraint(["E#"])])
        db.insert("DEPT", (1, "eng"))
        db.add_foreign_key("EMP", ForeignKeyConstraint(["DEPT#"], "DEPT", ["D#"]))
        db.insert("EMP", (10, 1))
        db.insert("EMP", (11, None))
        with pytest.raises(ReferentialViolation):
            db.insert("EMP", (12, 99))

    def test_foreign_key_enforced_on_delete(self):
        db = Database()
        db.create_table("DEPT", ["D#"], constraints=[KeyConstraint(["D#"])])
        db.create_table("EMP", ["E#", "DEPT#"])
        db.insert("DEPT", (1,))
        db.insert("DEPT", (2,))
        db.add_foreign_key("EMP", ForeignKeyConstraint(["DEPT#"], "DEPT", ["D#"]))
        db.insert("EMP", (10, 1))
        with pytest.raises(ReferentialViolation):
            db.delete("DEPT", (1,))
        assert db.delete("DEPT", (2,)) == 1

    def test_drop_referenced_table_rejected(self):
        db = Database()
        db.create_table("DEPT", ["D#"])
        db.create_table("EMP", ["E#", "DEPT#"])
        db.add_foreign_key("EMP", ForeignKeyConstraint(["DEPT#"], "DEPT", ["D#"]))
        with pytest.raises(StorageError):
            db.drop_table("DEPT")
        db.drop_table("EMP")

    def test_snapshot_and_restore(self, emp_db):
        snapshot = emp_db.snapshot()
        emp_db.insert("EMP", (9999, "TEMP", "M", None, None))
        assert len(emp_db["EMP"]) == 6
        emp_db.restore(snapshot)
        assert len(emp_db["EMP"]) == 5

    def test_update_through_database(self, emp_db):
        smith = emp_db.table("EMP").lookup(["E#"], [1120])[0]
        new_row = smith.as_dict()
        new_row["TEL#"] = 2630001
        emp_db.update("EMP", smith, new_row)
        assert emp_db.table("EMP").lookup(["E#"], [1120])[0]["TEL#"] == 2630001

    def test_xrelation_view(self, emp_db):
        assert isinstance(emp_db.xrelation("EMP"), XRelation)


class TestIndexManagement:
    """Order-insensitive index matching and snapshot round-trips."""

    @pytest.fixture
    def table(self) -> Table:
        table = Table(["A", "B", "C"], name="T")
        table.insert_many([(1, 2, 3), (1, 5, 6), (7, 2, 9), (None, 2, 1)])
        return table

    def test_lookup_uses_index_declared_in_other_order(self, table):
        table.create_index(["B", "A"])
        # No scan-order dependence: the set {A, B} matches the (B, A)
        # index, with the probe values permuted into its key order.
        hits = table.lookup(["A", "B"], [1, 2])
        assert [r["C"] for r in hits] == [3]
        assert table.lookup(["B", "A"], [2, 1]) == hits

    def test_find_index_matches_attribute_set(self, table):
        index = table.create_index(["C", "A"])
        assert table.find_index(["A", "C"]) is index
        assert table.find_index(["A"]) is None
        assert table.find_index(["A", "A"]) is None  # duplicates never match

    def test_drop_index_by_attributes(self, table):
        table.create_index(["B", "A"], name="ba")
        table.drop_index(["A", "B"])
        assert table.indexes == {}
        with pytest.raises(StorageError):
            table.drop_index(["A", "B"])

    def test_drop_index_by_name_still_works(self, table):
        table.create_index(["A"], name="ia")
        table.drop_index("ia")
        assert table.indexes == {}
        with pytest.raises(StorageError):
            table.drop_index("ia")

    def test_snapshot_round_trips_indexes(self):
        db = Database("snap")
        table = db.create_table("T", ["A", "B"])
        table.insert_many([(1, 2), (3, 4)])
        table.create_index(["A"], name="ia")
        snapshot = db.snapshot()
        # Mutate the index set after the snapshot: drop one, add another.
        table.drop_index("ia")
        table.create_index(["B"], name="ib")
        db.insert("T", (5, 6))
        db.restore(snapshot)
        assert set(table.indexes) == {"ia"}
        assert table.indexes["ia"].attributes == ("A",)
        # The recreated index is live over the restored rows.
        assert len(table.lookup(["A"], [1])) == 1
        assert len(db["T"]) == 2

    def test_catalog_index_specs(self):
        catalog = Catalog()
        table = catalog.create_table("T", ["A", "B"])
        table.create_index(["B", "A"], name="ba")
        assert catalog.index_specs() == {"T": {"ba": ("B", "A")}}


class TestSnapshotRestore:
    def test_snapshot_carries_statistics(self):
        # Regression: restore() used to re-ANALYZE from the restored rows,
        # silently replacing the snapshot-time statistics profile.
        db = Database("stats")
        table = db.create_table("T", ["A", "B"])
        table.insert_many([(i, i % 3) for i in range(20)])
        table.analyze()
        expected = table.statistics.copy()
        snapshot = db.snapshot()
        table.insert_many([(i, 7) for i in range(100, 160)])
        table.analyze()
        assert table.statistics != expected
        db.restore(snapshot)
        assert table.statistics == expected


class TestSchemaEvolution:
    def test_add_attribute_is_information_preserving(self):
        table = Table(["E#", "NAME"], name="EMP")
        table.insert_many([(1, "ann"), (2, "bob")])
        before = table.as_xrelation()
        report = add_attribute(table, "TEL#")
        assert report.information_preserved
        assert "TEL#" in table.schema.attributes
        assert table.as_xrelation() == before

    def test_add_attribute_with_default_adds_information(self):
        table = Table(["E#"], name="EMP")
        table.insert((1,))
        before = table.as_xrelation()
        report = add_attribute(table, "COUNTRY", default="US")
        assert report.information_preserved  # still subsumes the old content
        assert table.as_xrelation() > before

    def test_add_existing_attribute_rejected(self):
        table = Table(["E#"], name="EMP")
        with pytest.raises(SchemaError):
            add_attribute(table, "E#")

    def test_drop_null_only_attribute_preserves_information(self):
        table = Table(["E#", "TEL#"], name="EMP")
        table.insert_many([(1, None), (2, None)])
        report = drop_attribute(table, "TEL#")
        assert report.information_preserved

    def test_drop_populated_attribute_loses_information(self):
        table = Table(["E#", "TEL#"], name="EMP")
        table.insert_many([(1, 555)])
        report = drop_attribute(table, "TEL#")
        assert not report.information_preserved

    def test_cannot_drop_last_attribute(self):
        table = Table(["E#"], name="EMP")
        with pytest.raises(SchemaError):
            drop_attribute(table, "E#")

    def test_drop_indexed_attribute_rejected(self):
        table = Table(["E#", "TEL#"], name="EMP")
        table.create_index(["TEL#"])
        with pytest.raises(SchemaError):
            drop_attribute(table, "TEL#")

    def test_evolve_sequence(self):
        table = Table(["E#"], name="EMP")
        table.insert((1,))
        reports = evolve(table, [("add", "TEL#"), ("add", "FAX#"), ("drop", "FAX#")])
        assert len(reports) == 3
        assert all(r.information_preserved for r in reports)

    def test_evolve_unknown_operation(self):
        table = Table(["E#"], name="EMP")
        with pytest.raises(SchemaError):
            evolve(table, [("explode", "E#")])

    def test_paper_table_one_to_table_two(self, emp_table_one, emp_table_two):
        """Replay the Section 2 schema change and verify equivalence."""
        table = Table(emp_table_one.schema, name="EMP")
        table.insert_many(list(emp_table_one.tuples()))
        add_attribute(table, "TEL#")
        assert set(table.schema.attributes) == set(emp_table_two.schema.attributes)
        assert table.as_xrelation() == XRelation(emp_table_two)
