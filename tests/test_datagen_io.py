"""Unit tests for the data generators and the CSV/JSON round-trips."""

import io

import pytest

from repro import NI, Relation, XRelation, XTuple
from repro.datagen import (
    RelationGenerator,
    employee_relation,
    parts_suppliers_relation,
    random_partial_relation,
)
from repro.io import (
    from_csv_text,
    read_csv,
    relation_from_dict,
    relation_to_dict,
    to_csv_text,
    write_csv,
    write_json,
    read_json,
    database_to_dict,
    database_from_dict,
)


class TestGenerators:
    def test_relation_generator_respects_schema(self):
        generator = RelationGenerator(["A", "B"], {"A": [1, 2, 3], "B": ["x", "y"]}, seed=1)
        relation = generator.relation(20)
        assert set(relation.schema.attributes) == {"A", "B"}
        for row in relation.tuples():
            assert row["A"] in (1, 2, 3, NI)

    def test_relation_generator_is_deterministic(self):
        a = RelationGenerator(["A"], {"A": list(range(10))}, seed=5).relation(30)
        b = RelationGenerator(["A"], {"A": list(range(10))}, seed=5).relation(30)
        assert set(a.tuples()) == set(b.tuples())

    def test_missing_domain_rejected(self):
        with pytest.raises(KeyError):
            RelationGenerator(["A", "B"], {"A": [1]})

    def test_null_rate_controls_density(self):
        dense = random_partial_relation(["A", "B"], 5, 200, null_rate=0.0, seed=2)
        sparse = random_partial_relation(["A", "B"], 5, 200, null_rate=0.7, seed=2)
        assert dense.null_fraction() == 0.0
        # Duplicate null-heavy rows collapse (relations are sets), so compare
        # against the dense relation rather than the nominal rate.
        assert sparse.null_fraction() > dense.null_fraction()
        assert sparse.null_fraction() > 0.15

    def test_employee_relation_shape(self):
        emp = employee_relation(25, null_rate=0.4, seed=3)
        assert set(emp.schema.attributes) == {"E#", "NAME", "SEX", "MGR#", "TEL#"}
        assert len(emp) == 25
        assert all(row["E#"] is not NI for row in emp.tuples())

    def test_parts_suppliers_relation(self):
        ps = parts_suppliers_relation(4, 6, 50, null_rate=0.3, seed=1)
        assert set(ps.schema.attributes) == {"S#", "P#"}
        assert 0 < len(ps) <= 50


class TestCSV:
    def test_round_trip_preserves_information(self, emp_table_two):
        text = to_csv_text(emp_table_two)
        back = from_csv_text(text, name="EMP")
        assert XRelation(back) == XRelation(emp_table_two)

    def test_null_marker_is_dash(self, emp_table_two):
        assert ",-" in to_csv_text(emp_table_two).replace("\r", "")

    def test_numeric_columns_restored_as_ints(self, emp_table_two):
        back = from_csv_text(to_csv_text(emp_table_two))
        assert any(isinstance(row["E#"], int) for row in back.tuples())

    def test_explicit_type_parsers(self):
        text = "A,B\n01,x\n-,y\n"
        relation = from_csv_text(text, types={"A": str})
        values = {row["A"] for row in relation.tuples()}
        assert "01" in values  # kept as string, not parsed to 1

    def test_empty_cell_reads_as_null(self):
        relation = from_csv_text("A,B\n1,\n")
        row = next(iter(relation.tuples()))
        assert row["B"] is NI

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            from_csv_text("")

    def test_file_round_trip(self, tmp_path, emp_table_two):
        path = str(tmp_path / "emp.csv")
        write_csv(emp_table_two, path)
        assert XRelation(read_csv(path, name="EMP")) == XRelation(emp_table_two)


class TestJSON:
    def test_round_trip(self, ps):
        payload = relation_to_dict(ps)
        back = relation_from_dict(payload)
        assert XRelation(back) == XRelation(ps)
        assert back.schema.attributes == ps.schema.attributes

    def test_null_attributes_omitted_from_rows(self, emp_table_two):
        payload = relation_to_dict(emp_table_two)
        assert all("TEL#" not in row for row in payload["rows"])

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError):
            relation_from_dict({"rows": []})
        with pytest.raises(ValueError):
            relation_from_dict({"attributes": ["A"], "rows": [{"Z": 1}]})

    def test_file_round_trip(self, tmp_path, ps):
        path = str(tmp_path / "ps.json")
        write_json(ps, path)
        assert XRelation(read_json(path)) == XRelation(ps)

    def test_database_round_trip(self, emp_db):
        payload = database_to_dict(emp_db)
        rebuilt = database_from_dict(payload)
        assert set(rebuilt) == set(emp_db)
        assert XRelation(rebuilt["EMP"]) == XRelation(emp_db["EMP"])


class TestAtomicImports:
    """The ``*_into`` importers: atomic bulk loads into live tables.

    A malformed row or a constraint violation anywhere in the file must
    leave the target table exactly as it was — the import routes through
    ``Table.load`` / ``Database.insert_many``, never a row-at-a-time
    loop that could strand a prefix.
    """

    @staticmethod
    def _keyed_database():
        from repro.constraints.keys import KeyConstraint
        from repro.storage import Database

        database = Database("imports")
        table = database.create_table(
            "R", ["K", "V"], constraints=[KeyConstraint(["K"])]
        )
        table.insert_many([(1, "a"), (2, "b")])
        return database

    def test_csv_import_appends_atomically(self):
        from repro.io import read_csv_into

        database = self._keyed_database()
        count = read_csv_into(database, "R", io.StringIO("K,V\n3,c\n4,-\n"))
        assert count == 2
        assert XTuple({"K": 4}) in database["R"].tuples()

    def test_csv_import_key_violation_leaves_table_untouched(self):
        from repro.core.errors import ConstraintViolation
        from repro.io import read_csv_into

        database = self._keyed_database()
        before = set(database["R"].tuples())
        with pytest.raises(ConstraintViolation):
            # Row 3 is fine, row 1 collides with the stored key — without
            # the atomic path row 3 would be stranded.
            read_csv_into(database, "R", io.StringIO("K,V\n3,c\n1,dup\n"))
        assert database["R"].tuples() == before

    def test_csv_import_unknown_column_leaves_table_untouched(self):
        from repro.core.errors import SchemaError
        from repro.io import read_csv_into

        database = self._keyed_database()
        before = set(database["R"].tuples())
        with pytest.raises(SchemaError):
            read_csv_into(database, "R", io.StringIO("K,Z\n3,c\n"))
        assert database["R"].tuples() == before

    def test_csv_import_replace_swaps_wholesale(self):
        from repro.io import read_csv_into

        database = self._keyed_database()
        read_csv_into(database, "R", io.StringIO("K,V\n7,z\n"), replace=True)
        assert {t["K"] for t in database["R"].tuples()} == {7}

    def test_csv_import_respects_foreign_keys(self):
        from repro.constraints.referential import ForeignKeyConstraint
        from repro.core.errors import ReferentialViolation
        from repro.io import read_csv_into

        database = self._keyed_database()
        database.create_table("S", ["K2"])
        database.add_foreign_key(
            "S", ForeignKeyConstraint(["K2"], "R", ["K"])
        )
        before = set(database["S"].tuples())
        with pytest.raises(ReferentialViolation):
            read_csv_into(database, "S", io.StringIO("K2\n1\n99\n"))
        assert database["S"].tuples() == before

    def test_json_import_appends_atomically(self):
        from repro.io import read_json_into

        database = self._keyed_database()
        payload = io.StringIO('{"rows": [{"K": 3, "V": "c"}, {"K": 4}]}')
        assert read_json_into(database, "R", payload) == 2
        assert XTuple({"K": 4}) in database["R"].tuples()

    def test_json_import_violation_leaves_table_untouched(self):
        from repro.core.errors import ConstraintViolation
        from repro.io import read_json_into

        database = self._keyed_database()
        before = set(database["R"].tuples())
        payload = io.StringIO('{"rows": [{"K": 3}, {"K": 1}]}')
        with pytest.raises(ConstraintViolation):
            read_json_into(database, "R", payload)
        assert database["R"].tuples() == before

    def test_json_import_unknown_attribute_rejected_up_front(self):
        from repro.io import read_json_into

        database = self._keyed_database()
        before = set(database["R"].tuples())
        payload = io.StringIO('{"rows": [{"K": 3}, {"Z": 9}]}')
        with pytest.raises(ValueError):
            read_json_into(database, "R", payload)
        assert database["R"].tuples() == before
