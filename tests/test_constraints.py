"""Unit tests for integrity constraints (repro.constraints)."""

import pytest

from repro import NI, Relation, XTuple
from repro.constraints import (
    BindingConstraint,
    ForeignKeyConstraint,
    FunctionalDependency,
    KeyConstraint,
    NotNullConstraint,
    RowConstraint,
    as_detector_constraints,
    attribute_closure,
    candidate_keys,
    implies,
    is_superkey,
)
from repro.core.errors import (
    ConstraintViolation,
    KeyViolation,
    NotNullViolation,
    ReferentialViolation,
)


class TestNotNull:
    def test_accepts_nonnull_rows(self):
        NotNullConstraint(["A"]).check_row(XTuple(A=1))

    def test_rejects_null_rows(self):
        with pytest.raises(NotNullViolation):
            NotNullConstraint(["A"]).check_row(XTuple(B=2))

    def test_check_whole_relation(self):
        r = Relation.from_rows(["A", "B"], [(1, 2), (None, 3)])
        with pytest.raises(NotNullViolation):
            NotNullConstraint(["A"]).check(r)


class TestKeys:
    def test_unique_keys_pass(self):
        r = Relation.from_rows(["K", "V"], [(1, "a"), (2, "a")])
        KeyConstraint(["K"]).check(r)

    def test_duplicate_keys_rejected(self):
        r = Relation.from_rows(["K", "V"], [(1, "a"), (1, "b")])
        with pytest.raises(KeyViolation):
            KeyConstraint(["K"]).check(r)

    def test_null_key_rejected(self):
        """Entity integrity: a 'no information' key identifies nothing."""
        r = Relation.from_rows(["K", "V"], [(None, "a")])
        with pytest.raises(KeyViolation):
            KeyConstraint(["K"]).check(r)

    def test_check_insert_guards_duplicates(self):
        r = Relation.from_rows(["K", "V"], [(1, "a")])
        with pytest.raises(KeyViolation):
            KeyConstraint(["K"]).check_bulk_insert(r, [XTuple(K=1, V="zzz")])
        KeyConstraint(["K"]).check_bulk_insert(r, [XTuple(K=2, V="b")])

    def test_composite_key(self):
        r = Relation.from_rows(["A", "B", "V"], [(1, 1, "x"), (1, 2, "y")])
        KeyConstraint(["A", "B"]).check(r)
        with pytest.raises(KeyViolation):
            KeyConstraint(["A", "B"]).check_bulk_insert(r, [XTuple(A=1, B=2, V="clash")])


class TestFunctionalDependencies:
    def test_strong_satisfaction(self):
        r = Relation.from_rows(["E", "D", "M"], [(1, "d1", "m1"), (2, "d1", "m1")])
        assert FunctionalDependency(["D"], ["M"]).holds_strong(r)

    def test_strong_violation_detected(self):
        r = Relation.from_rows(["E", "D", "M"], [(1, "d1", "m1"), (2, "d1", "m2")])
        fd = FunctionalDependency(["D"], ["M"])
        assert not fd.holds_strong(r)
        assert len(fd.violations(r)) == 1
        with pytest.raises(ConstraintViolation):
            fd.check(r)

    def test_null_dependent_violates_strong_but_not_weak(self):
        r = Relation.from_rows(["E", "D", "M"], [(1, "d1", "m1"), (2, "d1", None)])
        fd = FunctionalDependency(["D"], ["M"])
        assert not fd.holds_strong(r)
        assert fd.holds_weak(r)

    def test_null_determinant_constrains_nothing(self):
        r = Relation.from_rows(["E", "D", "M"], [(1, None, "m1"), (2, None, "m2")])
        fd = FunctionalDependency(["D"], ["M"])
        assert fd.holds_strong(r)
        assert fd.holds_weak(r)

    def test_weak_violation(self):
        r = Relation.from_rows(["E", "D", "M"], [(1, "d1", "m1"), (2, "d1", "m2")])
        assert not FunctionalDependency(["D"], ["M"]).holds_weak(r)

    def test_check_insert(self):
        r = Relation.from_rows(["E", "D", "M"], [(1, "d1", "m1")])
        fd = FunctionalDependency(["D"], ["M"])
        fd.check_bulk_insert(r, [XTuple(E=2, D="d1", M="m1")])
        with pytest.raises(ConstraintViolation):
            fd.check_bulk_insert(r, [XTuple(E=3, D="d1", M="other")])

    def test_empty_sides_rejected(self):
        with pytest.raises(ConstraintViolation):
            FunctionalDependency([], ["A"])


class TestArmstrongMachinery:
    FDS = [
        FunctionalDependency(["A"], ["B"]),
        FunctionalDependency(["B"], ["C"]),
        FunctionalDependency(["C", "D"], ["E"]),
    ]

    def test_attribute_closure(self):
        assert attribute_closure(["A"], self.FDS) == frozenset({"A", "B", "C"})
        assert attribute_closure(["A", "D"], self.FDS) == frozenset({"A", "B", "C", "D", "E"})

    def test_implies(self):
        assert implies(self.FDS, FunctionalDependency(["A"], ["C"]))
        assert not implies(self.FDS, FunctionalDependency(["A"], ["E"]))

    def test_superkey_and_candidate_keys(self):
        universe = ["A", "B", "C", "D", "E"]
        assert is_superkey(["A", "D"], universe, self.FDS)
        assert not is_superkey(["A"], universe, self.FDS)
        keys = candidate_keys(universe, self.FDS)
        assert frozenset({"A", "D"}) in keys
        assert all(not frozenset({"A"}) == key for key in keys)


class TestForeignKeys:
    @pytest.fixture
    def departments(self):
        return Relation.from_rows(["D#", "DNAME"], [(1, "eng"), (2, "ops")], name="DEPT")

    @pytest.fixture
    def fk(self):
        return ForeignKeyConstraint(["DEPT#"], "DEPT", ["D#"])

    def test_matching_reference_passes(self, departments, fk):
        employees = Relation.from_rows(["E#", "DEPT#"], [(10, 1)], name="EMP")
        fk.check(employees, departments)

    def test_null_reference_passes(self, departments, fk):
        employees = Relation.from_rows(["E#", "DEPT#"], [(10, None)], name="EMP")
        fk.check(employees, departments)

    def test_dangling_reference_rejected(self, departments, fk):
        employees = Relation.from_rows(["E#", "DEPT#"], [(10, 99)], name="EMP")
        with pytest.raises(ReferentialViolation):
            fk.check(employees, departments)

    def test_partial_composite_reference_rejected(self, departments):
        fk = ForeignKeyConstraint(["X", "Y"], "DEPT", ["D#", "DNAME"])
        employees = Relation.from_rows(["E#", "X", "Y"], [(1, 1, None)], name="EMP")
        with pytest.raises(ReferentialViolation):
            fk.check(employees, departments)

    def test_mismatched_arity_rejected(self):
        with pytest.raises(ReferentialViolation):
            ForeignKeyConstraint(["A", "B"], "T", ["X"])

    def test_check_delete_restricts(self, departments, fk):
        employees = Relation.from_rows(["E#", "DEPT#"], [(10, 1)], name="EMP")
        with pytest.raises(ReferentialViolation):
            fk.check_bulk_delete(employees, [XTuple({"D#": 1, "DNAME": "eng"})], departments)
        fk.check_bulk_delete(employees, [XTuple({"D#": 2, "DNAME": "ops"})], departments)


class TestSchemaConstraints:
    def test_row_constraint(self):
        no_self_management = RowConstraint(
            "EMP", lambda row: row["E#"] != row["MGR#"] or row["MGR#"] is NI
        )
        no_self_management.check_row(XTuple({"E#": 1, "MGR#": 2}))
        no_self_management.check_row(XTuple({"E#": 1}))
        with pytest.raises(ConstraintViolation):
            no_self_management.check_row(XTuple({"E#": 1, "MGR#": 1}))

    def test_binding_constraint_ignores_missing_variables(self):
        constraint = BindingConstraint(["e", "m"], lambda b: b["e"]["A"] != b["m"]["A"])
        assert constraint({"e": XTuple(A=1)})  # m missing → vacuously true
        assert constraint({"e": XTuple(A=1), "m": XTuple(A=2)})
        assert not constraint({"e": XTuple(A=1), "m": XTuple(A=1)})

    def test_as_detector_constraints_adapts_row_constraints(self):
        row_constraint = RowConstraint("EMP", lambda row: row["A"] != 5)
        adapted = as_detector_constraints([row_constraint], {"e": "EMP", "o": "OTHER"})
        assert len(adapted) == 1
        assert adapted[0]({"e": XTuple(A=1), "o": XTuple(A=5)})
        assert not adapted[0]({"e": XTuple(A=5)})

    def test_as_detector_constraints_rejects_garbage(self):
        with pytest.raises(ConstraintViolation):
            as_detector_constraints([42])
