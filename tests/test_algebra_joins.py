"""Unit tests for product, θ-joins, equi-joins and the union-join."""

import pytest

from repro import NI, Relation, XRelation, XTuple
from repro.core.algebra import (
    join_on,
    product,
    rename,
    theta_join,
    union_join,
)
from repro.core.errors import AlgebraError, AttributeNotFound
from repro.core.nulls import MarkedNull, UnknownNull


@pytest.fixture
def employees():
    return Relation.from_rows(
        ["E#", "DEPT"],
        [(1, "sales"), (2, "eng"), (3, None)],
        name="E",
    )


@pytest.fixture
def departments():
    return Relation.from_rows(
        ["DNAME", "FLOOR"],
        [("sales", 1), ("eng", 2), ("ops", 3)],
        name="D",
    )


class TestProduct:
    def test_cardinality(self, employees, departments):
        result = product(employees, departments)
        assert len(result) == 9

    def test_rows_are_tuple_joins(self, employees, departments):
        result = product(employees, departments)
        assert XTuple({"E#": 1, "DEPT": "sales", "DNAME": "eng", "FLOOR": 2}) in result.rows()

    def test_null_rows_excluded(self, departments):
        with_null_row = Relation.from_rows(["E#", "DEPT"], [(None, None), (1, "x")], name="E")
        result = product(with_null_row, departments)
        assert len(result) == 3

    def test_overlapping_schemas_rejected(self, employees):
        other = Relation.from_rows(["DEPT", "FLOOR"], [("sales", 1)])
        with pytest.raises(AlgebraError):
            product(employees, other)

    def test_product_with_empty_is_empty(self, employees):
        assert len(product(employees, Relation.empty(["X"]))) == 0


class TestThetaJoin:
    def test_equality_theta_join(self, employees, departments):
        result = theta_join(employees, departments, "DEPT", "=", "DNAME")
        assert {t["E#"] for t in result.rows()} == {1, 2}

    def test_rows_with_null_join_column_excluded(self, employees, departments):
        result = theta_join(employees, departments, "DEPT", "=", "DNAME")
        assert 3 not in {t["E#"] for t in result.rows()}

    def test_inequality_join(self):
        left = Relation.from_rows(["A"], [(1,), (5,)], name="L")
        right = Relation.from_rows(["B"], [(3,), (None,)], name="R")
        result = theta_join(left, right, "A", "<", "B")
        assert {t["A"] for t in result.rows()} == {1}


class TestJoinOn:
    def test_basic_equijoin(self):
        left = Relation.from_rows(["A", "B"], [(1, "x"), (2, "y"), (3, None)], name="L")
        right = Relation.from_rows(["B", "C"], [("x", 10), ("y", 20), (None, 30)], name="R")
        result = join_on(left, right, ["B"])
        assert XTuple(A=1, B="x", C=10) in result.rows()
        assert XTuple(A=2, B="y", C=20) in result.rows()
        assert len(result) == 2

    def test_join_excludes_rows_not_total_on_join_columns(self):
        """The footnote-7 policy: a null join value joins with nothing."""
        left = Relation.from_rows(["A", "B"], [(1, None)], name="L")
        right = Relation.from_rows(["B", "C"], [(None, 1), ("x", 2)], name="R")
        assert len(join_on(left, right, ["B"])) == 0

    @pytest.mark.parametrize("null", [MarkedNull("m"), UnknownNull()])
    def test_stored_null_keys_join_like_theta_join(self, null):
        """``R1 (·K) R2`` is ``(R1 × R2)[K = K2]`` with the shared column
        kept once: a marked or unknown join value joins nothing under
        either operator, though the null object equals itself."""
        left = Relation.from_rows(["K", "A"], [(null, 1), (5, 2)], name="L")
        right = Relation.from_rows(["K", "B"], [(null, 3), (5, 4)], name="R")
        joined = join_on(left, right, ["K"])
        theta = theta_join(left, rename(right, {"K": "K2"}), "K", "=", "K2")
        assert set(joined.rows()) == {XTuple(K=5, A=2, B=4)}
        assert {row.project(["K", "A", "B"]) for row in theta.rows()} == set(joined.rows())

    def test_join_requires_join_attributes_on_both_sides(self):
        left = Relation.from_rows(["A"], [(1,)], name="L")
        right = Relation.from_rows(["B"], [(2,)], name="R")
        with pytest.raises(AttributeNotFound):
            join_on(left, right, ["B"])

    def test_extra_overlap_rejected(self):
        left = Relation.from_rows(["A", "B", "C"], [(1, 2, 3)], name="L")
        right = Relation.from_rows(["B", "C"], [(2, 3)], name="R")
        with pytest.raises(AlgebraError):
            join_on(left, right, ["B"])

    def test_empty_join_set_rejected(self):
        left = Relation.from_rows(["A"], [(1,)], name="L")
        with pytest.raises(AlgebraError):
            join_on(left, left, [])

    def test_multi_attribute_join(self):
        left = Relation.from_rows(["A", "B", "X"], [(1, 2, "l")], name="L")
        right = Relation.from_rows(["A", "B", "Y"], [(1, 2, "r"), (1, 3, "no")], name="R")
        result = join_on(left, right, ["A", "B"])
        assert len(result) == 1
        assert XTuple(A=1, B=2, X="l", Y="r") in result.rows()


class TestUnionJoin:
    def test_keeps_dangling_rows(self):
        """The information-preserving (outer) join of Section 5."""
        left = Relation.from_rows(["A", "B"], [(1, "x"), (2, "zzz")], name="L")
        right = Relation.from_rows(["B", "C"], [("x", 10), ("www", 20)], name="R")
        result = union_join(left, right, ["B"])
        assert XTuple(A=1, B="x", C=10) in result.rows()
        assert XTuple(A=2, B="zzz") in result.rows()
        assert XTuple(B="www", C=20) in result.rows()

    def test_matched_rows_are_subsumed_away(self):
        left = Relation.from_rows(["A", "B"], [(1, "x")], name="L")
        right = Relation.from_rows(["B", "C"], [("x", 10)], name="R")
        result = union_join(left, right, ["B"])
        assert len(result) == 1  # only the joined row survives minimisation

    def test_union_join_subsumes_both_operands(self):
        left = Relation.from_rows(["A", "B"], [(1, "x"), (2, "y")], name="L")
        right = Relation.from_rows(["B", "C"], [("x", 10), ("q", 5)], name="R")
        result = union_join(left, right, ["B"])
        assert result.contains(XRelation(left))
        assert result.contains(XRelation(right))

    def test_union_join_with_empty_side(self):
        left = Relation.from_rows(["A", "B"], [(1, "x")], name="L")
        right = Relation.empty(["B", "C"])
        result = union_join(left, right, ["B"])
        assert result == XRelation(left)

    def test_comparison_with_codd_outer_join(self):
        """Same information content as the classical outer join on this data."""
        from repro.codd.algebra import outer_join

        left = Relation.from_rows(["A", "B"], [(1, "x"), (2, "y")], name="L")
        right = Relation.from_rows(["BB", "C"], [("x", 10), ("z", 30)], name="R")
        classical = outer_join(left, right, "B", "BB")
        renamed = rename(right, {"BB": "B"})
        ours = union_join(left, renamed.representation, ["B"])
        assert ours.x_contains(XTuple(A=1, B="x", C=10))
        assert ours.x_contains(XTuple(A=2, B="y"))
        assert ours.x_contains(XTuple(B="z", C=30))
        # The classical outer join keeps the same facts (modulo column naming).
        assert any(t["A"] == 1 and t["C"] == 10 for t in classical.tuples())


class TestRenameForSelfJoins:
    def test_self_theta_join_via_rename(self, emp_db):
        emp = emp_db["EMP"]
        managers = rename(emp, {a: f"m.{a}" for a in emp.schema.attributes})
        result = theta_join(emp, managers, "MGR#", "=", "m.E#")
        pairs = {(t["NAME"], t["m.NAME"]) for t in result.rows()}
        assert ("SMITH", "JONES") in pairs
        assert ("GREEN", "ADAMS") in pairs
