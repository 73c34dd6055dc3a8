"""Unit tests for the Lien baseline (repro.lien)."""

import pytest

from repro import NI, Relation, XTuple
from repro.constraints import FunctionalDependency
from repro.core.errors import ConstraintViolation
from repro.core.nulls import NonexistentNull
from repro.lien import (
    MultivaluedDependency,
    complementation,
    dependency_basis,
    lien_join,
    lien_project,
    lien_select,
    mvd_implied,
)


class TestLienOperations:
    def test_select_coincides_with_codd_true_and_zaniolo(self, ps):
        from repro.codd import select_true
        from repro.core.algebra import select_constant

        lien = lien_select(ps, "S#", "=", "s1")
        codd = select_true(ps, "S#", "=", "s1")
        ours = select_constant(ps, "S#", "=", "s1")
        assert set(lien.tuples()) == set(codd.tuples())
        assert set(lien.tuples()) == set(ours.representation.minimal().tuples()) | {
            t for t in lien.tuples()
        }

    def test_select_discards_nonexistent_values(self):
        r = Relation.from_rows(["A", "B"], [(1, "x"), (None, "y")])
        assert len(lien_select(r, "A", ">", 0)) == 1

    def test_join_ignores_null_join_values(self):
        left = Relation.from_rows(["A", "K"], [(1, "k1"), (2, None)], name="L")
        right = Relation.from_rows(["K", "B"], [("k1", 10), (None, 20)], name="R")
        joined = lien_join(left, right, ["K"])
        assert len(joined) == 1
        assert XTuple(A=1, K="k1", B=10) in joined.tuples()

    def test_join_ignores_nonexistent_join_values(self):
        """A nonexistent value equals nothing, itself included — the rule
        ``lien_select`` already applies."""
        left = Relation.from_rows(["A", "K"], [(1, "k1"), (2, NonexistentNull())], name="L")
        right = Relation.from_rows(["K", "B"], [("k1", 10), (NonexistentNull(), 20)], name="R")
        assert set(lien_join(left, right, ["K"]).tuples()) == {XTuple(A=1, K="k1", B=10)}

    def test_join_agrees_with_core_equijoin(self, emp_db):
        from repro.core.algebra import join_on

        emp = emp_db["EMP"]
        left = Relation.from_rows(["MGR#", "TAG"], [(2235, "t1"), (9999, "t2")], name="L")
        lien = lien_join(left, emp, ["MGR#"])
        core = join_on(left, emp, ["MGR#"])
        assert {t.items() for t in lien.tuples()} == {t.items() for t in core.rows()}

    def test_project(self):
        r = Relation.from_rows(["A", "B"], [(1, "x"), (1, "y")])
        assert len(lien_project(r, ["A"])) == 1


class TestMultivaluedDependencies:
    def test_classical_satisfaction(self):
        r = Relation.from_rows(
            ["C", "T", "B"],
            [
                ("db", "smith", "b1"), ("db", "smith", "b2"),
                ("db", "jones", "b1"), ("db", "jones", "b2"),
            ],
            name="CTB",
        )
        assert MultivaluedDependency(["C"], ["T"]).holds_total(r)

    def test_classical_violation(self):
        r = Relation.from_rows(
            ["C", "T", "B"],
            [("db", "smith", "b1"), ("db", "jones", "b2")],
            name="CTB",
        )
        assert not MultivaluedDependency(["C"], ["T"]).holds_total(r)

    def test_null_mvd_uses_x_membership(self):
        """A less-informative witness suffices under the null semantics."""
        r = Relation.from_rows(
            ["C", "T", "B"],
            [("db", "smith", "b1"), ("db", "jones", "b2"),
             ("db", "smith", "b2"), ("db", "jones", None)],
            name="CTB",
        )
        mvd = MultivaluedDependency(["C"], ["T"])
        assert not mvd.holds_total(r)      # (db, jones, b1) is missing outright
        assert not mvd.holds_with_nulls(r) # ... and not even x-present

        richer = Relation.from_rows(
            ["C", "T", "B"],
            [("db", "smith", "b1"), ("db", "jones", "b2"),
             ("db", "smith", "b2"), ("db", "jones", "b1")],
            name="CTB",
        )
        assert mvd.holds_with_nulls(richer)

    def test_rows_with_null_determinant_do_not_constrain(self):
        r = Relation.from_rows(
            ["C", "T", "B"],
            [(None, "smith", "b1"), (None, "jones", "b2")],
            name="CTB",
        )
        assert MultivaluedDependency(["C"], ["T"]).holds_with_nulls(r)

    def test_check_raises_on_violation(self):
        r = Relation.from_rows(
            ["C", "T", "B"], [("db", "smith", "b1"), ("db", "jones", "b2")], name="CTB"
        )
        with pytest.raises(ConstraintViolation):
            MultivaluedDependency(["C"], ["T"]).check(r)

    def test_empty_determinant_rejected(self):
        with pytest.raises(ConstraintViolation):
            MultivaluedDependency([], ["A"])


class TestInferenceRules:
    UNIVERSE = ["C", "T", "B"]

    def test_complementation(self):
        mvd = MultivaluedDependency(["C"], ["T"])
        complement = complementation(mvd, self.UNIVERSE)
        assert set(complement.dependent) == {"B"}

    def test_dependency_basis_partitions_the_rest(self):
        basis = dependency_basis(["C"], self.UNIVERSE, [MultivaluedDependency(["C"], ["T"])])
        blocks = {frozenset(b) for b in basis}
        assert frozenset({"T"}) in blocks
        assert frozenset({"B"}) in blocks

    def test_implication_by_complementation(self):
        mvds = [MultivaluedDependency(["C"], ["T"])]
        assert mvd_implied(mvds, [], MultivaluedDependency(["C"], ["B"]), self.UNIVERSE)

    def test_reflexivity_implied(self):
        assert mvd_implied([], [], MultivaluedDependency(["C"], ["C"]), self.UNIVERSE)

    def test_fd_promotes_to_mvd(self):
        fds = [FunctionalDependency(["C"], ["T"])]
        assert mvd_implied([], fds, MultivaluedDependency(["C"], ["T"]), self.UNIVERSE)

    def test_non_implied_mvd(self):
        mvds = [MultivaluedDependency(["C"], ["T"])]
        assert not mvd_implied(mvds, [], MultivaluedDependency(["T"], ["B"]), self.UNIVERSE)
