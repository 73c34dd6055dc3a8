"""Unit tests for the Codd (1979) baseline package."""

import pytest

from repro import NI, Relation, XTuple
from repro.codd import (
    CODD_FALSE,
    CODD_TRUE,
    CODD_TRUTH_VALUES,
    MAYBE,
    codd_compare,
    codd_difference,
    codd_intersection,
    codd_product,
    codd_project,
    codd_union,
    containment_truth,
    equality_truth,
    from_core_truth,
    intersection_contained_truth,
    join_maybe,
    join_true,
    null_sites,
    outer_join,
    select_maybe,
    select_true,
    substitution_truth,
    to_core_truth,
    union_contains_truth,
)
from repro.core.algebra import select_constant
from repro.core.errors import AlgebraError, UnionCompatibilityError
from repro.core.threevalued import FALSE, NI_TRUTH, TRUE
from repro.datagen import employee_relation


class TestCoddTruth:
    def test_singletons_and_predicates(self):
        assert CODD_TRUE.is_true() and MAYBE.is_maybe() and CODD_FALSE.is_false()
        assert bool(CODD_TRUE) and not bool(MAYBE)

    def test_connectives_match_kleene_tables(self):
        assert (CODD_TRUE & MAYBE) == MAYBE
        assert (CODD_FALSE & MAYBE) == CODD_FALSE
        assert (CODD_TRUE | MAYBE) == CODD_TRUE
        assert (CODD_FALSE | MAYBE) == MAYBE
        assert ~MAYBE == MAYBE

    def test_tables_coincide_cell_by_cell_with_table_iii(self):
        """Same truth tables as the ni logic of Table III; only the
        reading of the third value differs."""
        for a in CODD_TRUTH_VALUES:
            for b in CODD_TRUTH_VALUES:
                assert to_core_truth(a & b) == (to_core_truth(a) & to_core_truth(b))
                assert to_core_truth(a | b) == (to_core_truth(a) | to_core_truth(b))
            assert to_core_truth(~a) == ~to_core_truth(a)

    def test_comparison_with_null_is_maybe(self):
        assert codd_compare(NI, "=", 5) == MAYBE
        assert codd_compare(5, ">", None) == MAYBE
        assert codd_compare(5, ">", 4) == CODD_TRUE
        assert codd_compare(5, "<", 4) == CODD_FALSE

    def test_conversion_to_and_from_core(self):
        assert to_core_truth(MAYBE) == NI_TRUTH
        assert to_core_truth(CODD_TRUE) == TRUE
        assert from_core_truth(FALSE) == CODD_FALSE
        assert from_core_truth(NI_TRUTH) == MAYBE


class TestTrueMaybeSelection:
    @pytest.fixture
    def emp(self, emp_db):
        return emp_db["EMP"]

    def test_true_and_maybe_partition_qualifying_rows(self, emp):
        true_rows = select_true(emp, "TEL#", ">", 2630000)
        maybe_rows = select_maybe(emp, "TEL#", ">", 2630000)
        assert {t["NAME"] for t in true_rows.tuples()} == {"JONES", "ADAMS"}
        assert {t["NAME"] for t in maybe_rows.tuples()} == {"SMITH", "BROWN", "GREEN"}
        assert not (set(true_rows.tuples()) & set(maybe_rows.tuples()))

    def test_maybe_selectivity_grows_with_nulls(self, emp):
        """The practical complaint of Section 1: MAYBE answers are large."""
        assert len(select_maybe(emp, "TEL#", "=", 1)) >= 3
        assert len(select_true(emp, "TEL#", "=", 1)) == 0

    def test_true_selection_is_the_ni_lower_bound_at_every_null_rate(self):
        """Codd's TRUE selection keeps as many rows as the ni selection
        whatever the null density; only MAYBE grows with it."""
        for rate in (0.0, 0.2, 0.4, 0.6, 0.8):
            emp = employee_relation(80, null_rate=rate, seed=9)
            true_count = len(select_true(emp, "TEL#", ">", 2500000))
            assert true_count == len(select_constant(emp, "TEL#", ">", 2500000))
        assert len(select_maybe(emp, "TEL#", ">", 2500000)) > true_count

    def test_attribute_to_attribute_selection(self, emp):
        from repro.codd.algebra import select_attrs_maybe, select_attrs_true
        true_rows = select_attrs_true(emp, "E#", "<", "MGR#")
        maybe_rows = select_attrs_maybe(emp, "E#", "<", "MGR#")
        assert {t["NAME"] for t in true_rows.tuples()} == {"SMITH", "ADAMS"}
        # No row of the paper database is null on E# or MGR#, so nothing is MAYBE.
        assert len(maybe_rows) == 0


class TestJoinsAndClassicalOperators:
    def test_true_join_excludes_null_keys(self):
        left = Relation.from_rows(["A", "K"], [(1, "x"), (2, None)], name="L")
        right = Relation.from_rows(["KK", "B"], [("x", 10)], name="R")
        result = join_true(left, right, "K", "=", "KK")
        assert len(result) == 1

    def test_maybe_join_includes_null_keys(self):
        left = Relation.from_rows(["A", "K"], [(1, "x"), (2, None)], name="L")
        right = Relation.from_rows(["KK", "B"], [("x", 10)], name="R")
        result = join_maybe(left, right, "K", "=", "KK")
        assert {t["A"] for t in result.tuples()} == {2}

    def test_outer_join_keeps_dangling_rows(self):
        left = Relation.from_rows(["A", "K"], [(1, "x"), (2, "z")], name="L")
        right = Relation.from_rows(["KK", "B"], [("x", 10), ("w", 20)], name="R")
        result = outer_join(left, right, "K", "KK")
        assert any(t["A"] == 2 and t["B"] is NI for t in result.tuples())
        assert any(t["B"] == 20 and t["A"] is NI for t in result.tuples())

    def test_union_difference_require_compatibility(self):
        a = Relation.from_rows(["A"], [(1,)])
        b = Relation.from_rows(["B"], [(1,)])
        with pytest.raises(UnionCompatibilityError):
            codd_union(a, b)
        with pytest.raises(UnionCompatibilityError):
            codd_difference(a, b)
        with pytest.raises(UnionCompatibilityError):
            codd_intersection(a, b)

    def test_classical_set_semantics(self):
        a = Relation.from_rows(["A", "B"], [(1, 2), (3, 4)])
        b = Relation.from_rows(["A", "B"], [(3, 4), (5, 6)])
        assert len(codd_union(a, b)) == 3
        assert {t["A"] for t in codd_difference(a, b).tuples()} == {1}
        assert {t["A"] for t in codd_intersection(a, b).tuples()} == {3}

    def test_product_requires_disjoint_schemas(self):
        a = Relation.from_rows(["A"], [(1,)])
        with pytest.raises(AlgebraError):
            codd_product(a, a)

    def test_project(self):
        a = Relation.from_rows(["A", "B"], [(1, 2), (1, 3)])
        assert len(codd_project(a, ["A"])) == 1


class TestSubstitutionPrinciple:
    def test_null_sites_located(self, ps1, ps2):
        assert len(null_sites([ps1])) == 1
        assert len(null_sites([ps1, ps2])) == 2
        assert len(null_sites([ps2.minimal()])) == 1

    def test_containment_is_maybe(self, ps1, ps2):
        """Display (1.1)/(1.2): PS'' ⊇ PS' evaluates to MAYBE under Codd."""
        assert containment_truth(ps2, ps1) == MAYBE

    def test_self_equality_is_maybe(self, ps1):
        """PS' = PS' evaluates to MAYBE — the Section 1 surprise."""
        assert equality_truth(ps1, ps1) == MAYBE

    def test_union_and_intersection_claims(self, ps1, ps2):
        assert union_contains_truth(ps1, ps2, ps1) != CODD_TRUE
        assert intersection_contained_truth(ps1, ps2, ps1) != CODD_FALSE

    def test_total_relations_behave_classically(self, emp_table_one):
        assert containment_truth(emp_table_one, emp_table_one) == CODD_TRUE
        smaller = Relation.from_rows(
            ["E#", "NAME", "SEX", "MGR#"], [(1120, "SMITH", "M", 2235)], name="E1"
        )
        assert containment_truth(emp_table_one, smaller) == CODD_TRUE
        assert containment_truth(smaller, emp_table_one) == CODD_FALSE

    def test_substitution_space_cap(self, ps1):
        with pytest.raises(ValueError):
            substitution_truth(
                [ps1],
                lambda totals: True,
                domains={"P#": [f"p{i}" for i in range(100)]},
                max_substitutions=10,
            )

    def test_explicit_domains_are_respected(self, ps1, ps2):
        verdict = containment_truth(ps2, ps1, domains={"P#": ["p1", "p2"]})
        assert verdict == MAYBE
