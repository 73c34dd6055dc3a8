"""Property-based agreement between the dominance engine and the oracles.

Every engine-backed production path must agree *exactly* with the
definitional forms it replaced, over randomized relations of varying
schema width and null fraction:

* :func:`repro.core.engine.bulk_reduce` (behind ``Relation.minimal`` /
  ``reduce_rows``) ≡ :func:`repro.core.minimal.reduce_rows_naive`, and
  reducing the reduced parts of any split ≡ reducing the whole;
* :func:`repro.core.setops.difference` ≡ the nested-loop (4.8) form
  ``oracles.difference_naive``;
* :func:`repro.core.setops.x_intersection` ≡ the full-meet-product (4.7)
  form ``oracles.x_intersection_naive``, and its
  x-membership matches the definitional oracle
  :func:`repro.core.setops.x_membership_intersection` (Definition 4.2);
* union's x-membership matches :func:`x_membership_union` (4.1);
* ``Relation.subsumes`` / ``x_contains`` ≡ the all-rows/any-row scans of
  Definition 4.1 / Proposition 4.2;
* the storage layer's live :class:`DominanceIndex` tracks table mutations.

These are the "no semantic drift from Definitions 3.1 / 4.1–4.8"
guarantees the engine PR promises.
"""

from hypothesis import given, settings, strategies as st

from repro import Relation, XTuple
from repro.core.engine import DominanceIndex, bulk_reduce
from repro.core.minimal import reduce_rows, reduce_rows_naive
from repro.core.setops import (
    difference,
    union,
    x_intersection,
    x_membership_intersection,
    x_membership_union,
)
from repro.storage.table import Table

from oracles import difference_naive, x_intersection_naive


ATTRIBUTES = ("A", "B", "C", "D", "E")
#: None becomes ni, so null fraction varies freely with the draw.
VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


@st.composite
def xtuples(draw, attributes=ATTRIBUTES):
    data = {}
    for attribute in attributes:
        value = draw(VALUES)
        if value is not None:
            data[attribute] = value
    return XTuple(data)


@st.composite
def relations(draw, name="R"):
    """A relation over a random prefix of ATTRIBUTES with random rows."""
    width = draw(st.integers(min_value=1, max_value=len(ATTRIBUTES)))
    attributes = ATTRIBUTES[:width]
    rows = draw(st.lists(xtuples(attributes), max_size=14))
    relation = Relation(attributes, name=name, validate=False)
    for row in rows:
        relation.add(row)
    return relation


def same_width_pair():
    """Two relations over the same schema (for the set operations)."""
    return st.integers(min_value=1, max_value=len(ATTRIBUTES)).flatmap(
        lambda width: st.tuples(
            st.lists(xtuples(ATTRIBUTES[:width]), max_size=14),
            st.lists(xtuples(ATTRIBUTES[:width]), max_size=14),
            st.just(ATTRIBUTES[:width]),
        )
    )


def build(attributes, rows, name):
    relation = Relation(attributes, name=name, validate=False)
    for row in rows:
        relation.add(row)
    return relation


class TestMinimalFormAgreement:
    @given(st.lists(xtuples(), max_size=20))
    def test_bulk_reduce_matches_naive(self, rows):
        assert set(bulk_reduce(rows)) == set(reduce_rows_naive(rows))

    @given(st.lists(xtuples(), max_size=20))
    def test_dispatcher_matches_naive(self, rows):
        assert set(reduce_rows(rows)) == set(reduce_rows_naive(rows))

    @given(st.lists(st.tuples(xtuples(), st.integers(min_value=0, max_value=3)),
                    max_size=24))
    def test_reducing_reduced_parts_equals_reducing_the_whole(self, placed):
        """The partition lemma of Definition 4.6's minimal form: reduction
        only removes dominated rows and dominance is transitive, so for
        any split ``S = S1 ∪ … ∪ Sk``,
        ``reduce(reduce(S1) ∪ … ∪ reduce(Sk)) = reduce(S)``."""
        rows = [row for row, _ in placed]
        parts = [[row for row, part in placed if part == p] for p in range(4)]
        merged = [row for part in parts for row in bulk_reduce(part)]
        assert set(bulk_reduce(merged)) == set(bulk_reduce(rows))

    @given(relations())
    def test_minimal_relation_is_minimal_and_equivalent(self, relation):
        minimal = relation.minimal()
        assert minimal.is_minimal() or not minimal.tuples()
        assert minimal.equivalent_to(relation)


class TestSetOperationAgreement:
    @given(same_width_pair())
    def test_difference_matches_naive(self, pair):
        rows1, rows2, attributes = pair
        r1 = build(attributes, rows1, "L")
        r2 = build(attributes, rows2, "R")
        engine = difference(r1, r2)
        naive = difference_naive(r1, r2)
        assert engine.tuples() == naive.tuples()

    @given(same_width_pair())
    def test_difference_unminimised_matches_naive(self, pair):
        rows1, rows2, attributes = pair
        r1 = build(attributes, rows1, "L")
        r2 = build(attributes, rows2, "R")
        assert difference(r1, r2, minimize=False).tuples() == \
            difference_naive(r1, r2, minimize=False).tuples()

    @given(same_width_pair())
    def test_x_intersection_matches_naive(self, pair):
        rows1, rows2, attributes = pair
        r1 = build(attributes, rows1, "L")
        r2 = build(attributes, rows2, "R")
        engine = x_intersection(r1, r2)
        naive = x_intersection_naive(r1, r2)
        assert engine.tuples() == naive.tuples()

    # The membership oracles are compared on non-null candidates only:
    # reduction to minimal form deliberately drops the null tuple
    # (Definition 4.6 — it carries no information), so a relation like
    # {null} minimises to {} and literal Proposition-4.2 x-membership of
    # the null tuple is not preserved.  The seed implementations had the
    # identical boundary; it is a property of minimisation, not of the
    # engine routing.

    @given(same_width_pair(), st.lists(xtuples(), max_size=6))
    def test_x_intersection_matches_membership_oracle(self, pair, candidates):
        rows1, rows2, attributes = pair
        candidates = [c for c in candidates if not c.is_null_tuple()]
        r1 = build(attributes, rows1, "L")
        r2 = build(attributes, rows2, "R")
        result = x_intersection(r1, r2)
        oracle = x_membership_intersection(r1, r2, candidates)
        for candidate in candidates:
            assert result.x_contains(candidate) == (candidate in oracle)

    @given(same_width_pair(), st.lists(xtuples(), max_size=6))
    def test_union_matches_membership_oracle(self, pair, candidates):
        rows1, rows2, attributes = pair
        candidates = [c for c in candidates if not c.is_null_tuple()]
        r1 = build(attributes, rows1, "L")
        r2 = build(attributes, rows2, "R")
        result = union(r1, r2)
        oracle = x_membership_union(r1, r2, candidates)
        for candidate in candidates:
            assert result.x_contains(candidate) == (candidate in oracle)


class TestSubsumptionAgreement:
    @given(relations(), relations())
    def test_subsumes_matches_definition(self, r1, r2):
        expected = all(
            t.is_null_tuple() or any(r.more_informative_than(t) for r in r1.tuples())
            for t in r2.tuples()
        )
        assert r1.subsumes(r2) == expected

    @given(relations(), st.lists(xtuples(), max_size=6))
    def test_x_contains_matches_definition(self, relation, probes):
        relation.subsumes(relation)  # force the indexed probe path
        for probe in probes:
            expected = any(r.more_informative_than(probe) for r in relation.tuples())
            assert relation.x_contains(probe) == expected

    @given(st.lists(xtuples(), max_size=16), xtuples())
    def test_index_probes_match_definition(self, rows, probe):
        index = DominanceIndex(rows)
        unique = set(rows)
        assert set(index.probe_dominators(probe)) == {
            r for r in unique if r.more_informative_than(probe)
        }
        assert set(index.probe_dominated(probe)) == {
            r for r in unique if probe.more_informative_than(r)
        }


class TestTableLiveIndex:
    @given(st.lists(xtuples(("A", "B", "C")), max_size=10),
           st.lists(xtuples(("A", "B", "C")), max_size=4))
    @settings(max_examples=40)
    def test_live_index_tracks_mutations(self, inserts, deletes):
        table = Table(["A", "B", "C"], name="T")
        for row in inserts:
            if not row.is_null_tuple():
                table.insert(row)
        for target in deletes:
            # (4.8) deletion: removes exactly the rows the target subsumes.
            expected_removed = {
                r for r in table.rows() if target.more_informative_than(r)
            }
            removed = table.delete(target)
            assert removed == len(expected_removed)
        assert set(table.dominance.probe_dominators(XTuple())) == set(table.rows())
        for row in table.rows():
            assert table.x_contains(row)
