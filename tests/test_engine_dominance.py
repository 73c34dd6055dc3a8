"""Unit tests for the dominance/containment engine (repro.core.engine)."""

import pytest

from repro import Relation, XTuple
from repro.core.engine import DominanceIndex, bulk_reduce, equi_join_rows, pair_candidates
from repro.core.minimal import reduce_rows_naive
from repro.core.nulls import MarkedNull, UnknownNull


def T(**kwargs):
    return XTuple(kwargs)


class TestDominanceIndexProbes:
    def test_probe_dominators_signature_superset(self):
        index = DominanceIndex([T(A=1, B=2), T(A=1), T(A=2, B=2), T(B=2, C=3)])
        dominators = index.probe_dominators(T(A=1))
        assert set(dominators) == {T(A=1), T(A=1, B=2)}

    def test_probe_dominators_strict_excludes_self(self):
        index = DominanceIndex([T(A=1, B=2), T(A=1)])
        assert set(index.probe_dominators(T(A=1), strict=True)) == {T(A=1, B=2)}

    def test_probe_dominators_requires_agreement(self):
        index = DominanceIndex([T(A=2, B=2)])
        assert index.probe_dominators(T(A=1)) == []

    def test_null_tuple_dominated_by_everything(self):
        rows = [T(A=1), T(B=2, C=3)]
        index = DominanceIndex(rows)
        assert set(index.probe_dominators(T())) == set(rows)

    def test_probe_dominated(self):
        index = DominanceIndex([T(A=1), T(B=2), T(A=1, B=2), T(A=3), T()])
        dominated = index.probe_dominated(T(A=1, B=2))
        assert set(dominated) == {T(A=1), T(B=2), T(A=1, B=2), T()}

    def test_probe_dominated_strict(self):
        index = DominanceIndex([T(A=1), T(A=1, B=2)])
        assert set(index.probe_dominated(T(A=1, B=2), strict=True)) == {T(A=1)}

    def test_has_dominator_matches_probe(self):
        rows = [T(A=1, B=2), T(B=2, C=1), T(A=2)]
        index = DominanceIndex(rows)
        for probe in [T(A=1), T(B=2), T(C=9), T(A=2), T(A=1, B=2, C=3)]:
            assert index.has_dominator(probe) == bool(index.probe_dominators(probe))

    def test_probes_agree_with_definition(self):
        rows = [T(A=1, B=2), T(A=1), T(B=2), T(A=2, C=3), T()]
        index = DominanceIndex(rows)
        probes = rows + [T(A=1, B=2, C=3), T(C=3), T(B=9)]
        for probe in probes:
            expected_dominators = {r for r in rows if r.more_informative_than(probe)}
            expected_dominated = {r for r in rows if probe.more_informative_than(r)}
            assert set(index.probe_dominators(probe)) == expected_dominators
            assert set(index.probe_dominated(probe)) == expected_dominated


class TestDominanceIndexMutation:
    def test_add_then_discard_roundtrip(self):
        index = DominanceIndex()
        row = T(A=1, B=2)
        index.add(row)
        assert len(index) == 1 and row in index
        assert index.discard(row)
        assert len(index) == 0 and row not in index
        assert not index.discard(row)

    def test_add_is_idempotent(self):
        index = DominanceIndex()
        index.add(T(A=1))
        index.add(T(A=1))
        assert len(index) == 1

    def test_mutation_invalidates_probe_caches(self):
        index = DominanceIndex([T(A=1)])
        assert not index.has_dominator(T(A=1), strict=True)
        index.add(T(A=1, B=2))  # arrives after the first probe built its caches
        assert index.has_dominator(T(A=1), strict=True)
        index.discard(T(A=1, B=2))
        assert not index.has_dominator(T(A=1), strict=True)

    def test_rebuild_and_clear(self):
        index = DominanceIndex([T(A=1)])
        index.rebuild([T(B=2), T(B=3)])
        assert len(index) == 2 and T(A=1) not in index
        index.clear()
        assert len(index) == 0


class TestBulkReduce:
    def test_matches_naive_on_mixed_rows(self):
        rows = [T(A=1, B=2), T(A=1), T(B=2), T(A=2), T(), T(A=1, B=2, C=3)]
        assert set(bulk_reduce(rows)) == set(reduce_rows_naive(rows))

    def test_drops_null_tuple(self):
        assert bulk_reduce([T()]) == []

    def test_empty(self):
        assert bulk_reduce([]) == []

    def test_single_signature_is_identity(self):
        rows = [T(A=1, B=1), T(A=2, B=2), T(A=3, B=1)]
        assert set(bulk_reduce(rows)) == set(rows)

    def test_wide_tuples_no_longer_special(self):
        attrs = [f"X{i}" for i in range(20)]
        wide = XTuple({a: 1 for a in attrs})
        narrow = XTuple({attrs[0]: 1})
        assert set(bulk_reduce([wide, narrow])) == {wide}


class TestPairCandidates:
    def test_yields_exactly_agreeing_pairs(self):
        left = [T(A=1, B=2), T(A=3)]
        right = [T(A=1, C=4), T(B=2), T(A=9)]
        pairs = set(pair_candidates(left, right))
        expected = {
            (l, r)
            for l in left
            for r in right
            if not l.meet(r).is_null_tuple()
        }
        assert pairs == expected

    def test_pairs_not_repeated_on_multi_agreement(self):
        left = [T(A=1, B=2)]
        right = [T(A=1, B=2, C=3)]
        assert list(pair_candidates(left, right)) == [(left[0], right[0])]

    def test_empty_sides(self):
        assert list(pair_candidates([], [T(A=1)])) == []
        assert list(pair_candidates([T(A=1)], [])) == []


class TestEquiJoinRows:
    def test_joins_equal_nonnull_values_only(self):
        left = [T(**{"l.A": 1}), T(**{"l.A": 2}), T(**{"l.B": 7})]  # last is null on l.A
        right = [T(**{"r.A": 1}), T(**{"r.A": 1, "r.B": 5}), T(**{"r.C": 9})]
        joined = equi_join_rows(left, right, "l.A", "r.A")
        assert set(joined) == {
            T(**{"l.A": 1, "r.A": 1}),
            T(**{"l.A": 1, "r.A": 1, "r.B": 5}),
        }

    def test_no_matches(self):
        assert equi_join_rows([T(**{"l.A": 1})], [T(**{"r.A": 2})], "l.A", "r.A") == []

    @pytest.mark.parametrize("null", [MarkedNull("m"), UnknownNull()])
    def test_stored_null_keys_join_nothing(self, null):
        """A marked or unknown null equals itself as a Python object, but
        an equality touching it is never TRUE (Section 5)."""
        left = [T(**{"l.A": null, "l.B": 1}), T(**{"l.A": 2, "l.B": 1})]
        right = [T(**{"r.A": null, "r.B": 1}), T(**{"r.A": 2, "r.B": 1})]
        assert equi_join_rows(left, right, "l.A", "r.A") == [
            T(**{"l.A": 2, "l.B": 1, "r.A": 2, "r.B": 1})
        ]
        composite = equi_join_rows(left, right, ["l.B", "l.A"], ["r.B", "r.A"])
        assert composite == [T(**{"l.A": 2, "l.B": 1, "r.A": 2, "r.B": 1})]


class TestEngineBackedRelationOps:
    def test_subsumes_uses_index_and_agrees(self):
        big = Relation.from_rows(["A", "B"], [(1, 2), (3, 4), (5, None)], name="big")
        small = Relation.from_rows(["A", "B"], [(1, None), (None, 4)], name="small")
        assert big.subsumes(small)
        assert not small.subsumes(big)

    def test_x_contains_after_subsumes_probe_path(self):
        r = Relation.from_rows(["A", "B"], [(1, 2), (3, None)])
        r.subsumes(r)  # builds the cached index
        assert r.x_contains(XTuple(A=1))
        assert not r.x_contains(XTuple(A=9))
        r.add((9, 9))  # mutation invalidates the cache
        assert r.x_contains(XTuple(A=9))

    def test_is_minimal_via_engine(self):
        assert Relation.from_rows(["A", "B"], [(1, 2), (3, 4)]).is_minimal()
        assert not Relation.from_rows(["A", "B"], [(1, 2), (1, None)]).is_minimal()
        assert not Relation.from_rows(["A", "B"], [(None, None)]).is_minimal()
