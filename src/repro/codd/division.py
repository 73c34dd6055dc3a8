"""Codd's TRUE and MAYBE division, for the Section 6 comparison
(``tests/test_paper_examples.py::TestE6Division``).

The paper contrasts three readings of the query

    Q: find each supplier who supplies every part supplied by s2

over the PARTS-SUPPLIERS relation of display (6.6):

* Codd's TRUE division answers Q1 ("who, *for sure*, supplies every part
  which *may* be supplied by s2") and returns the empty set;
* Codd's MAYBE division answers Q2 ("who *may* be supplying every part
  supplied *for sure* by s2") and returns {s1, s2, s3};
* Zaniolo's division (``repro.core.algebra.divide``) answers Q3 ("who,
  for sure, supplies every part supplied for sure by s2") and returns
  {s1, s2}.

The TRUE answer exposes the paradox the paper highlights: "for sure, s2
does not supply all the parts s2 supplies".

Codd's divisions are implemented here directly from their quantifier
readings: a candidate Y-value ``y`` qualifies in the TRUE version when for
*every* divisor row ``z`` there is a dividend row matching ``(y, z)``
certainly (all comparisons TRUE), and in the MAYBE version when every
divisor row is matched at least possibly (TRUE or MAYBE) and the candidate
is not already in the TRUE answer.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..core.errors import AlgebraError
from ..core.relation import Relation, RelationSchema
from ..core.tuples import XTuple
from .threevalued import CODD_FALSE, CODD_TRUE, MAYBE, CoddTruth, codd_compare, conjunction


def _candidates(dividend: Relation, by: Sequence[str]) -> Set[XTuple]:
    """Distinct Y-total Y-values occurring in the dividend."""
    return {r.project(by) for r in dividend.tuples() if r.is_total_on(by)}


def _match_truth(row: XTuple, y: XTuple, by: Sequence[str], z: XTuple, z_attrs: Sequence[str]) -> CoddTruth:
    """Truth value of "row represents the pair (y, z)" in Codd's logic."""
    comparisons: List[CoddTruth] = []
    for attribute in by:
        comparisons.append(codd_compare(row[attribute], "=", y[attribute]))
    for attribute in z_attrs:
        comparisons.append(codd_compare(row[attribute], "=", z[attribute]))
    return conjunction(comparisons)


def _divisor_attrs(dividend: Relation, divisor: Relation, by: Sequence[str]) -> List[str]:
    attrs = [a for a in divisor.scope()]
    if not attrs:
        attrs = [a for a in divisor.schema.attributes if a in dividend.schema and a not in by]
    overlap = [a for a in attrs if a in by]
    if overlap:
        raise AlgebraError(f"divisor attributes {overlap} overlap the division attributes {list(by)}")
    for a in attrs:
        if a not in dividend.schema:
            raise AlgebraError(f"divisor attribute {a!r} does not appear in the dividend")
    return attrs


def _membership_truth(
    dividend: Relation, y: XTuple, by: Sequence[str], z: XTuple, z_attrs: Sequence[str]
) -> CoddTruth:
    """Best truth value, over dividend rows, of "(y, z) is in the dividend"."""
    best = CODD_FALSE
    for row in dividend.tuples():
        truth = _match_truth(row, y, by, z, z_attrs)
        if truth.is_true():
            return CODD_TRUE
        if truth.is_maybe():
            best = MAYBE
    return best


def divide_true(dividend: Relation, divisor: Relation, by: Sequence[str]) -> Relation:
    """Codd's TRUE division: every divisor row must be matched certainly."""
    by = tuple(by)
    dividend.schema.require(by)
    z_attrs = _divisor_attrs(dividend, divisor, by)
    schema = dividend.schema.project(by, name=f"({dividend.name} ÷T {divisor.name})")
    out = Relation(schema, validate=False)
    rows: Set[XTuple] = set()
    divisor_rows = list(divisor.tuples())
    for y in _candidates(dividend, by):
        if all(
            _membership_truth(dividend, y, by, z, z_attrs).is_true()
            for z in divisor_rows
        ):
            rows.add(y)
    out._rows = rows
    return out


def divide_maybe(dividend: Relation, divisor: Relation, by: Sequence[str]) -> Relation:
    """Codd's MAYBE division: every divisor row matched at least possibly.

    Candidates already in the TRUE answer are excluded, mirroring the
    TRUE/MAYBE partition of the selection operators.
    """
    by = tuple(by)
    dividend.schema.require(by)
    z_attrs = _divisor_attrs(dividend, divisor, by)
    schema = dividend.schema.project(by, name=f"({dividend.name} ÷M {divisor.name})")
    sure = set(divide_true(dividend, divisor, by).tuples())
    out = Relation(schema, validate=False)
    rows: Set[XTuple] = set()
    divisor_rows = list(divisor.tuples())
    for y in _candidates(dividend, by):
        if y in sure:
            continue
        if all(
            not _membership_truth(dividend, y, by, z, z_attrs).is_false()
            for z in divisor_rows
        ):
            rows.add(y)
    out._rows = rows
    return out
