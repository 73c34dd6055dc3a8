"""Generalised set operations on relations with nulls (Section 4).

The paper defines union, x-intersection and difference of x-relations via
x-membership — definitions (4.1)–(4.3) — and then gives the efficient,
representation-level reformulations (4.6)–(4.8):

* ``R1 ∪ R2   = {r | r ∈ R1 or r ∈ R2}``                       (4.6)
* ``R1 ∩̂ R2  = {r1 ∧ r2 | r1 ∈ R1 and r2 ∈ R2}``              (4.7)
* ``R1 − R2   = {r | r ∈ R1 and ∀t ∈ R2 : ¬(t ≥ r)}``          (4.8)

This module implements both the definitional forms (used by tests as an
oracle) and the efficient forms (the production code path), always on
representations (:class:`~repro.core.relation.Relation`); the x-relation
wrapper in :mod:`repro.core.xrelation` delegates here.

The production paths route through the dominance engine
(:mod:`repro.core.engine`) — the "combinatorial hashing" the paper points
at after (4.8):

* :func:`difference` indexes the subtrahend once in a
  :class:`~repro.core.engine.DominanceIndex` and answers the universal
  quantification with one signature-superset probe per minuend row;
* :func:`x_intersection` (when minimising, the default) enumerates only
  the row pairs that agree on at least one bound item via
  :func:`~repro.core.engine.pair_candidates` — every other pair meets to
  the null tuple, which reduction drops anyway — instead of the full
  ``|R1| · |R2|`` meet product.

The pre-engine nested-loop forms live beside the tests as oracles
(``tests/oracles.py``); ``tests/test_engine_properties.py`` asserts exact
agreement with them.

The result schema follows the scope remarks after (4.8): a union's schema
is the union of the operand schemas; an x-intersection's and a
difference's schemas are, respectively, the schema intersection and the
minuend's schema (supersets of the true scopes, which is harmless because
x-relations do not carry a fixed attribute set).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .engine.dominance import DominanceIndex
from .engine.joins import meet_candidates
from .minimal import reduce_rows
from .relation import Relation, RelationSchema
from .tuples import XTuple


def _result_relation(schema: RelationSchema, rows: Iterable[XTuple], name: str, minimize: bool) -> Relation:
    out = Relation(schema, name=name, validate=False)
    out._rows = set(reduce_rows(rows)) if minimize else set(rows)
    return out


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------

def union(r1: Relation, r2: Relation, minimize: bool = True, name: Optional[str] = None) -> Relation:
    """The generalised union (4.6): simply pool the representatives.

    Unlike the classical union, no union-compatibility precondition is
    needed — closure over arbitrary operands is the point of Section 7.
    When *minimize* is true (the default) the result is reduced to minimal
    form, since pooling two minimal relations can create subsumed rows.
    """
    schema = r1.schema.union(r2.schema, name=name or f"({r1.name} ∪ {r2.name})")
    return _result_relation(schema, list(r1.tuples()) + list(r2.tuples()), schema.name, minimize)


# ---------------------------------------------------------------------------
# x-intersection
# ---------------------------------------------------------------------------

def x_intersection(r1: Relation, r2: Relation, minimize: bool = True, name: Optional[str] = None) -> Relation:
    """The x-intersection (4.7): pairwise meets of the representatives.

    The x-intersection is the greatest lower bound in the lattice of
    x-relations; note it is *not* plain set intersection — the Section 7
    example with ``{(a,b1)}`` and ``{(a,b2)}`` yields the tuple ``(a, -)``.
    """
    shared = [a for a in r1.schema.attributes if a in r2.schema]
    if shared:
        schema = r1.schema.project(shared, name=name or f"({r1.name} ∩̂ {r2.name})")
    else:
        # Disjoint schemas: every meet is the null tuple, so the result is
        # (equivalent to) the empty x-relation; keep the minuend's first
        # attribute so the schema stays well formed.
        schema = RelationSchema(r1.schema.attributes[:1], name=name or f"({r1.name} ∩̂ {r2.name})")
    if minimize:
        # Engine path: only pairs agreeing on some bound item can meet to a
        # non-null tuple, and the null tuple never survives reduction.
        meets: Iterable[XTuple] = meet_candidates(r1.tuples(), r2.tuples())
        return _result_relation(schema, meets, schema.name, True)
    return _result_relation(schema, _meet_product(r1, r2), schema.name, False)


def _meet_product(r1: Relation, r2: Relation) -> set:
    """The full pairwise meet product of (4.7) — the definitional form.

    Accumulated as a set: the meets of a large product collapse heavily,
    and the result relation stores a set of rows anyway.
    """
    meets: set = set()
    for a in r1.tuples():
        for b in r2.tuples():
            meets.add(a.meet(b))
    return meets


# ---------------------------------------------------------------------------
# Difference
# ---------------------------------------------------------------------------

def difference(r1: Relation, r2: Relation, minimize: bool = True, name: Optional[str] = None) -> Relation:
    """The generalised difference (4.8).

    A row of the minuend survives iff **no** row of the subtrahend is more
    informative than it.  Note the universal quantification: the paper
    points out (Section 6, query Q4) that difference carries a "for sure"
    universal flavour under incomplete information.

    The subtrahend is indexed once in a
    :class:`~repro.core.engine.DominanceIndex`; each minuend row then costs
    one signature-superset probe instead of a scan of the subtrahend.
    """
    schema = RelationSchema(
        r1.schema.attributes, r1.schema.domains(), name=name or f"({r1.name} − {r2.name})"
    )
    subtrahend = DominanceIndex(r2.tuples())
    rows = [r for r in r1.tuples() if not subtrahend.has_dominator(r)]
    return _result_relation(schema, rows, schema.name, minimize)


# ---------------------------------------------------------------------------
# Definitional (oracle) forms, used by the test suite
# ---------------------------------------------------------------------------

def x_membership_union(r1: Relation, r2: Relation, candidates: Iterable[XTuple]) -> List[XTuple]:
    """Definition (4.1) restricted to a finite candidate set.

    The definitional union is "every tuple x-belonging to either operand";
    that set is infinite downward-closed, so the oracle form takes an
    explicit candidate pool and returns the ones that satisfy the
    definition.  Tests compare against :func:`union` via x-membership.
    """
    return [t for t in candidates if r1.x_contains(t) or r2.x_contains(t)]


def x_membership_intersection(r1: Relation, r2: Relation, candidates: Iterable[XTuple]) -> List[XTuple]:
    """Definition (4.2) restricted to a finite candidate set."""
    return [t for t in candidates if r1.x_contains(t) and r2.x_contains(t)]


def x_membership_difference(r1: Relation, r2: Relation, candidates: Iterable[XTuple]) -> List[XTuple]:
    """Definition (4.3) restricted to a finite candidate set."""
    return [t for t in candidates if r1.x_contains(t) and not r2.x_contains(t)]


# ---------------------------------------------------------------------------
# Classical (Codd) counterparts on total relations, used to verify the
# Section 7 correspondence (tests/test_paper_examples.py::TestE9CoddCorrespondence).
# ---------------------------------------------------------------------------

def classical_union(r1: Relation, r2: Relation) -> Relation:
    """Plain set union of two union-compatible total relations."""
    from ..codd.algebra import codd_union  # late import: baseline package
    return codd_union(r1, r2)


def classical_difference(r1: Relation, r2: Relation) -> Relation:
    """Plain set difference of two union-compatible total relations."""
    from ..codd.algebra import codd_difference
    return codd_difference(r1, r2)
