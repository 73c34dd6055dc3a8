"""Codd's extended relational algebra: TRUE and MAYBE operator versions.

Codd (1979) extends selection, join and division to relations with
"unknown" nulls by providing two versions of each operator:

* the **TRUE version** keeps the tuples whose qualification evaluates to
  TRUE under the three-valued logic;
* the **MAYBE version** keeps the tuples whose qualification evaluates to
  MAYBE — i.e. tuples that *might* satisfy it once the unknown values
  become known.

The paper observes (Section 1) that real systems only implement the TRUE
version because MAYBE answers are large and rarely useful;
``examples/codd_vs_zaniolo.py`` shows the MAYBE answer growing with null
density, and ``tests/test_codd_baseline.py`` pins that the TRUE version
keeps exactly the ni lower bound at every density.  This module also
provides the classical (null-free) operators ``codd_union`` /
``codd_difference`` / ``codd_product`` / ``codd_project`` /
``codd_select`` with their classical union-compatibility preconditions,
which the Section 7 correspondence
(``tests/test_paper_examples.py::TestE9CoddCorrespondence``) runs against
the generalised operators.

All functions here operate on plain :class:`~repro.core.relation.Relation`
objects (representations), never on x-relations: the whole point of the
baseline is that it manipulates tables, not equivalence classes.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from ..core.errors import AlgebraError, AttributeNotFound, UnionCompatibilityError
from ..core.nulls import is_null
from ..core.relation import Relation, RelationSchema
from ..core.tuples import XTuple
from .threevalued import CODD_TRUE, MAYBE, CoddTruth, codd_compare


# ---------------------------------------------------------------------------
# TRUE / MAYBE selection
# ---------------------------------------------------------------------------

def _select(relation: Relation, predicate: Callable[[XTuple], CoddTruth], wanted: CoddTruth, name: str) -> Relation:
    out = Relation(
        RelationSchema(relation.schema.attributes, relation.schema.domains(), name=name),
        validate=False,
    )
    out._rows = {r for r in relation.tuples() if predicate(r) == wanted}
    return out


def select_true(relation: Relation, attribute: str, op: str, constant: Any) -> Relation:
    """TRUE-version selection ``R[A θ k]``: keep tuples evaluating to TRUE."""
    if attribute not in relation.schema:
        raise AttributeNotFound(attribute, relation.schema.attributes)
    return _select(
        relation,
        lambda r: codd_compare(r[attribute], op, constant),
        CODD_TRUE,
        name=f"{relation.name}[{attribute}{op}{constant!r}]T",
    )


def select_maybe(relation: Relation, attribute: str, op: str, constant: Any) -> Relation:
    """MAYBE-version selection: keep tuples evaluating to MAYBE."""
    if attribute not in relation.schema:
        raise AttributeNotFound(attribute, relation.schema.attributes)
    return _select(
        relation,
        lambda r: codd_compare(r[attribute], op, constant),
        MAYBE,
        name=f"{relation.name}[{attribute}{op}{constant!r}]M",
    )


def select_attrs_true(relation: Relation, left: str, op: str, right: str) -> Relation:
    """TRUE-version selection ``R[A θ B]``."""
    relation.schema.require((left, right))
    return _select(
        relation,
        lambda r: codd_compare(r[left], op, r[right]),
        CODD_TRUE,
        name=f"{relation.name}[{left}{op}{right}]T",
    )


def select_attrs_maybe(relation: Relation, left: str, op: str, right: str) -> Relation:
    """MAYBE-version selection ``R[A θ B]``."""
    relation.schema.require((left, right))
    return _select(
        relation,
        lambda r: codd_compare(r[left], op, r[right]),
        MAYBE,
        name=f"{relation.name}[{left}{op}{right}]M",
    )


def select_predicate_true(relation: Relation, predicate: Callable[[XTuple], CoddTruth]) -> Relation:
    """TRUE-version selection with an arbitrary Codd-truth predicate."""
    return _select(relation, predicate, CODD_TRUE, name=f"{relation.name}[σ]T")


def select_predicate_maybe(relation: Relation, predicate: Callable[[XTuple], CoddTruth]) -> Relation:
    """MAYBE-version selection with an arbitrary Codd-truth predicate."""
    return _select(relation, predicate, MAYBE, name=f"{relation.name}[σ]M")


# ---------------------------------------------------------------------------
# TRUE / MAYBE join
# ---------------------------------------------------------------------------

def _product_rows(r1: Relation, r2: Relation) -> List[XTuple]:
    overlap = [a for a in r1.schema.attributes if a in r2.schema]
    if overlap:
        raise AlgebraError(
            f"Codd product requires disjoint attribute sets; both declare {overlap}"
        )
    rows: List[XTuple] = []
    for a in r1.tuples():
        for b in r2.tuples():
            rows.append(a.join(b))
    return rows


def codd_product(r1: Relation, r2: Relation) -> Relation:
    """Cartesian product of two relations (attribute sets must be disjoint)."""
    schema = r1.schema.union(r2.schema, name=f"({r1.name} × {r2.name})")
    out = Relation(schema, validate=False)
    out._rows = set(_product_rows(r1, r2))
    return out


def join_true(r1: Relation, r2: Relation, left: str, op: str, right: str) -> Relation:
    """TRUE-version θ-join: product followed by TRUE selection."""
    return select_attrs_true(codd_product(r1, r2), left, op, right)


def join_maybe(r1: Relation, r2: Relation, left: str, op: str, right: str) -> Relation:
    """MAYBE-version θ-join: product followed by MAYBE selection."""
    return select_attrs_maybe(codd_product(r1, r2), left, op, right)


def outer_join(r1: Relation, r2: Relation, left: str, right: str) -> Relation:
    """Codd's outer equi-join: the TRUE equi-join plus dangling rows padded with nulls.

    This is the classical outer join on ``left = right``; the paper's
    union-join (Section 5) is the ni-interpretation analogue.
    """
    inner = join_true(r1, r2, left, "=", right)
    schema = RelationSchema(
        inner.schema.attributes, inner.schema.domains(),
        name=f"({r1.name} ⟗ {r2.name})",
    )
    matched_left = {row.project(r1.schema.attributes) for row in inner.tuples()}
    matched_right = {row.project(r2.schema.attributes) for row in inner.tuples()}
    out = Relation(schema, validate=False)
    rows = set(inner.tuples())
    rows.update(r for r in r1.tuples() if r not in matched_left)
    rows.update(r for r in r2.tuples() if r not in matched_right)
    out._rows = rows
    return out


# ---------------------------------------------------------------------------
# Classical operators with classical preconditions (for the Section 7 correspondence)
# ---------------------------------------------------------------------------

def _require_union_compatible(r1: Relation, r2: Relation, operation: str) -> None:
    if not r1.schema.same_attributes(r2.schema):
        raise UnionCompatibilityError(
            f"{operation} requires union-compatible operands; "
            f"{r1.name} has {list(r1.schema.attributes)} and {r2.name} has {list(r2.schema.attributes)}"
        )


def codd_union(r1: Relation, r2: Relation) -> Relation:
    """Classical set union of union-compatible relations."""
    _require_union_compatible(r1, r2, "union")
    out = Relation(
        RelationSchema(r1.schema.attributes, r1.schema.domains(), name=f"({r1.name} ∪ {r2.name})"),
        validate=False,
    )
    out._rows = set(r1.tuples()) | set(r2.tuples())
    return out


def codd_difference(r1: Relation, r2: Relation) -> Relation:
    """Classical set difference of union-compatible relations."""
    _require_union_compatible(r1, r2, "difference")
    out = Relation(
        RelationSchema(r1.schema.attributes, r1.schema.domains(), name=f"({r1.name} − {r2.name})"),
        validate=False,
    )
    out._rows = set(r1.tuples()) - set(r2.tuples())
    return out


def codd_intersection(r1: Relation, r2: Relation) -> Relation:
    """Classical set intersection (derivable, provided for convenience)."""
    _require_union_compatible(r1, r2, "intersection")
    out = Relation(
        RelationSchema(r1.schema.attributes, r1.schema.domains(), name=f"({r1.name} ∩ {r2.name})"),
        validate=False,
    )
    out._rows = set(r1.tuples()) & set(r2.tuples())
    return out


def codd_project(relation: Relation, attributes: Sequence[str]) -> Relation:
    """Classical projection (duplicate elimination included)."""
    relation.schema.require(attributes)
    out = Relation(
        relation.schema.project(tuple(attributes), name=f"{relation.name}[{', '.join(attributes)}]"),
        validate=False,
    )
    out._rows = {r.project(attributes) for r in relation.tuples()}
    return out


def codd_select(relation: Relation, attribute: str, op: str, constant: Any) -> Relation:
    """Classical selection on a total relation (no third truth value arises)."""
    if relation.is_total():
        return select_true(relation, attribute, op, constant)
    raise AlgebraError("codd_select is defined for total relations; use select_true/select_maybe")
