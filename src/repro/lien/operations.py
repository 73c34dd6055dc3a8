"""The Lien (1979) baseline: operations under the "nonexistent" interpretation.

Section 1 of the paper summarises Lien's treatment: a null means the value
*does not exist*, and the proposed select and join operations "basically
coincide with the TRUE version of Codd's operations" — a nonexistent value
satisfies no comparison (the same footnote-7 policy the ni interpretation
adopts for its lower bound).  The value of having the baseline explicit is
that the equivalence can be tested rather than asserted: for every
relation and predicate, Lien selection == Codd TRUE selection == Zaniolo
lower-bound selection on the same representation (integration test
``test_baseline_agreement``).

Lien's genuinely distinct contribution is the theory of multivalued
dependencies with nulls, implemented in :mod:`repro.lien.mvd`.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..core.nulls import is_null
from ..core.relation import Relation, RelationSchema
from ..core.threevalued import comparison_function
from ..core.tuples import XTuple


def _satisfies(left: Any, op: str, right: Any) -> bool:
    """Two-valued comparison where any null operand fails the comparison."""
    if is_null(left) or is_null(right):
        return False
    func = comparison_function(op)
    try:
        return bool(func(left, right))
    except TypeError:
        return op in ("!=", "<>", "≠")


def lien_select(relation: Relation, attribute: str, op: str, constant: Any) -> Relation:
    """Selection under the nonexistent interpretation (coincides with TRUE selection)."""
    relation.schema.require((attribute,))
    out = Relation(
        RelationSchema(relation.schema.attributes, relation.schema.domains(),
                       name=f"{relation.name}[{attribute}{op}{constant!r}]L"),
        validate=False,
    )
    out._rows = {r for r in relation.tuples() if _satisfies(r[attribute], op, constant)}
    return out


def _exists_on(row: XTuple, attributes: Sequence[str]) -> bool:
    """Whether *row* has an existing value on every attribute: a null of
    any kind, a nonexistent one included, takes the row out of the join
    (``is_total_on`` tests only for ``ni``)."""
    return not any(is_null(row[a]) for a in attributes)


def lien_join(r1: Relation, r2: Relation, on: Sequence[str]) -> Relation:
    """Natural (equi-)join on *on* under the nonexistent interpretation.

    Rows with a nonexistent join value cannot participate: a value that
    does not exist equals nothing, so only rows total on the join
    attributes and agreeing on them combine.
    """
    on = tuple(on)
    r1.schema.require(on)
    r2.schema.require(on)
    schema = r1.schema.union(r2.schema, name=f"({r1.name} ⋈L {r2.name})")
    out = Relation(schema, validate=False)
    buckets = {}
    for row in r2.tuples():
        if _exists_on(row, on):
            buckets.setdefault(row.project(on), []).append(row)
    rows: List[XTuple] = []
    for row in r1.tuples():
        if not _exists_on(row, on):
            continue
        for other in buckets.get(row.project(on), ()):  # agree on `on`
            if row.joinable_with(other):
                rows.append(row.join(other))
    out._rows = set(rows)
    return out


def lien_project(relation: Relation, attributes: Sequence[str]) -> Relation:
    """Projection; duplicate (and only duplicate) rows collapse."""
    relation.schema.require(attributes)
    out = Relation(relation.schema.project(tuple(attributes)), validate=False)
    out._rows = {r.project(attributes) for r in relation.tuples()}
    return out
