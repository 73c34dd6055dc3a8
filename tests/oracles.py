"""Nested-loop oracles the engine-backed set operations are checked against.

They are the pre-engine forms of (4.7) and (4.8): the full ``|R1| · |R2|``
meet product and the full dominance scan.  No production code calls them;
``tests/test_engine_properties.py`` asserts that
:func:`repro.core.setops.x_intersection` and
:func:`repro.core.setops.difference` agree with them exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.core.relation import Relation, RelationSchema
from repro.core.setops import _meet_product, _result_relation


def x_intersection_naive(r1: Relation, r2: Relation, minimize: bool = True, name: Optional[str] = None) -> Relation:
    """The pre-engine x-intersection: the full ``|R1| · |R2|`` meet product."""
    shared = [a for a in r1.schema.attributes if a in r2.schema]
    if shared:
        schema = r1.schema.project(shared, name=name or f"({r1.name} ∩̂ {r2.name})")
    else:
        schema = RelationSchema(r1.schema.attributes[:1], name=name or f"({r1.name} ∩̂ {r2.name})")
    return _result_relation(schema, _meet_product(r1, r2), schema.name, minimize)


def difference_naive(r1: Relation, r2: Relation, minimize: bool = True, name: Optional[str] = None) -> Relation:
    """The pre-engine difference: a nested ``|R1| · |R2|`` dominance scan."""
    schema = RelationSchema(
        r1.schema.attributes, r1.schema.domains(), name=name or f"({r1.name} − {r2.name})"
    )
    subtrahend = list(r2.tuples())
    rows = [
        r for r in r1.tuples()
        if not any(t.more_informative_than(r) for t in subtrahend)
    ]
    return _result_relation(schema, rows, schema.name, minimize)
