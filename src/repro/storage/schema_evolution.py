"""Schema evolution with no-information nulls (the Table I / Table II story).

Section 2 motivates the ``ni`` interpretation with a schema change: the
administrator adds a ``TEL#`` column before any telephone numbers are
collected.  Under the no-information reading the widened table carries
*exactly* the same information as the old one — the two are
information-wise equivalent — whereas under "unknown" or "nonexistent" the
new table would assert facts nobody gathered.

This module performs such changes on :class:`~repro.storage.table.Table`
objects and reports the information-theoretic consequences:

* :func:`add_attribute` — widen the schema; rows are untouched, and the
  result is equivalent to the original (asserted by
  ``tests/test_paper_examples.py::TestE2SchemaEvolution``, shown by
  ``examples/employee_schema_evolution.py``);
* :func:`drop_attribute` — narrow the schema by projection; this *can*
  lose information, and the returned report says whether it did;
* :func:`evolve` — apply a sequence of changes, accumulating reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..core.domains import Domain
from ..core.errors import SchemaError
from ..core.relation import Relation, RelationSchema
from ..core.xrelation import XRelation
from .table import Table


@dataclass
class EvolutionReport:
    """What a schema change did to the information content of a table."""

    operation: str
    table: str
    attribute: str
    information_preserved: bool
    rows_before: int
    rows_after: int
    details: str = ""

    def __str__(self) -> str:
        kept = "preserved" if self.information_preserved else "NOT preserved"
        return (
            f"{self.operation}({self.table}.{self.attribute}): information {kept} "
            f"({self.rows_before} → {self.rows_after} rows){'; ' + self.details if self.details else ''}"
        )


def add_attribute(
    table: Table,
    attribute: str,
    domain: Optional[Domain] = None,
    default=None,
) -> EvolutionReport:
    """Add *attribute* to the table's schema.

    With the default of ``None`` (i.e. ``ni``) the change is purely
    intensional: no row changes and the new table is information-wise
    equivalent to the old one.  Supplying a non-null *default* genuinely
    adds information (every row gains a fact), and the report says so.
    """
    if attribute in table.schema:
        raise SchemaError(f"attribute {attribute!r} already exists in table {table.name!r}")
    before = XRelation(table.relation.copy())
    rows_before = len(table.relation)
    domains = {attribute: domain} if domain is not None else None
    new_schema = table.schema.extend((attribute,), domains)
    new_relation = Relation(new_schema, validate=False)
    if default is None:
        new_relation._rows = set(table.relation.tuples())
    else:
        new_relation._rows = {
            row.extend({attribute: default}) for row in table.relation.tuples()
        }
    table.relation = new_relation
    table.dominance.rebuild(table.relation.tuples())
    for index in table.indexes.values():
        index.rebuild(table.relation.tuples())
    after = XRelation(table.relation.copy())
    preserved = after == before if default is None else after >= before
    return EvolutionReport(
        operation="add_attribute",
        table=table.name,
        attribute=attribute,
        information_preserved=bool(after >= before),
        rows_before=rows_before,
        rows_after=len(table.relation),
        details="equivalent to the original" if preserved and default is None else (
            "default value added new information" if default is not None else ""
        ),
    )


def drop_attribute(table: Table, attribute: str) -> EvolutionReport:
    """Remove *attribute* by projecting it away.

    The report's ``information_preserved`` flag is computed honestly: the
    drop preserves information iff the column held no non-null values (the
    projection is then equivalent to the original).
    """
    if attribute not in table.schema:
        raise SchemaError(f"attribute {attribute!r} does not exist in table {table.name!r}")
    if len(table.schema) == 1:
        raise SchemaError("cannot drop the last attribute of a table")
    before = XRelation(table.relation.copy())
    rows_before = len(table.relation)
    remaining = tuple(a for a in table.schema.attributes if a != attribute)
    new_schema = table.schema.project(remaining)
    new_relation = Relation(new_schema, validate=False)
    new_relation._rows = {row.project(remaining) for row in table.relation.tuples()}
    table.relation = new_relation
    table.dominance.rebuild(table.relation.tuples())
    for index in table.indexes.values():
        if attribute in index.attributes:
            raise SchemaError(
                f"index {index.name!r} uses attribute {attribute!r}; drop the index first"
            )
        index.rebuild(table.relation.tuples())
    after = XRelation(table.relation.copy())
    preserved = after == before
    return EvolutionReport(
        operation="drop_attribute",
        table=table.name,
        attribute=attribute,
        information_preserved=preserved,
        rows_before=rows_before,
        rows_after=len(table.relation),
        details="" if preserved else "non-null values were lost",
    )


def evolve(table: Table, changes: Sequence[Tuple[str, str]]) -> List[EvolutionReport]:
    """Apply a sequence of ``("add"|"drop", attribute)`` changes."""
    reports: List[EvolutionReport] = []
    for operation, attribute in changes:
        if operation == "add":
            reports.append(add_attribute(table, attribute))
        elif operation == "drop":
            reports.append(drop_attribute(table, attribute))
        else:
            raise SchemaError(f"unknown evolution operation {operation!r}")
    return reports
