"""Referential integrity (foreign keys) in the presence of nulls.

The standard extension, which the paper's Section 8 endorses as
unproblematic: a foreign-key value must either be wholly null (the
no-information placeholder — nothing is being referenced) or match the key
of some row in the referenced relation.  Partially-null composite foreign
keys are rejected, matching the "match simple" rule.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Sequence, Tuple

from ..core.errors import ReferentialViolation
from ..core.nulls import is_ni
from ..core.relation import Relation
from ..core.tuples import XTuple


class ForeignKeyConstraint:
    """``referencing(attrs) → referenced(key_attrs)``."""

    def __init__(
        self,
        attributes: Sequence[str],
        referenced_relation: str,
        referenced_attributes: Sequence[str],
        name: Optional[str] = None,
    ):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.referenced_relation = referenced_relation
        self.referenced_attributes: Tuple[str, ...] = tuple(referenced_attributes)
        if len(self.attributes) != len(self.referenced_attributes):
            raise ReferentialViolation(
                "foreign key and referenced key must have the same number of attributes"
            )
        self.name = name or (
            f"fk({', '.join(self.attributes)}) -> "
            f"{referenced_relation}({', '.join(self.referenced_attributes)})"
        )

    # -- row-level checks ------------------------------------------------------
    def _classify(self, row: XTuple) -> str:
        null_count = sum(1 for a in self.attributes if is_ni(row[a]))
        if null_count == 0:
            return "total"
        if null_count == len(self.attributes):
            return "null"
        return "partial"

    def check_row(self, row: XTuple, referenced: Relation) -> None:
        kind = self._classify(row)
        if kind == "null":
            return
        if kind == "partial":
            raise ReferentialViolation(
                f"{self.name}: composite foreign key is partially null in {row!r}"
            )
        wanted = tuple(row[a] for a in self.attributes)
        for target in referenced.tuples():
            if all(
                not is_ni(target[ra]) and target[ra] == value
                for ra, value in zip(self.referenced_attributes, wanted)
            ):
                return
        raise ReferentialViolation(
            f"{self.name}: value {wanted!r} has no matching row in {referenced.name}"
        )

    # -- relation-level checks ----------------------------------------------------
    def check(self, referencing: Relation, referenced: Relation) -> None:
        for row in referencing.tuples():
            self.check_row(row, referenced)

    def check_bulk_insert(
        self, referencing: Relation, rows: Sequence[XTuple], referenced: Relation
    ) -> None:
        """Guard a batch of inserts, indexing the referenced keys once.

        Equivalent to :meth:`check_row` on each row in order while the
        batch is being inserted: for a *self*-referencing key
        (``referencing is referenced``) each staged row's referenced-key
        values become visible to the rows after it.
        """
        keys = set()
        for target in referenced.tuples():
            key = tuple(target[a] for a in self.referenced_attributes)
            if not any(is_ni(v) for v in key):
                keys.add(key)
        self_referencing = referencing is referenced
        for row in rows:
            kind = self._classify(row)
            if kind == "partial":
                raise ReferentialViolation(
                    f"{self.name}: composite foreign key is partially null in {row!r}"
                )
            if kind == "total":
                wanted = tuple(row[a] for a in self.attributes)
                if wanted not in keys:
                    raise ReferentialViolation(
                        f"{self.name}: value {wanted!r} has no matching row in {referenced.name}"
                    )
            if self_referencing:
                provided = tuple(row[a] for a in self.referenced_attributes)
                if not any(is_ni(v) for v in provided):
                    keys.add(provided)

    def check_bulk_delete(
        self,
        referencing: Relation,
        removed_rows: Sequence[XTuple],
        referenced: Relation,
        exclude: AbstractSet[XTuple] = frozenset(),
    ) -> None:
        """Guard a batch of deletes from the *referenced* relation
        (restrict semantics), indexing the referencing keys once.

        One pass over the referencing relation builds the key index, then
        each removed row is a single dict probe — O(|referencing| +
        |batch|) instead of a full referencing scan per removed row.

        *exclude* names referencing rows that this same batch removes (the
        self-referencing-key case): a reference only restricts a delete if
        the referencing row *survives* the batch, so a batch may delete a
        row together with everything that references it — the deferred
        reading of restrict semantics.
        """
        holders = {}
        for row in referencing.tuples():
            if row in exclude or self._classify(row) != "total":
                continue
            holders.setdefault(tuple(row[a] for a in self.attributes), row)
        if not holders:
            return
        for removed in removed_rows:
            key = tuple(removed[a] for a in self.referenced_attributes)
            if any(is_ni(v) for v in key):
                continue
            row = holders.get(key)
            if row is not None:
                raise ReferentialViolation(
                    f"{self.name}: cannot delete {removed!r}; still referenced by {row!r}"
                )

    def __repr__(self) -> str:
        return (
            f"ForeignKeyConstraint({list(self.attributes)} -> "
            f"{self.referenced_relation}{list(self.referenced_attributes)})"
        )
