"""Key and NOT NULL constraints in the presence of null values.

Section 8 of the paper notes that "basic constraints, such as uniqueness
of keys and referential integrity, can be extended and enforced in the
presence of null values, without major problems".  This module provides
that extension for keys:

* a :class:`NotNullConstraint` simply forbids ``ni`` in the listed
  attributes;
* a :class:`KeyConstraint` requires (a) every key attribute to be non-null
  in every row — a key value of "no information" cannot identify anything
  — and (b) no two distinct rows to agree on all key attributes.  This is
  the *entity integrity* reading standard since Codd (1979).

Constraints expose ``check`` (validate a whole relation) and
``check_bulk_insert`` (validate a batch of candidate rows against an
existing relation — a single row is a batch of one), which is what the
storage layer calls on updates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import KeyViolation, NotNullViolation
from ..core.nulls import is_ni
from ..core.relation import Relation
from ..core.tuples import XTuple


class NotNullConstraint:
    """Forbids the null value in the given attributes."""

    def __init__(self, attributes: Sequence[str], name: Optional[str] = None):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.name = name or f"not_null({', '.join(self.attributes)})"

    def check_row(self, row: XTuple) -> None:
        for attribute in self.attributes:
            if is_ni(row[attribute]):
                raise NotNullViolation(
                    f"{self.name}: attribute {attribute!r} is null in {row!r}"
                )

    def check_bulk_insert(self, relation: Relation, rows: Sequence[XTuple]) -> None:
        """Guard a batch of inserts (per-row; nothing to amortise)."""
        for row in rows:
            self.check_row(row)

    def check(self, relation: Relation) -> None:
        for row in relation.tuples():
            self.check_row(row)

    def __repr__(self) -> str:
        return f"NotNullConstraint({list(self.attributes)})"


class KeyConstraint:
    """A (primary or candidate) key over the given attributes.

    Entity integrity: key attributes must be non-null, and the key values
    must be unique across the relation.
    """

    def __init__(self, attributes: Sequence[str], name: Optional[str] = None):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.name = name or f"key({', '.join(self.attributes)})"

    def _key_of(self, row: XTuple) -> Tuple:
        values = []
        for attribute in self.attributes:
            value = row[attribute]
            if is_ni(value):
                raise KeyViolation(
                    f"{self.name}: key attribute {attribute!r} is null in {row!r}"
                )
            values.append(value)
        return tuple(values)

    def check_bulk_insert(self, relation: Relation, rows: Sequence[XTuple]) -> None:
        """Guard a batch of inserts with one pass over the relation.

        Semantically equivalent to checking the batch row by row against the
        relation as it grows, but the existing keys are indexed once —
        O(|relation| + |batch|) instead of a scan per row.  Re-inserting a
        row identical to a stored row (or repeated within the batch) is
        permitted: relations are sets, so it is a no-op.
        """
        existing: Dict[Tuple, XTuple] = {}
        for stored in relation.tuples():
            try:
                existing[self._key_of(stored)] = stored
            except KeyViolation:
                continue  # the full check will flag it; inserts only guard new rows
        staged: Dict[Tuple, XTuple] = {}
        for row in rows:
            key = self._key_of(row)
            holder = existing.get(key)
            if holder is not None and holder != row:
                raise KeyViolation(
                    f"{self.name}: duplicate key {key!r} (existing row {holder!r})"
                )
            prior = staged.get(key)
            if prior is not None and prior != row:
                raise KeyViolation(
                    f"{self.name}: duplicate key {key!r} within one batch "
                    f"({prior!r} and {row!r})"
                )
            staged[key] = row

    def check(self, relation: Relation) -> None:
        seen: Dict[Tuple, XTuple] = {}
        for row in relation.tuples():
            key = self._key_of(row)
            if key in seen:
                raise KeyViolation(
                    f"{self.name}: duplicate key {key!r} in rows {seen[key]!r} and {row!r}"
                )
            seen[key] = row

    def __repr__(self) -> str:
        return f"KeyConstraint({list(self.attributes)})"
