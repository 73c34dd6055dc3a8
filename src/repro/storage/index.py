"""Hash indexes over relations with null values.

Section 4 of the paper notes that "more sophisticated techniques, such as
combinatorial hashing, can provide more efficient solutions" for the set
operations and for reduction to minimal form.  The storage layer keeps the
simplest useful realisation of that remark: a hash index on a set of
attributes, mapping each *total* index-key value to the rows carrying it.

Rows that are null on any indexed attribute — a null of any kind: ``ni``,
a marked or an unknown null — are kept in a separate "unindexed" bucket.
An equality touching a null is never TRUE (Section 5), so an exact
:meth:`HashIndex.lookup` never returns such a row, just as a scan's
comparison never keeps it.  The information ordering still means a null
row can subsume or be subsumed regardless of the probe value, so scans
that care about x-membership must also visit the unindexed bucket.  The
index API makes that explicit (:meth:`HashIndex.probe` returns both
parts).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.nulls import NULL_CLASSES
from ..core.tuples import XTuple

#: Shared empty result for misses, so probes never allocate.
_EMPTY: AbstractSet[XTuple] = frozenset()


class HashIndex:
    """An equality (hash) index over one or more attributes."""

    def __init__(self, attributes: Sequence[str], name: Optional[str] = None):
        self.attributes: Tuple[str, ...] = tuple(attributes)
        if not self.attributes:
            raise ValueError("an index needs at least one attribute")
        self.name = name or f"idx({', '.join(self.attributes)})"
        self._buckets: Dict[Tuple, Set[XTuple]] = {}
        self._unindexed: Set[XTuple] = set()

    # -- keying -------------------------------------------------------------
    def _key_of(self, row: XTuple) -> Optional[Tuple]:
        values = []
        for attribute in self.attributes:
            value = row[attribute]
            if value.__class__ in NULL_CLASSES:
                return None
            values.append(value)
        return tuple(values)

    # -- maintenance -----------------------------------------------------------
    def insert(self, row: XTuple) -> None:
        key = self._key_of(row)
        if key is None:
            self._unindexed.add(row)
        else:
            self._buckets.setdefault(key, set()).add(row)

    def remove(self, row: XTuple) -> None:
        key = self._key_of(row)
        if key is None:
            self._unindexed.discard(row)
            return
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(row)
            if not bucket:
                del self._buckets[key]

    def bulk_add(self, rows: Iterable[XTuple]) -> None:
        """Insert a batch of rows with the per-row dispatch hoisted out.

        Equivalent to ``for row in rows: self.insert(row)``; the batch form
        binds the bucket table and key extractor once, which is what the
        storage layer's bulk-mutation paths call.
        """
        buckets = self._buckets
        unindexed = self._unindexed
        key_of = self._key_of
        for row in rows:
            key = key_of(row)
            if key is None:
                unindexed.add(row)
            else:
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = set()
                bucket.add(row)

    def bulk_discard(self, rows: Iterable[XTuple]) -> None:
        """Remove a batch of rows; the bulk counterpart of :meth:`remove`."""
        buckets = self._buckets
        unindexed = self._unindexed
        key_of = self._key_of
        emptied = []
        for row in rows:
            key = key_of(row)
            if key is None:
                unindexed.discard(row)
                continue
            bucket = buckets.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    emptied.append(key)
        for key in emptied:
            if key in buckets and not buckets[key]:
                del buckets[key]

    def rebuild(self, rows: Iterable[XTuple]) -> None:
        self._buckets.clear()
        self._unindexed.clear()
        self.bulk_add(rows)

    def clear(self) -> None:
        self._buckets.clear()
        self._unindexed.clear()

    # -- queries ------------------------------------------------------------------
    def lookup(self, values: Sequence) -> AbstractSet[XTuple]:
        """Rows whose indexed attributes equal *values* exactly (nulls excluded).

        Returns a **read-only view** of the live bucket (an empty
        frozenset on a miss) — no per-probe copy is made, which keeps the
        hot join/probe loops allocation-free.  Callers must not mutate the
        result; copy it (``set(...)``) before holding it across index
        mutations.
        """
        return self._buckets.get(tuple(values), _EMPTY)

    def probe(self, values: Sequence) -> Tuple[AbstractSet[XTuple], AbstractSet[XTuple]]:
        """Exact matches plus the null bucket (candidates for x-membership checks).

        Both parts are read-only views, like :meth:`lookup`.
        """
        return self.lookup(values), self._unindexed

    # -- statistics ----------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values()) + len(self._unindexed)

    def __repr__(self) -> str:
        return (
            f"HashIndex({list(self.attributes)}, keys={len(self._buckets)}, "
            f"unindexed={len(self._unindexed)})"
        )
