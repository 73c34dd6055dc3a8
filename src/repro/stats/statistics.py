"""Incrementally-maintained statistics over relations with null values.

:class:`TableStatistics` tracks, for one table (or any bag of
:class:`~repro.core.tuples.XTuple` rows):

* the **row count**;
* per attribute, the **non-null count** (and hence the null count — in
  the canonical tuple form a row is null on an attribute exactly when it
  does not bind it) and the **distinct-value count**, backed by an exact
  value→multiplicity counter.

How many rows carry each null pattern is not counted here: a table's
:class:`~repro.core.engine.dominance.DominanceIndex` partitions already
hold exactly those rows.

Maintenance is *exact and incremental*: the storage layer's one write
primitive (:meth:`Table.apply_delta`) feeds :meth:`remove_rows` /
:meth:`add_rows` with the rows that were *actually* removed from or
added to the stored set, so the counters never drift (pinned by the
property tests against :meth:`analyze`).

:meth:`analyze` is the full-refresh fallback: recount everything from the
live rows.  Because the incremental path is exact, a refresh never
changes the counters when maintenance was routed correctly — it only
repairs them after an out-of-band mutation of the underlying relation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from ..core.tuples import XTuple


class TableStatistics:
    """Exact, incrementally-maintained statistics for one table.

    The public read surface — :attr:`row_count`, :meth:`distinct_count`,
    :meth:`null_count`, :meth:`non_null_count`, :meth:`null_fraction` —
    is what the cost model consumes; the mutation surface mirrors the
    storage layer's bulk entry points.
    """

    __slots__ = ("row_count", "_values", "_non_null")

    def __init__(self, rows: Iterable[XTuple] = ()):
        self.row_count = 0
        # attribute -> value -> multiplicity (non-null values only)
        self._values: Dict[str, Dict[Any, int]] = {}
        # attribute -> number of rows binding it
        self._non_null: Dict[str, int] = {}
        if rows:
            self.analyze(rows)

    def __setstate__(self, state) -> None:
        """Unpickle, skipping slots this class no longer has: statistics
        pickled into older checkpoints and ``load`` records may also carry
        an adaptive correction factor, a null-pattern counter, equi-depth
        histograms, or a churn counter and its threshold."""
        _, slots = state
        for name, value in slots.items():
            if name in TableStatistics.__slots__:
                setattr(self, name, value)

    # -- incremental maintenance -------------------------------------------
    def add_rows(self, rows: Iterable[XTuple]) -> None:
        """Count a batch of actually-added rows."""
        for row in rows:
            self._count(row)

    def remove_rows(self, rows: Iterable[XTuple]) -> None:
        """Discount a batch of actually-removed rows."""
        for row in rows:
            self._discount(row)

    def clear(self) -> None:
        """Reset to the statistics of an empty table."""
        self.row_count = 0
        self._values.clear()
        self._non_null.clear()

    def analyze(self, rows: Iterable[XTuple]) -> "TableStatistics":
        """Full refresh: recount everything from *rows*."""
        self.clear()
        for row in rows:
            self._count(row)
        return self

    # -- counting plumbing ---------------------------------------------------
    def _count(self, row: XTuple) -> None:
        self.row_count += 1
        values = self._values
        non_null = self._non_null
        for attribute, value in row.items():
            counter = values.get(attribute)
            if counter is None:
                counter = values[attribute] = {}
            counter[value] = counter.get(value, 0) + 1
            non_null[attribute] = non_null.get(attribute, 0) + 1

    def _discount(self, row: XTuple) -> None:
        self.row_count -= 1
        values = self._values
        non_null = self._non_null
        for attribute, value in row.items():
            counter = values.get(attribute)
            if counter is not None:
                left = counter.get(value, 0) - 1
                if left > 0:
                    counter[value] = left
                else:
                    counter.pop(value, None)
                    if not counter:
                        del values[attribute]
            count = non_null.get(attribute, 0) - 1
            if count > 0:
                non_null[attribute] = count
            else:
                non_null.pop(attribute, None)

    # -- snapshots -------------------------------------------------------------
    def copy(self) -> "TableStatistics":
        """An independent copy of every counter — what
        :meth:`Database.snapshot` carries so a restored database plans on
        the estimates it had at snapshot time instead of re-deriving them."""
        dup = TableStatistics()
        dup.row_count = self.row_count
        dup._values = {a: dict(counter) for a, counter in self._values.items()}
        dup._non_null = dict(self._non_null)
        return dup

    def restore_from(self, other: "TableStatistics") -> None:
        """In-place wholesale restore from a saved copy.

        Counters are copied (never aliased), so one snapshot can be
        restored any number of times; object identity is preserved, so
        anything holding a reference to a table's statistics keeps seeing
        the live object.
        """
        self.row_count = other.row_count
        self._values = {a: dict(counter) for a, counter in other._values.items()}
        self._non_null = dict(other._non_null)

    # -- read surface ---------------------------------------------------------
    def distinct_count(self, attribute: str) -> int:
        """Distinct non-null values stored on *attribute*."""
        counter = self._values.get(attribute)
        return len(counter) if counter else 0

    def non_null_count(self, attribute: str) -> int:
        """Rows binding *attribute* (visible to an equality probe on it)."""
        return self._non_null.get(attribute, 0)

    def null_count(self, attribute: str) -> int:
        """Rows null on *attribute* — never TRUE under any comparison on it."""
        return self.row_count - self._non_null.get(attribute, 0)

    def null_fraction(self, attribute: str) -> float:
        """``null_count / row_count`` (0.0 for an empty table)."""
        if self.row_count == 0:
            return 0.0
        return self.null_count(attribute) / self.row_count

    # -- equality (for the differential property tests) -----------------------
    def same_counts_as(self, other: "TableStatistics") -> bool:
        """Counter-for-counter equality."""
        return (
            self.row_count == other.row_count
            and self._values == other._values
            and self._non_null == other._non_null
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TableStatistics):
            return NotImplemented
        return self.same_counts_as(other)

    __hash__ = None  # mutable; unhashable like other mutable containers

    def __repr__(self) -> str:
        return (
            f"TableStatistics(rows={self.row_count}, "
            f"attributes={sorted(self._non_null)})"
        )
