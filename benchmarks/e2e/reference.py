"""Expected answers for the e2e workloads, computed without the system
under test.

A plain-Python model of the fixed statement shapes the workloads send —
point lookup, one-sided range, the 3-way join with a residual, 1-row and
bulk append, replace by key, range delete — over ``{key: row-dict}``
tables.  It imports nothing from ``repro``: a null is an *absent*
attribute (``None`` on the wire), and the two rules of the paper it
needs are written out here:

* Section 5, TRUE-only lower bound: a comparison touching ``ni`` is
  never TRUE, so such a row never qualifies (:func:`holds`);
* Definition 4.6, minimal form: the projected answer drops the null
  tuple and every row subsumed by a more informative one
  (:func:`minimal`).

A canonical row is the sorted tuple of its non-null ``(column, value)``
pairs; a canonical answer is the frozenset of those.  ``run.py --smoke``
cross-checks this module against ``Database.query(..., strategy="tuple")``.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

Row = Tuple[Tuple[str, Any], ...]
Answer = FrozenSet[Row]

_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def holds(op: str, left: Any, right: Any) -> bool:
    """Section 5: TRUE only when both sides carry information."""
    if left is None or right is None:
        return False
    return _COMPARATORS[op](left, right)


def canonical_row(row: Mapping[str, Any]) -> Row:
    return tuple(sorted((k, v) for k, v in row.items() if v is not None))


def minimal(rows: Iterable[Row]) -> Answer:
    """Definition 4.6: no null tuple, no row subsumed by another.

    Rows are bucketed by the set of columns they bind; a row can only be
    subsumed by a row binding a strict superset, so each bucket is
    checked against the projections of the wider buckets onto it.
    """
    buckets: Dict[Tuple[str, ...], set] = {}
    for row in rows:
        if row:
            buckets.setdefault(tuple(k for k, _ in row), set()).add(row)
    if len(buckets) == 1:
        return frozenset(next(iter(buckets.values())))
    kept = set()
    for columns, bucket in buckets.items():
        wanted = set(columns)
        covered = set()
        for other, wider in buckets.items():
            if len(other) > len(columns) and wanted < set(other):
                covered.update(
                    tuple(item for item in row if item[0] in wanted) for row in wider
                )
        kept.update(bucket - covered)
    return frozenset(kept)


def digest(rows: Iterable[Row]) -> Dict[str, Any]:
    """Row count and SHA-256 of a table's canonical rows — what the
    server child reports and the model is compared against."""
    ordered = sorted(tuple(row) for row in rows)
    return {"rows": len(ordered),
            "sha256": hashlib.sha256(repr(ordered).encode("utf-8")).hexdigest()}


def project(row: Mapping[str, Any], target: Sequence[Tuple[str, str]]) -> Row:
    """``target`` is ``(output column, source attribute)`` pairs."""
    return tuple(sorted(
        (out, row[attr]) for out, attr in target if row.get(attr) is not None
    ))


class ModelError(Exception):
    """The op list asked the model for something the database would
    refuse (duplicate key, dangling reference) — a generator bug."""


class Reference:
    """Keyed tables of plain row dicts plus the statement evaluators."""

    def __init__(
        self,
        tables: Mapping[str, List[Mapping[str, Any]]],
        keys: Mapping[str, str],
        foreign_keys: Sequence[Tuple[str, str, str]] = (),
    ):
        self.keys = dict(keys)
        #: ``(owner table, owner attribute, referenced table)`` triples.
        self.foreign_keys = list(foreign_keys)
        self.tables: Dict[str, Dict[Any, Dict[str, Any]]] = {}
        self.versions: Dict[str, int] = {}
        self._memo: Dict[Any, Any] = {}
        for name, rows in tables.items():
            key = self.keys[name]
            self.tables[name] = {
                row[key]: {k: v for k, v in row.items() if v is not None}
                for row in rows
            }
            self.versions[name] = 0

    # -- reads -----------------------------------------------------------------
    def _cached(self, table: str, tag: Any, build):
        """Per-table-version memo for derived structures (the model's own
        bookkeeping; every write to *table* bumps the version)."""
        memo_key = (table, tag)
        hit = self._memo.get(memo_key)
        if hit is None or hit[0] != self.versions[table]:
            hit = (self.versions[table], build())
            self._memo[memo_key] = hit
        return hit[1]

    def point(self, table: str, key: Any, target: Sequence[Tuple[str, str]]) -> Answer:
        """``retrieve (target) where t.<key attribute> = key``."""
        row = self.tables[table].get(key) if key is not None else None
        return minimal([project(row, target)] if row is not None else [])

    def select(
        self,
        table: str,
        attribute: str,
        op: str,
        value: Any,
        target: Sequence[Tuple[str, str]],
    ) -> Answer:
        """``retrieve (target) where t.attribute op value`` by full scan."""
        if value is None:
            return frozenset()
        # Rows null on the compared attribute can never qualify; the
        # projection of the rest is built once per table version.
        bound = self._cached(table, ("bound", attribute, tuple(target)), lambda: [
            (row[attribute], project(row, target))
            for row in self.tables[table].values() if attribute in row
        ])
        test = _COMPARATORS[op]
        return self._cached(table, ("select", attribute, op, value, tuple(target)), lambda: minimal(
            projected for held, projected in bound if test(held, value)
        ))

    def join3(self, a: Any, limit: Any) -> Answer:
        """The ``join_drain`` statement::

            retrieve (r.RID, s.SID, t.TID, t.W)
            where r.A = $a and t.D < $limit
              and r.B = s.B and s.C = t.C and r.P <= s.Q
        """
        def group(table: str, attribute: str):
            def build():
                index: Dict[Any, list] = {}
                for row in self.tables[table].values():
                    if attribute in row:
                        index.setdefault(row[attribute], []).append(row)
                return index
            return self._cached(table, ("group", attribute), build)

        out = []
        if a is None or limit is None:
            return frozenset()
        s_by_b, t_by_c = group("S", "B"), group("T", "C")
        for r in group("R", "A").get(a, ()):
            for s in s_by_b.get(r.get("B"), ()):
                if not holds("<=", r.get("P"), s.get("Q")):
                    continue
                for t in t_by_c.get(s.get("C"), ()):
                    if holds("<", t.get("D"), limit):
                        out.append(canonical_row({
                            "r_RID": r.get("RID"), "s_SID": s.get("SID"),
                            "t_TID": t.get("TID"), "t_W": t.get("W"),
                        }))
        return minimal(out)

    # -- writes ----------------------------------------------------------------
    def _touch(self, table: str) -> None:
        self.versions[table] += 1

    def append(self, table: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert rows (Section 7: union); returns how many were new."""
        stored = self.tables[table]
        key = self.keys[table]
        fresh = []
        for row in rows:
            clean = {k: v for k, v in row.items() if v is not None}
            if clean.get(key) is None:
                raise ModelError(f"{table}: null key in {row!r}")
            if clean[key] in stored or any(clean[key] == f[key] for f in fresh):
                raise ModelError(f"{table}: duplicate key {clean[key]!r}")
            for owner, attribute, referenced in self.foreign_keys:
                if owner == table and attribute in clean and (
                    clean[attribute] not in self.tables[referenced]
                ):
                    raise ModelError(f"{table}.{attribute}: dangling {clean[attribute]!r}")
            fresh.append(clean)
        for clean in fresh:
            stored[clean[key]] = clean
        if fresh:
            self._touch(table)
        return len(fresh)

    def append_where(
        self,
        source: str,
        attribute: str,
        value: Any,
        table: str,
        columns: Sequence[Tuple[str, str]],
    ) -> int:
        """``append to table (col = s.attr, …) where s.attribute = value``."""
        picked = [
            {column: row.get(attr) for column, attr in columns}
            for row in self.tables[source].values()
            if holds("=", row.get(attribute), value)
        ]
        return self.append(table, picked)

    def replace(self, table: str, key: Any, changes: Mapping[str, Any]) -> int:
        """``replace t (attr = value, …) where t.<key> = key`` — deletion
        followed by addition; a ``None`` value unbinds the attribute."""
        row = self.tables[table].get(key)
        if row is None:
            return 0
        for attribute, value in changes.items():
            if value is None:
                row.pop(attribute, None)
            else:
                row[attribute] = value
        self._touch(table)
        return 1

    def delete_range(self, table: str, attribute: str, low: Any, high: Any) -> int:
        """``delete t where t.attribute >= low and t.attribute < high``.

        (4.8) also removes every stored row a deleted row subsumes; in a
        keyed table no two rows are comparable (their keys differ), so
        the closure adds nothing and the count is the matched rows."""
        stored = self.tables[table]
        doomed = [
            key for key, row in stored.items()
            if holds(">=", row.get(attribute), low) and holds("<", row.get(attribute), high)
        ]
        for key in doomed:
            del stored[key]
        if doomed:
            self._touch(table)
        return len(doomed)

    # -- state -----------------------------------------------------------------
    def rows(self, table: str) -> Answer:
        """The whole table, canonically (for end-state comparison)."""
        return frozenset(canonical_row(row) for row in self.tables[table].values())
