"""The semantic query result cache: hot reads answered without executing.

Under the Section 5 lower-bound discipline a retrieve's answer is a pure
function of the current states of the tables it ranges over — there is
no hidden execution state to invalidate by hand.  The cache therefore
keys each materialized answer by everything that function depends on:

* the statement's **normalized AST** (the prepared-statement cache key,
  so texts differing in whitespace/comments/positions share entries);
* the **bound parameter values** the statement actually uses;
* the database's catalog/index/stats **epoch** (DDL, index changes and
  ANALYZE all move it — also what covers a dropped-and-recreated table
  whose fresh ``Relation`` restarts its version counter);
* each referenced table's mutation counter (``Relation._version``) and
  ``ddl_epoch`` stamp.

Because every component is re-read at lookup time and versions only ever
grow (every mutation path — including snapshot restore through
``Table.reset_rows`` and transaction rollback through inverse
``Table.apply_delta`` calls — bumps the counter), a
stale entry's key can never equal the current key: **invalidation is
structural**, not evented.  Superseded entries simply age out of the LRU.

Observability: every lookup lands in the ``repro_result_cache_total``
counter (``event`` = ``hit`` / ``miss`` / ``eviction``) and the
``repro_result_cache_entries`` gauge tracks occupancy — both on the
database's registry, so they surface through ``GET /metrics``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, List, Mapping, Optional, Sequence

from ..obs import registry_for

#: Default number of materialized answers a session retains.
DEFAULT_RESULT_CACHE_SIZE = 128

#: The marker line prepended to a cached answer's step trace — explain()
#: on a hit reports the plan that produced the answer under this banner.
CACHED_STEP = "cached result (semantic result cache hit; plan not re-executed)"


class ResultCache:
    """An LRU of materialized retrieve answers, keyed stale-proof.

    One per :class:`~repro.api.session.Session` (sessions are the client
    surface; entries are small — they alias the already-minimal answer
    ``XRelation``, never copy rows).
    """

    def __init__(self, database, capacity: int = DEFAULT_RESULT_CACHE_SIZE):
        self.database = database
        self.capacity = int(capacity)
        #: key -> [answer XRelation, step-trace tuple, sorted-rows memo].
        #: The third slot starts ``None`` and is filled by the first hit
        #: that sorts the answer, so later hits skip the O(n log n) sort.
        self._entries: "OrderedDict[Hashable, List[Any]]" = OrderedDict()
        registry = registry_for(database)
        self._events = registry.counter(
            "repro_result_cache_total",
            "Semantic result-cache lookups and maintenance, by event "
            "(hit, miss, eviction).",
            ("event",),
        )
        self._occupancy = registry.gauge(
            "repro_result_cache_entries",
            "Materialized answers currently held by result caches.",
        )

    # -- keys -----------------------------------------------------------------
    def key_for(
        self,
        statement_key: Hashable,
        params: Mapping[str, Any],
        names: Sequence[str],
        tables: Sequence[Any],
    ) -> Optional[Hashable]:
        """The lookup/store key for one execution, or ``None`` when the
        execution is not cacheable (an unhashable parameter value).

        *names* restricts the parameter binding to the placeholders the
        statement mentions, so extraneous entries in *params* do not
        split otherwise-identical executions.  The epoch and per-table
        stamps are read *now* — computing the key immediately before
        execution is what makes a later hit provably fresh.
        """
        wanted = set(names)
        try:
            bound = tuple(sorted(
                (name, value) for name, value in params.items() if name in wanted
            ))
            hash(bound)
        except TypeError:
            return None
        stamps = tuple(
            (table.name, table.relation._version, table.ddl_epoch)
            for table in tables
        )
        return (statement_key, bound, getattr(self.database, "epoch", None), stamps)

    # -- lookup / store -------------------------------------------------------
    def lookup(self, key: Hashable) -> Optional[List[Any]]:
        """The cached ``[answer, step trace, sorted-rows memo]`` for
        *key*, or ``None``.  The returned list is the live entry: a
        caller that sorts the answer may write the result into slot 2
        so later hits share it (copy before exposing it to users)."""
        entry = self._entries.get(key)
        if entry is None:
            self._events.labels(event="miss").inc()
            return None
        self._entries.move_to_end(key)
        self._events.labels(event="hit").inc()
        return entry

    def store(self, key: Hashable, relation, steps: Sequence[str]) -> None:
        entries = self._entries
        fresh = key not in entries
        if not fresh:
            entries.move_to_end(key)
        entries[key] = [relation, tuple(steps), None]
        if fresh:
            self._occupancy.inc(1)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self._events.labels(event="eviction").inc()
            self._occupancy.dec(1)

    def clear(self) -> None:
        if self._entries:
            self._occupancy.dec(len(self._entries))
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self._entries)}, "
            f"capacity={self.capacity})"
        )
